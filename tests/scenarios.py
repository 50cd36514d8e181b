"""Hand-built scenario instances and schedules for the tests.

The four-site weighted line scenario is the canonical witness that
disjoint zigzags are not optimal once weights differ: two cooperating
robots that hand the heavy middle pair off to each other beat any pair
of independent sweeps.
"""

from __future__ import annotations

from fractions import Fraction

from patrol.instance import Instance, euclidean_instance, line_instance
from patrol.rationals import to_fraction
from patrol.schedule import (
    CoordPos,
    RobotTrack,
    Schedule,
    loop_track,
    zigzag_track,
)


def cooperative_line_instance(x=3, gap=1) -> Instance:
    """Four sites on a line: light ends at 0 and 2x+gap (weight 1), heavy
    middle pair at x and x+gap (weight 4)."""
    x, gap = to_fraction(x), to_fraction(gap)
    return line_instance([0, x, x + gap, 2 * x + gap], [1, 4, 4, 1])


def cooperative_hand_schedule(x=3, gap=1) -> Schedule:
    """Two robots with period 4x-2 (for gap=1): each in turn fetches its
    end site while the other zigzags over the heavy middle pair, keeping
    the middle gap at 2 and the end gaps at 4x-2.

    Built for gap=1; the mirror image of robot 1 shifted by half a
    period gives robot 2.
    """
    x, gap = to_fraction(x), to_fraction(gap)
    if gap != 1:
        raise ValueError("the cooperative schedule is built for gap=1")
    period = 4 * x - 2
    span = 2 * x + gap
    # robot 1: leave 0, zigzag the middle x-1 times, return to 0
    pts: list[tuple[Fraction, Fraction]] = [(Fraction(0), Fraction(0)), (x, x)]
    t = x
    for _ in range(int(x - 1)):
        t += 1
        pts.append((t, x + 1))
        t += 1
        pts.append((t, x))
    assert t + x == period
    track1 = RobotTrack(period, tuple((tt, CoordPos(cc)) for tt, cc in pts))

    # robot 2: reflect robot 1 and shift by half a period
    half = period / 2
    shifted = sorted(((tt + half) % period, span - cc) for tt, cc in pts)
    track2 = RobotTrack(period, tuple((tt, CoordPos(cc)) for tt, cc in shifted))
    return Schedule((track1, track2))


def disjoint_zigzag_schedule(x=3, gap=1) -> Schedule:
    """One robot sweeps [0, x], the other [x+gap, 2x+gap]."""
    x, gap = to_fraction(x), to_fraction(gap)
    return Schedule(
        (zigzag_track(Fraction(0), x), zigzag_track(x + gap, 2 * x + gap))
    )


def alternate_pairing_schedule(x=3, gap=1) -> Schedule:
    """Overlapping zigzags [0, x+gap] and [x, 2x+gap], started at 0 and x."""
    x, gap = to_fraction(x), to_fraction(gap)
    r1 = RobotTrack(
        2 * (x + gap),
        ((Fraction(0), CoordPos(Fraction(0))), (x + gap, CoordPos(x + gap))),
    )
    r2 = RobotTrack(
        2 * (x + gap),
        ((Fraction(0), CoordPos(x)), (x + gap, CoordPos(2 * x + gap))),
    )
    return Schedule((r1, r2))


def unit_square_instance() -> Instance:
    return euclidean_instance([(0, 0), (1, 0), (1, 1), (0, 1)], [1, 1, 1, 1])


def square_two_robot_loop() -> Schedule:
    """Both robots loop the square in the same direction from opposite
    corners, so every corner is visited once per half period."""
    inst = unit_square_instance()
    r1 = loop_track([0, 1, 2, 3], inst.metric)
    r2 = loop_track([2, 3, 0, 1], inst.metric)
    return Schedule((r1, r2))
