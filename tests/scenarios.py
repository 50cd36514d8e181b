"""Hand-built scenario instances and schedules for the tests.

The four-site weighted line scenario is the canonical witness that
disjoint zigzags are not optimal once weights differ: two cooperating
robots that hand the heavy middle pair off to each other beat any pair
of independent sweeps.
"""

from __future__ import annotations

from fractions import Fraction

from patrol.instance import Instance, euclidean_instance, line_instance, matrix_instance
from patrol.rationals import to_fraction
from patrol.schedule import (
    CoordPos,
    EdgePos,
    RobotTrack,
    RoundRobinTrack,
    Schedule,
    SitePos,
    loop_track,
    zigzag_track,
)
from conftest import track


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


# --- one schedule of each kind the evaluator reads -----------------------------


def line_edges():
    inst = line_instance([0, 3, 10, Fraction(5, 2), 8], [1, 2, 3, 1, 2])
    quarter, back = EdgePos(0, 2, Fraction(1, 4)), EdgePos(1, 2, Fraction(5, 7))
    return inst, Schedule((
        track(20, (0, SitePos(0)), (Fraction(5, 2), quarter), (8, back), (10, SitePos(2))),
        track(13, (0, back), (2, back), (Fraction(15, 2), quarter)),
    ))


def matrix():
    inst = matrix_instance([[0, 2, 3, 4], [2, 0, 1, 3], [3, 1, 0, Fraction(5, 2)],
                            [4, 3, Fraction(5, 2), 0]], [1, 3, 2, Fraction(1, 2)])
    return inst, Schedule((
        loop_track([0, 1, 2, 3], inst.metric),
        track(7, (1, SitePos(1)), (2, SitePos(1)), (Fraction(5, 2), EdgePos(1, 2, Fraction(1, 2)))),
    ))


def euclidean():
    # site 3 is within 1e-9 of site 2, so it shares site 2's visits
    inst = euclidean_instance([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (3.0, 4.0 + 5e-10)],
                              [2, 1, 3, 1])
    return inst, Schedule((loop_track([0, 1, 2], inst.metric),
                           track(12, (1, SitePos(2)), (6, SitePos(2)))))


def round_robin():
    inst = euclidean_instance([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (0.0, 4.0)], [1, 2, 1, 3])
    return inst, Schedule((RoundRobinTrack((((0, 1), (1,)), ((2,), (3, 2), (2, 3)))),
                           track(6, (0, SitePos(3)))))


def jointly_served():
    inst = line_instance(range(7), [1, 2, 1, 3, 1, 2, 1])
    return inst, Schedule((track(12, (0, 0), (6, 6)), track(6, (1, 2), (4, 5)),
                           track(Fraction(10, 3), (0, 3), (Fraction(5, 3), Fraction(14, 3)))))


# --- schedule documents that name a site by something other than an int ---------

NON_INTEGER_SITE_IDS = (2.9, 1.0, 1e2, True, False, "1", None, [1])


def site_id_documents(site):
    """One schedule document per place a schedule names a site: a site
    position, either end of an edge, and a round-robin path."""
    def waypoint(pos):
        return {"robots": [{"period": "4", "waypoints": [{"t": "0", "pos": pos}]}]}

    return [
        waypoint({"site": site}),
        waypoint({"edge": [site, 0], "frac": "1/2"}),
        waypoint({"edge": [0, site], "frac": "1/2"}),
        {"robots": [{"kind": "round_robin", "trees": [{"paths": [[0, site]]}]}]},
    ]
