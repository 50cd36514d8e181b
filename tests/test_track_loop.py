"""RobotTrack.legs() and the evaluator's integer loops against frozen
copies of the code they replaced.

test_evaluator_identity.py's references read track.legs() themselves,
so a change in legs() would move the evaluator and its reference
together.  The copies below keep the original leg loop and the
original _unit/_legs of the evaluator, self-contained apart from the
error type, so a changed leg, closing rule, error or time unit shows
up as a difference.
"""

import random
from fractions import Fraction
from math import lcm

from patrol.errors import ScheduleFormatError
from patrol.evaluate import _evaluation
from patrol.schedule import CoordPos, EdgePos, SitePos
from conftest import (
    euclidean_cases,
    line_cases,
    matrix_cases,
    random_track,
    reference_line_coord,
)


def frozen_legs(track):
    """RobotTrack.legs() as it was: consecutive (t0, p0, t1, p1) legs,
    then the wraparound leg unless the track spans its whole period."""
    out = []
    for (t0, p0), (t1, p1) in zip(track.waypoints, track.waypoints[1:]):
        out.append((t0, p0, t1, p1))
    t_first, p_first = track.waypoints[0]
    t_last, p_last = track.waypoints[-1]
    if t_last - t_first < track.period:
        out.append((t_last, p_last, t_first + track.period, p_first))
    elif p_last != p_first:
        raise ScheduleFormatError("full-period track must wrap to its start")
    return out


def frozen_unit(schedule, metric):
    """The removed evaluate._unit: the lcm of the denominators of every
    waypoint time and period and, on the line, waypoint coordinate."""
    dens = [t.denominator for track in schedule.robots
            for t in (*(t for t, _ in track.waypoints), track.period)]
    if metric.variant == "line":
        dens += [reference_line_coord(p, metric).denominator
                 for track in schedule.robots for _, p in track.waypoints]
    return lcm(*dens)


def frozen_int_legs(track, metric, unit):
    """The removed evaluate._legs: frozen_legs in units of 1/unit (times
    and, on the line, positions)."""
    def scale(value):
        return value.numerator * (unit // value.denominator)

    line, legs = metric.variant == "line", frozen_legs(track)
    points = [(scale(t), scale(reference_line_coord(p, metric)) if line else p)
              for t, p in [leg[:2] for leg in legs] + [legs[-1][2:]]]
    return [a + b for a, b in zip(points, points[1:])]


def outcome(fn):
    try:
        return ("ok", fn())
    except ScheduleFormatError as exc:
        return ("ScheduleFormatError", str(exc))


def test_legs_match_the_frozen_loop_on_seeded_tracks():
    rng = random.Random(2911)
    n = 6

    def positions():
        kind = rng.random()
        if kind < 0.4:
            return SitePos(rng.randrange(n))
        if kind < 0.7:
            a, b = rng.sample(range(n), 2)
            return EdgePos(a, b, Fraction(rng.randint(1, 3), 4))
        return CoordPos(Fraction(rng.randint(-4, 12), rng.choice((1, 2, 3))))

    kinds, kinds_of_position = {}, set()
    for _ in range(600):
        trk = random_track(rng, positions)
        got, want = outcome(trk.legs), outcome(lambda: frozen_legs(trk))
        assert got == want, trk
        (t_first, p_first), (t_last, p_last) = trk.waypoints[0], trk.waypoints[-1]
        if len(trk.waypoints) == 1:
            kind = "single"
        elif t_last - t_first < trk.period:
            kind = "open"
        else:
            kind = "closed" if p_last == p_first else "unclosed"
        kinds[kind] = kinds.get(kind, 0) + 1
        kinds_of_position.update(type(p) for _, p in trk.waypoints)
    assert all(kinds.get(kind, 0) >= 20 for kind in ("single", "open", "closed", "unclosed"))
    assert kinds_of_position == {SitePos, CoordPos, EdgePos}


def test_evaluation_matches_the_frozen_unit_and_legs_on_seeded_grid():
    """_evaluation's U and the consecutive pairs of its loops are the
    removed _unit and _legs, on test_evaluator_identity's seeded grid."""
    rng = random.Random(2005)
    kinds = {}
    for cases in (line_cases, euclidean_cases, matrix_cases):
        for schedule, inst in cases(rng):
            metric = inst.metric

            def new():
                unit, loops = _evaluation(schedule, metric)
                return unit, [[a + b for a, b in zip(loop, loop[1:])] for loop in loops]

            def old():
                expanded = schedule.expanded(metric)
                unit = frozen_unit(expanded, metric)
                return unit, [frozen_int_legs(t, metric, unit) for t in expanded.robots]

            got = outcome(new)
            assert got == outcome(old), (schedule, inst)
            kinds[got[0]] = kinds.get(got[0], 0) + 1
    assert sum(kinds.values()) == 140
    assert kinds["ok"] >= 100 and kinds["ScheduleFormatError"] >= 5

