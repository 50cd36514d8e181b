"""The integer line axis and the per-site latency loop against frozen
copies of the code they replaced.

Before the axis, each reader of a line metric took the lcm of the
coordinate denominators, scaled and sorted the coordinates itself, and
the latency loop probed every track's visit dict for every site.  Each
frozen copy below is that code, apart from the error types and the
helpers that did not change (_evaluation, _max_gap, _joint_gap, the
off-line _sites_near and format_ratio), so any change in a value, its
type, an argmax, a row, an error type or its message shows up as a
difference.
"""

import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import floor, gcd, lcm

from patrol import evaluate
from patrol.errors import PatrolError, PeriodOverflowError, UnvisitedSiteError
from patrol.evaluate import (
    VISIT_TOL,
    LatencyReport,
    SiteLatency,
    _evaluation,
    _joint_gap,
    _max_gap,
    max_weighted_latency,
)
from patrol.instance import Metric, line_instance
from patrol.rationals import format_fraction, format_ratio
from patrol.schedule import RobotTrack, Schedule, SitePos
from patrol.time_window import _summary_pool, solve_line_weighted
from test_evaluator_identity import euclidean_cases, line_cases, matrix_cases, track, zigzag


# --- the axis -------------------------------------------------------------------


def test_axis_is_the_lcm_scale_and_stable_sort():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 30)
        pool = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 7, 10, 12, 100)))
                for _ in range(rng.randint(1, n))]
        coords = tuple(rng.choice(pool) for _ in range(n))
        metric = Metric("line", coords=coords)
        D = lcm(*(c.denominator for c in coords))
        X = tuple(c.numerator * (D // c.denominator) for c in coords)
        order = tuple(sorted(range(n), key=lambda i: (coords[i], i)))
        axis = metric.axis()
        assert axis == (D, X, order) and all(type(x) is int for x in axis[1])
        assert metric.axis() is axis and metric._memo["axis"] is axis
        assert line_instance(coords, [1] * n).sorted_line_order() == list(order)


def test_a_line_instance_holds_one_axis():
    """The time-window solve keeps no integer coordinates of its own: its
    summary pool reads the metric's axis, and keeps no tie-key tables."""
    inst = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7), Fraction(9, 2)], [1, 2, 1, 4, 2])
    solve_line_weighted(inst, 2)
    pool = _summary_pool(inst)
    D, X, _ = inst.metric.axis()
    assert pool.X is X and pool.D == D
    assert not hasattr(pool, "low") and not hasattr(pool, "high")


# --- frozen per-site latency loop -------------------------------------------------


def frozen_sites_near(loops, metric, unit):
    if metric.variant == "line":
        scaled = [c.numerator * (unit // c.denominator) for c in metric.coords]
        order = sorted(range(metric.n), key=scaled.__getitem__)
        return [scaled[s] for s in order], order
    return evaluate._sites_near(loops, metric, unit)


def frozen_track_visits(loop, line, near, tol):
    visits = {}
    for (t0, p0), (t1, p1) in zip(loop, loop[1:]):
        if line:
            lo, hi = min(p0, p1), max(p0, p1)
            keys, order = near
            g = gcd(t1 - t0, hi - lo)
            rate, step = (t1 - t0) // g, (hi - lo) // g
            for i in range(bisect_left(keys, lo - tol), bisect_right(keys, hi + tol)):
                if p0 == p1:
                    visits.setdefault(order[i], []).append((t0, t1))
                else:
                    k, rest = divmod(abs(min(max(keys[i], lo), hi) - p0), step)
                    assert not rest
                    visits.setdefault(order[i], []).append((tc := t0 + rate * k, tc))
        elif isinstance(p0, SitePos):
            span = (t0, t1) if p0 == p1 else (t0, t0)
            for s in near[p0.site]:
                visits.setdefault(s, []).append(span)
    return visits


def frozen_visits(schedule, metric):
    unit, loops = _evaluation(schedule, metric)
    line = metric.variant == "line"
    if line:
        m = lcm(unit, *(c.denominator for c in metric.coords)) // unit
        m *= lcm(*(abs(x1 - x0) // gcd(x1 - x0, t1 - t0) for loop in loops
                   for (t0, x0), (t1, x1) in zip(loop, loop[1:]) if x1 != x0))
        unit *= m
        loops = [[(t * m, x * m) for t, x in loop] for loop in loops]
    near = frozen_sites_near(loops, metric, unit)
    tol = floor(unit * VISIT_TOL)
    return (unit, [loop[-1][0] - loop[0][0] for loop in loops],
            [frozen_track_visits(loop, line, near, tol) for loop in loops])


def frozen_max_weighted_latency(schedule, instance):
    unit, periods, per_track = frozen_visits(schedule, instance.metric)
    cap = evaluate.DEFAULT_EVENT_CAP
    checked, joint_events = [], 0
    for s in instance.sites:
        served = [(period, vis[s]) for period, vis in zip(periods, per_track) if s in vis]
        if not served:
            raise UnvisitedSiteError(s, instance.names[s] if instance.names else None)
        if len(served) == 1:
            total, events = served[0][0], len(served[0][1])
        else:
            total = lcm(*(period for period, _ in served))
            events = sum(total // period * len(visits) for period, visits in served)
        if events > cap:
            raise PeriodOverflowError(
                f"site {s} needs {events} visit events over the common period; cap is {cap}")
        joint_events += events if len(served) > 1 else 0
        if joint_events > cap:
            raise PeriodOverflowError(f"jointly served sites up to site {s} need {joint_events} "
                                      f"visit events in total; cap is {cap}")
        checked.append((s, served, total))
    rows, best = [], None
    for s, served, total in checked:
        gap = _max_gap(served[0][1], total) if len(served) == 1 else _joint_gap(served, total)
        g = gcd(gap, unit)
        num, den = gap // g, unit // g
        weight = instance.weights[s]
        wn, wd = weight.numerator, weight.denominator
        g1, g2 = gcd(num, wd), gcd(wn, den)
        row = SiteLatency(s, weight, num, den, num // g1 * (wn // g2), den // g2 * (wd // g1))
        rows.append(row)
        if best is None or row.wnum * best.wden > best.wnum * row.wden:
            best = row
    return LatencyReport(tuple(rows), best.weighted, best.site)


def frozen_json_dict(report):
    weights, rows = {}, []
    for s in report.per_site:
        key = s.weight.numerator, s.weight.denominator
        weight = weights.get(key)
        if weight is None:
            weight = weights[key] = format_ratio(*key)
        latency = weighted = format_ratio(s.num, s.den)
        if (s.wnum, s.wden) != (s.num, s.den):
            weighted = format_ratio(s.wnum, s.wden)
        rows.append({"site": s.site, "latency": latency, "weight": weight, "weighted": weighted})
    return {"max_weighted": format_fraction(report.max_weighted),
            "argmax_site": report.argmax_site, "per_site": rows}


def measured(fn, schedule, instance):
    """Everything a report exposes, or the error raised, its message and site."""
    try:
        rep = fn(schedule, instance)
    except PatrolError as exc:
        return type(exc), str(exc), getattr(exc, "site", None)
    return ("ok", rep.per_site, [type(row) for row in rep.per_site],
            [type(x) for row in rep.per_site for x in row],
            rep.max_weighted, type(rep.max_weighted), rep.argmax_site)


def assert_same(schedule, instance):
    got = measured(max_weighted_latency, schedule, instance)
    want = measured(frozen_max_weighted_latency, schedule, instance)
    assert got == want, (schedule, instance)
    if got[0] == "ok":
        report = max_weighted_latency(schedule, instance)
        assert report.to_json_dict() == frozen_json_dict(report)
    return got[0]


def joint_cases():
    """Sites served by two or three zigzags with related and unrelated
    periods, phases and rests, and a site every robot parks on."""
    inst = line_instance(range(11), [1, 2, 3, Fraction(1, 2), 5, 1, 1, Fraction(7, 3), 2, 1, 4])
    yield Schedule((zigzag(0, 6, 1), zigzag(2, 8, Fraction(3, 2), 1),
                    zigzag(3, 10, Fraction(5, 2)))), inst
    yield Schedule((zigzag(0, 10, 1), zigzag(0, 10, 2, Fraction(1, 3)),
                    zigzag(0, 10, 3, 5))), inst
    rest = track(7, (0, 4), (2, 4), (6, 0))
    yield Schedule((zigzag(0, 10, 1), rest, zigzag(4, 9, Fraction(5, 4)))), inst
    parked = line_instance([0, 0, 1, Fraction(1, 3)], [3, 1, 2, 1])
    yield Schedule((track(2, (0, 0)), track(3, (1, SitePos(1))), zigzag(0, 1, 1))), parked


def test_rows_argmax_and_errors_match_on_the_grid_and_joint_sites():
    rng = random.Random(36)
    kinds = {}
    for cases in (line_cases, euclidean_cases, matrix_cases):
        for schedule, inst in cases(rng):
            kind = assert_same(schedule, inst)
            kinds[kind] = kinds.get(kind, 0) + 1
    for schedule, inst in joint_cases():
        assert assert_same(schedule, inst) == "ok"
    assert kinds["ok"] >= 30 and kinds[UnvisitedSiteError] >= 30, kinds


def test_event_cap_messages_match_at_every_small_cap(monkeypatch):
    """Per-site and joint-total PeriodOverflowError, and an unvisited site
    after an overflowing one, at each cap up to where every case passes."""
    seen = set()
    cases = list(joint_cases())
    inst = line_instance([0, 1, 2, 3, 4, 9], [1] * 6)
    gappy = track(2, (0, SitePos(0)), (1, SitePos(0)))
    cases.append((Schedule((zigzag(0, 3, 1), zigzag(1, 4, Fraction(7, 5)), gappy)), inst))
    for cap in range(0, 120):
        monkeypatch.setattr(evaluate, "DEFAULT_EVENT_CAP", cap)
        for schedule, inst in cases:
            got = measured(max_weighted_latency, schedule, inst)
            assert got == measured(frozen_max_weighted_latency, schedule, inst), (cap, schedule)
            seen.add(got[1].split(" ")[0] if got[0] is PeriodOverflowError else got[0])
    assert seen == {"site", "jointly", "ok", UnvisitedSiteError}, seen


def test_waypoint_visits_are_recorded_by_both_legs_on_the_line():
    """A site at a waypoint between two line legs gets that instant from
    each leg, and the loop's first point gets t_first + period too; the
    gap is unchanged."""
    inst = line_instance([0, 1, 2, 3], [1] * 4)
    loop = RobotTrack(Fraction(6), tuple((Fraction(i), SitePos(i)) for i in range(4)))
    unit, periods, (visits,) = evaluate._visits(Schedule((loop,)), inst.metric)
    assert (unit, periods) == (1, [6])
    assert visits == {0: [(0, 0), (6, 6)], 1: [(1, 1), (1, 1), (5, 5)],
                      2: [(2, 2), (2, 2), (4, 4)], 3: [(3, 3), (3, 3)]}
    assert [row.latency for row in max_weighted_latency(Schedule((loop,)), inst).per_site] == [
        6, 4, 4, 6]
