"""max_weighted_latency against a frozen copy of its original loops.

The original scanned every site for every leg (through Metric.distance
off the line) and unrolled every site's visits with Fraction `%`,
clipped them at the common period, sorted and merged them.  The
reference below keeps that code, self-contained apart from the error
types, so any change in a latency, its type, the argmax or the error
raised shows up as a difference.

Two rules differ from the original on purpose.  A jointly served site's
visits are placed at their absolute time modulo the track's period: the
original subtracted each track's own first waypoint time, which lost the
phase between tracks that start at different times
(test_evaluator_reference.py finds that case).  And the jointly served
sites' events count toward one running total under the event cap, which
the original did not have.  A measured report's JSON rows are held to
format_fraction of the reference's Fractions.
"""

import math
import random
import time
from fractions import Fraction

from patrol import evaluate
from patrol.errors import PatrolError, PeriodOverflowError, UnvisitedSiteError
from patrol.evaluate import SiteLatency, max_weighted_latency, validate_speed
from patrol.instance import Instance, euclidean_instance, line_instance, matrix_instance
from patrol.rationals import format_fraction
from patrol.schedule import EdgePos, Schedule, SitePos
from conftest import (
    TOL,
    euclidean_cases,
    line_cases,
    matrix_cases,
    reference_line_coord,
    track,
    zigzag,
)


def reference_coincides(pos, site, metric):
    if isinstance(pos, SitePos):
        return metric.distance(pos.site, site) <= TOL
    return False


def reference_track_visits(track, instance):
    metric = instance.metric
    visits = {s: [] for s in instance.sites}
    line = metric.variant == "line"
    for t0, p0, t1, p1 in track.legs():
        if line:
            x0, x1 = reference_line_coord(p0, metric), reference_line_coord(p1, metric)
            lo, hi = min(x0, x1), max(x0, x1)
            for s in instance.sites:
                c = metric.coords[s]
                if x0 == x1:
                    if abs(c - x0) <= TOL:
                        visits[s].append((t0, t1))
                elif lo - TOL <= c <= hi + TOL:
                    cc = min(max(c, lo), hi)
                    tc = t0 + (t1 - t0) * abs(cc - x0) / (x1 - x0 if x1 > x0 else x0 - x1)
                    visits[s].append((tc, tc))
        else:
            stationary = p0 == p1
            for s in instance.sites:
                at0 = reference_coincides(p0, s, metric)
                if stationary and at0:
                    visits[s].append((t0, t1))
                elif at0:
                    visits[s].append((t0, t0))
    return visits


def reference_lcm(values):
    num, den = 1, 0
    for f in values:
        num = num * f.numerator // math.gcd(num, f.numerator)
        den = math.gcd(den, f.denominator)
    return Fraction(num, den)


def reference_max_gap(intervals, period):
    intervals.sort()
    merged = []
    for a, b in intervals:
        if merged and a <= merged[-1][1]:
            if b > merged[-1][1]:
                merged[-1] = (merged[-1][0], b)
        else:
            merged.append((a, b))
    gap = Fraction(0)
    for (a0, b0), (a1, b1) in zip(merged, merged[1:]):
        gap = max(gap, a1 - b0)
    wrap = merged[0][0] + period - merged[-1][1]
    return max(gap, wrap, Fraction(0))


def reference_split_mod(intervals, period):
    out = []
    for a, b in intervals:
        if b > period:
            out.append((a, period))
            out.append((Fraction(0), b - period))
        else:
            out.append((a, b))
    return out


def reference_latencies(schedule, instance, event_cap):
    """Per-site latencies, or raises what the original raised."""
    schedule = schedule.expanded(instance.metric)
    if not schedule.robots:
        raise UnvisitedSiteError(0)
    per_track = [reference_track_visits(t, instance) for t in schedule.robots]
    latencies, joint_events = [], 0
    for s in instance.sites:
        holders = [r for r, vis in enumerate(per_track) if vis[s]]
        if not holders:
            raise UnvisitedSiteError(s)
        total = reference_lcm([schedule.robots[r].period for r in holders])
        events = sum(
            int(total / schedule.robots[r].period) * len(per_track[r][s]) for r in holders
        )
        if events > event_cap:
            raise PeriodOverflowError(
                f"site {s} needs {events} visit events over the common period; "
                f"cap is {event_cap}"
            )
        joint_events += events if len(holders) > 1 else 0
        if joint_events > event_cap:
            raise PeriodOverflowError(f"jointly served sites up to site {s} need {joint_events} "
                                      f"visit events in total; cap is {event_cap}")
        intervals = []
        for r in holders:
            track = schedule.robots[r]
            reps = int(total / track.period)
            for a, b in per_track[r][s]:
                start = a % track.period  # the original: (a - t_first) % period
                length = b - a
                for rep in range(reps):
                    intervals.append(
                        (start + rep * track.period, start + rep * track.period + length)
                    )
        latencies.append(reference_max_gap(reference_split_mod(intervals, total), total))
    return latencies


def outcome(fn):
    try:
        return ("ok", fn())
    except PatrolError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "site", None))


def reference_json_dict(lats, weights, best):
    rows = [{"site": s, "latency": format_fraction(lat), "weight": format_fraction(w),
             "weighted": format_fraction(w * lat)} for s, (w, lat) in enumerate(zip(weights, lats))]
    return {"max_weighted": format_fraction(weights[best] * lats[best]), "argmax_site": best,
            "per_site": rows}


def assert_identical(schedule, instance):
    def new():
        rep = max_weighted_latency(schedule, instance)
        return (repr([row.latency for row in rep.per_site]), rep.max_weighted, rep.argmax_site,
                rep.to_json_dict())

    def old():
        lats = reference_latencies(schedule, instance, evaluate.DEFAULT_EVENT_CAP)
        weighted = [w * lat for w, lat in zip(instance.weights, lats)]
        best = max(instance.sites, key=lambda s: (weighted[s], -s))
        return repr(lats), weighted[best], best, reference_json_dict(lats, instance.weights, best)

    got, want = outcome(new), outcome(old)
    assert got == want, (schedule, instance)
    return got[0]


def test_evaluator_matches_original_on_seeded_grid():
    rng = random.Random(2005)
    kinds = {}
    for cases in (line_cases, euclidean_cases, matrix_cases):
        for schedule, inst in cases(rng):
            kind = assert_identical(schedule, inst)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert sum(kinds.values()) == 140
    # both the measured and the raising paths are exercised
    assert kinds["ok"] >= 30 and kinds["UnvisitedSiteError"] >= 30


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


def test_joint_sites_with_related_periods():
    for schedule, inst in joint_cases():
        assert assert_identical(schedule, inst) == "ok"
    inst = line_instance(range(11), [1] * 11)
    # periods 2:3:5 over overlapping ranges, and 1/2 : 1/3 on one span
    tracks = (zigzag(0, 6, 1), zigzag(2, 8, Fraction(3, 2), 1), zigzag(3, 10, Fraction(5, 2)))
    assert assert_identical(Schedule(tracks), inst) == "ok"
    half = track("1/2", (0, 0), ("1/4", "1/4"))
    third = track("1/3", ("1/7", 0), ("2/7", "1/7"))
    small = line_instance([0, Fraction(1, 8), Fraction(1, 7), Fraction(1, 4)], [1, 2, 3, 4])
    assert assert_identical(Schedule((half, third)), small) == "ok"
    assert assert_identical(Schedule((third, half, zigzag(0, Fraction(1, 4), 1))), small) == "ok"


def test_visit_at_end_of_period_and_full_period_track():
    inst = line_instance([0, 1, 2, 3], [1, 1, 2, 1])
    full = track(6, (1, 0), (4, 3), (7, 0))
    assert assert_identical(Schedule((full,)), inst) == "ok"
    waits = track(8, (0, SitePos(1)), (2, SitePos(1)), (3, SitePos(2)), (5, SitePos(3)))
    assert assert_identical(Schedule((waits, track(4, (3, SitePos(0))))), inst) == "ok"


def test_overflow_and_unvisited_paths(monkeypatch):
    inst = line_instance([0, 1, 2, 3, 4], [1] * 5)
    tracks = (zigzag(0, 3, 1), zigzag(1, 4, Fraction(7, 5)), zigzag(2, 4, Fraction(11, 13)))
    with monkeypatch.context() as patch:
        patch.setattr(evaluate, "DEFAULT_EVENT_CAP", 40)
        assert assert_identical(Schedule(tracks), inst) == "PeriodOverflowError"
    assert assert_identical(Schedule(tracks), inst) == "ok"
    # sites 1 and 3 are unvisited; site 1 is reported
    gappy = track(2, (0, SitePos(0)), (1, SitePos(0)))
    parked = (track(1, (0, SitePos(2))), track(1, (0, SitePos(4))))
    assert assert_identical(Schedule((gappy,) + parked), inst) == "UnvisitedSiteError"
    assert assert_identical(Schedule(()), inst) == "UnvisitedSiteError"
    # an overflowing site before an unvisited one raises the overflow
    wider = line_instance([0, 1, 2, 3, 4, 9], [1] * 6)
    monkeypatch.setattr(evaluate, "DEFAULT_EVENT_CAP", 40)
    got = assert_identical(Schedule(tracks + (gappy,)), wider)
    assert got == "PeriodOverflowError"


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
            kind = assert_identical(schedule, inst)
            if kind == "PeriodOverflowError":
                kind = outcome(lambda: max_weighted_latency(schedule, inst))[1].split(" ")[0]
            seen.add(kind)
    assert seen == {"site", "jointly", "ok", "UnvisitedSiteError"}, seen


def test_euclidean_tolerance_edges():
    offsets = [(0, 0), (5e-10, 0), (1e-9, 0), (1.5e-9, 0), (-1e-9, 0), (0, 1e-9), (7e-10, 7e-10)]
    # the doubles either side of 1e-9, along x and along a diagonal
    for off in (math.nextafter(1e-9, 0), math.nextafter(1e-9, 1)):
        offsets += [(off, 0), (off / math.sqrt(2), off / math.sqrt(2))]
    for x0 in (0.0, 2.5, 1e6):
        pts = [(x0 + dx, 1.0 + dy) for dx, dy in offsets]
        inst = euclidean_instance(pts, [1] * len(pts))
        for w in range(len(pts)):
            parked = track(3, (0, SitePos(w)))
            others = tuple(
                track(5, (1, SitePos(s)), (2, SitePos(s))) for s in range(len(pts)) if s != w
            )
            assert assert_identical(Schedule((parked,) + others), inst) == "ok"
            assert_identical(Schedule((parked,)), inst)
    # at 0 the x offsets are the distances: the first double past 1e-9 is out
    parked = Schedule((track(3, (0, SitePos(0))),))
    for off, kind in ((math.nextafter(1e-9, 0), "ok"), (math.nextafter(1e-9, 1), "UnvisitedSiteError")):
        inst = euclidean_instance([(0.0, 1.0), (off, 1.0)], [1, 1])
        assert assert_identical(parked, inst) == kind


# --- the integer time unit ---------------------------------------------------
#
# The evaluator works in one integer unit 1/U per evaluation.  The cases
# below make U grow through slow legs, edge positions and odd coordinate
# denominators, and put sites and legs exactly on and just past the 1e-9
# tolerance.


def reference_edge_distance(p, q, metric):
    """A leg's length off the line, on Fractions: a Euclidean distance is
    math.dist read through its repr, and EdgePos(a, b, f) lies f of the
    way from a to b."""
    def length(a, b):
        if metric.variant == "matrix":
            return metric.matrix[a][b]
        return Fraction(repr(math.dist(metric.points[a], metric.points[b])))

    if isinstance(p, SitePos) and isinstance(q, SitePos):
        return length(p.site, q.site)
    if isinstance(p, SitePos):
        p, q = q, p
    if isinstance(q, SitePos):
        return (p.frac if q.site == p.a else 1 - p.frac) * length(p.a, p.b)
    return abs(p.frac - q.frac) * length(p.a, p.b)


def reference_violations(schedule, instance):
    """The original validate_speed: each leg's Fraction distance against
    its duration plus the tolerance."""
    metric = instance.metric
    out = []
    for r, trk in enumerate(schedule.expanded(metric).robots):
        for leg, (t0, p0, t1, p1) in enumerate(trk.legs()):
            if metric.variant == "line":
                x0 = reference_line_coord(p0, metric)
                d = abs(reference_line_coord(p1, metric) - x0)
            else:
                d = reference_edge_distance(p0, p1, metric)
            if d > (t1 - t0) + TOL:
                out.append((r, leg, d, t1 - t0))
    return out


def assert_speed_identical(schedule, instance):
    got = [(v.robot, v.leg, v.distance, v.duration)
           for v in validate_speed(schedule, instance.metric)]
    assert repr(got) == repr(reference_violations(schedule, instance))
    return got


def test_slow_legs_with_prime_speed_denominators():
    # legs at speeds dx/dt = 2/3, 5/6, 7/8, 11/13, 11/12, 22/25, 15/16 and
    # 15/26: pass-through times fall on the grids 1/2, 1/5, 1/7, 1/11, 1/22
    # and 1/15, which the waypoint times alone do not give
    inst = line_instance(range(12), [1 + i % 3 for i in range(12)])
    a = track(42, (0, 0), (3, 2), (9, 7), (17, 0), (30, 11))
    b = track(42, (1, 11), (14, 0), (Fraction(53, 2), 11))
    c = track(14, (0, 3), (Fraction(16, 3), 8))  # speed 15/16
    for tracks in ((a,), (b,), (a, b), (a, b, c), (c, b)):
        schedule = Schedule(tracks)
        assert assert_speed_identical(schedule, inst) == []
        assert assert_identical(schedule, inst) in ("ok", "UnvisitedSiteError")
    assert assert_identical(Schedule((a, b, c)), inst) == "ok"


def test_edge_positions_on_the_line():
    inst = line_instance([0, 3, 10, Fraction(5, 2), 8], [1, 2, 3, 1, 2])
    quarter = EdgePos(0, 2, Fraction(1, 4))  # 2.5
    back = EdgePos(2, 1, Fraction(2, 7))  # 10 + 2/7 * (3 - 10) = 8, unnormalized
    third = EdgePos(1, 2, Fraction(1, 3))  # 3 + 7/3
    sweeps = (
        track(20, (0, SitePos(0)), (Fraction(5, 2), quarter), (8, back), (10, SitePos(2))),
        track(Fraction(31, 3), (1, third), (Fraction(19, 3), quarter), (8, SitePos(1))),
        track(13, (0, back), (2, back), (Fraction(15, 2), quarter)),
    )
    for k in range(1, 4):
        schedule = Schedule(sweeps[:k])
        assert assert_speed_identical(schedule, inst) == []
        assert assert_identical(schedule, inst) == "ok"


def test_coordinates_with_denominators_3_7_100():
    coords = [Fraction(1, 3), Fraction(2, 7), Fraction(101, 100), Fraction(2), Fraction(5, 3)]
    inst = line_instance(coords, [3, 1, 2, 1, 7])
    lo, hi = Fraction(2, 7), Fraction(2)
    span = hi - lo
    tracks = (
        track(2 * span, (0, lo), (span, hi)),
        track(3 * span, (Fraction(1, 100), hi), (2 * span + Fraction(1, 100), lo)),
        track(4, (0, Fraction(1, 3)), (1, Fraction(1, 3)), (Fraction(7, 3), Fraction(5, 3))),
    )
    for k in range(1, 4):
        schedule = Schedule(tracks[:k])
        assert assert_speed_identical(schedule, inst) == []
        assert assert_identical(schedule, inst) == "ok"


def test_visit_tolerance_boundary_in_the_integer_unit():
    for slow in (1, 3):  # a slow leg multiplies U by 3
        sweep = track(10 * slow, (0, 0), (5 * slow, 5))
        for edge in (5 + TOL, -TOL):
            inst = line_instance([0, 5, edge], [1, 1, 1])
            assert assert_identical(Schedule((sweep,)), inst) == "ok"
            rep = max_weighted_latency(Schedule((sweep,)), inst)
            assert rep.latency_of(2) == rep.latency_of(0 if edge < 0 else 1)
        for edge in (5 + TOL + TOL * TOL, -TOL - TOL * TOL):
            inst = line_instance([0, 5, edge], [1, 1, 1])
            assert assert_identical(Schedule((sweep,)), inst) == "UnvisitedSiteError"
            # a robot parked on the stray site measures it
            parked = track(1, (0, edge))
            assert assert_identical(Schedule((sweep, parked)), inst) == "ok"
    # with U = 3 the tolerance is floor(3e-9) = 0 units: a site 1/3 past the
    # end stays unvisited
    inst = line_instance([0, 5, Fraction(16, 3)], [1, 1, 1])
    assert assert_identical(Schedule((track(10, (0, 0), (5, 5)),)), inst) == "UnvisitedSiteError"


def test_speed_tolerance_boundary_in_the_integer_unit():
    inst = line_instance([0, 1], [1, 1])
    for duration in (1, Fraction(1, 3)):
        exact = track(2 * duration + 1, (0, 0), (duration, duration + TOL))
        assert assert_speed_identical(Schedule((exact,)), inst) == []
        over = track(2 * duration + 1, (0, 0), (duration, duration + TOL + TOL * TOL))
        got = assert_speed_identical(Schedule((over,)), inst)
        assert got == [(0, 0, duration + TOL + TOL * TOL, duration)]
    # with U = 3 the tolerance is 0 units: 1/3 too fast fails
    got = assert_speed_identical(Schedule((track(3, (0, 0), (1, Fraction(4, 3))),)), inst)
    assert got == [(0, 0, Fraction(4, 3), 1)]


def test_off_line_speed_tolerance_boundary():
    tiny = Fraction(1, 10**18)
    # (0,0) -> (3,4) is 5 long, (0,0) -> (1,1) is the repr of sqrt(2)
    for end, d in (((3.0, 4.0), Fraction(5)), ((1.0, 1.0), Fraction(repr(math.sqrt(2))))):
        inst = euclidean_instance([(0.0, 0.0), end], [1, 1])
        for duration, fails in ((d - TOL, False), (d - TOL - tiny, True), (d - TOL + tiny, False)):
            leg = track(20, (0, SitePos(0)), (duration, SitePos(1)))
            got = assert_speed_identical(Schedule((leg,)), inst)
            assert got == ([(0, 0, d, duration)] if fails else [])
    assert Fraction(5) - TOL == Fraction("4.999999999")
    # a matrix leg that ends 2/5 of the way along an edge of length 7/3
    inst = matrix_instance([[0, Fraction(7, 3)], [Fraction(7, 3), 0]], [1, 1])
    inside, d = EdgePos(0, 1, Fraction(2, 5)), Fraction(14, 15)
    for duration, fails in ((d - TOL, False), (d - TOL - tiny, True), (d - TOL + tiny, False)):
        leg = track(20, (0, SitePos(0)), (duration, inside))
        got = assert_speed_identical(Schedule((leg,)), inst)
        assert got == ([(0, 0, d, duration)] if fails else [])
        back = track(20, (0, inside), (duration, SitePos(0)))
        assert len(assert_speed_identical(Schedule((back,)), inst)) == fails


def test_joint_sites_with_coinciding_instants():
    inst = line_instance([0, 1, 2, 4], [1, 2, 1, 3])
    # same-phase zigzags pass every shared site at the same times; a half
    # span zigzag meets the full one at 0 and 2 in every common period
    full, again, half = zigzag(0, 4, 1), zigzag(0, 4, 1), zigzag(0, 2, 1)
    for robots in ((full, again), (full, half), (half, full, again), (full, zigzag(0, 2, 2))):
        assert assert_identical(Schedule(robots), inst) == "ok"


def test_joint_site_rest_straddles_the_common_period():
    inst = line_instance([0, 1, 2], [1, 1, 1])
    # rests on site 0 from 5 to 7 with period 6: each unrolled copy in the
    # common period 12 ends past the next multiple of 6, the last past 12
    rests = track(6, (1, 0), (3, 2), (5, 0))
    for robots in ((rests, zigzag(0, 2, 1)), (zigzag(0, 2, 1), rests),
                   (rests, zigzag(0, 1, 1, 1), zigzag(1, 2, Fraction(3, 2)))):
        assert assert_identical(Schedule(robots), inst) == "ok"


# --- per-site rows: ints in lowest terms, Fractions when read --------------


def test_rows_are_the_fraction_recomputation_in_lowest_terms():
    rng = random.Random(2206)
    measured = 0
    for cases in (line_cases, euclidean_cases, matrix_cases):
        for schedule, inst in cases(rng):
            # fractional weights exercise the cross-reduced product
            weights = tuple(Fraction(rng.randint(1, 30), rng.choice((1, 2, 3, 6, 7, 10, 49)))
                            for _ in inst.sites)
            inst = Instance(inst.metric, weights, kind=inst.kind)
            try:
                lats = reference_latencies(schedule, inst, evaluate.DEFAULT_EVENT_CAP)
            except PatrolError:
                continue
            rep = max_weighted_latency(schedule, inst)
            for s, row in enumerate(rep.per_site):
                lat, weighted = Fraction(lats[s]), weights[s] * lats[s]
                assert (row.site, row.weight) == (s, weights[s])
                assert (row.num, row.den) == (lat.numerator, lat.denominator)
                assert (row.wnum, row.wden) == (weighted.numerator, weighted.denominator)
                assert row.latency == lat and type(row.latency) is Fraction
                assert row.weighted == weighted and type(row.weighted) is Fraction
                assert rep.latency_of(s) == lat
            best = max(inst.sites, key=lambda s: (weights[s] * lats[s], -s))
            assert (rep.max_weighted, rep.argmax_site) == (weights[best] * lats[best], best)
            measured += 1
    assert measured >= 30


def test_rows_compare_by_value():
    inst = line_instance([0, 1, 2, 5], [1, Fraction(3, 2), 2, 1])
    schedule = Schedule((zigzag(0, 5, 1),))
    a, b = max_weighted_latency(schedule, inst), max_weighted_latency(schedule, inst)
    assert a.per_site == b.per_site and a == b
    assert a.per_site[1] == SiteLatency(1, Fraction(3, 2), 8, 1, 12, 1)
    assert a.per_site[1] != SiteLatency(1, Fraction(3, 2), 8, 1, 12, 2)
    assert len({a.per_site[1], b.per_site[1]}) == 1


def test_argmax_ties_go_to_the_smallest_site():
    # one zigzag over [0, 2] with period 4: latencies 4, 2, 4
    schedule = Schedule((zigzag(0, 2, 1),))
    for weights, site, top in (([1, 1, 1], 0, 4), ([1, 2, 1], 0, 4),
                               ([Fraction(1, 3), 2, 1], 1, 4), ([Fraction(1, 3), 6, 3], 1, 12),
                               ([Fraction(2, 7), Fraction(4, 7), Fraction(2, 7)], 0, Fraction(8, 7)),
                               ([1, Fraction(5, 2), Fraction(5, 4)], 1, 5)):
        rep = max_weighted_latency(schedule, line_instance([0, 1, 2], weights))
        assert (rep.argmax_site, rep.max_weighted) == (site, top), weights
    # every latency 0 (a robot parked on each site): site 0, max 0
    parked = Schedule(tuple(track(1, (0, SitePos(s))) for s in range(3)))
    rep = max_weighted_latency(parked, line_instance([0, 1, 2], [3, Fraction(1, 7), 5]))
    assert (rep.argmax_site, rep.max_weighted) == (0, 0)
    assert all((row.num, row.den, row.wnum, row.wden) == (0, 1, 0, 1) for row in rep.per_site)


def is_prime(n):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_distinct_large_prime_weight_denominators_stay_fast():
    rng = random.Random(300)
    primes, p = [], 10**18
    while len(primes) < 300:
        p += 1
        if is_prime(p):
            primes.append(p)
    weights = [Fraction(rng.randrange(1, q), q) for q in primes]
    inst = line_instance(range(300), weights)
    schedule = Schedule((zigzag(0, 299, 1), zigzag(100, 150, Fraction(1, 3), 7)))
    started = time.perf_counter()
    rep = max_weighted_latency(schedule, inst)
    assert time.perf_counter() - started < 0.5
    # latencies do not depend on the weights: read them at weight 1
    unit = max_weighted_latency(schedule, line_instance(range(300), [1] * 300))
    lats = [row.latency for row in unit.per_site]
    top = max(w * lat for w, lat in zip(weights, lats))
    assert rep.max_weighted == top
    assert rep.argmax_site == min(s for s in inst.sites if weights[s] * lats[s] == top)
    assert [row.weighted for row in rep.per_site] == [w * lat for w, lat in zip(weights, lats)]
