"""max_weighted_latency off the line, against a brute-force visit-time unroll.

The unroll shares no code with patrol.evaluate, and reads no distance
through Metric: a Euclidean distance is math.dist read through its
repr, a matrix distance the entry itself.  On a matrix or Euclidean
metric a robot visits every site within 1e-9 of a waypoint's site at
the waypoint's time, and covers it while it rests there until the next
waypoint; a waypoint inside an edge visits nothing.  The unroll lists each site's visit intervals at absolute
times over [-H, 2H), H the lcm of the periods of the robots that visit
it, and its latency is the longest wait, after the end of a visit in
[0, H), until some visit reaches past that moment.
"""

import math
import random
from fractions import Fraction
from math import lcm

import pytest

from patrol.evaluate import max_weighted_latency
from patrol.fixtures import clustered_instance
from patrol.generate import generate_instance
from patrol.instance import euclidean_instance, matrix_instance
from patrol.metric_scheduler import baseline_cover_schedule, solve_metric
from patrol.schedule import EdgePos, RobotTrack, Schedule, SitePos
from conftest import random_matrix_instance

TOL = Fraction(1, 10**9)


def reference_distance(metric, a, b):
    if metric.variant == "matrix":
        return metric.matrix[a][b]
    return Fraction(repr(math.dist(metric.points[a], metric.points[b])))


def fraction_lcm(values):
    den = lcm(*(v.denominator for v in values))
    return Fraction(lcm(*(v.numerator * (den // v.denominator) for v in values)), den)


def leg_length(metric, p, q):
    """A move along one edge: EdgePos(a, b, f) lies f of the way from a to b."""
    if isinstance(p, SitePos) and isinstance(q, SitePos):
        return reference_distance(metric, p.site, q.site)
    if isinstance(p, SitePos):
        p, q = q, p
    edge = reference_distance(metric, p.a, p.b)
    if isinstance(q, EdgePos):
        assert (q.a, q.b) == (p.a, p.b)
        return abs(p.frac - q.frac) * edge
    assert q.site in (p.a, p.b)
    return (p.frac if q.site == p.a else 1 - p.frac) * edge


def one_period(track):
    """(t0, position, t1, next position) of each move or rest, the wrap included."""
    times = [t for t, _ in track.waypoints]
    places = [p for _, p in track.waypoints]
    steps = list(zip(times, places, times[1:], places[1:]))
    if times[-1] - times[0] < track.period:
        steps.append((times[-1], places[-1], times[0] + track.period, places[0]))
    return steps


def unrolled_latencies(schedule, instance):
    metric = instance.metric
    for track in schedule.robots:
        assert isinstance(track, RobotTrack)
        assert all(isinstance(p, (SitePos, EdgePos)) for _, p in track.waypoints)
        for t0, a, t1, b in one_period(track):  # unit speed, checked independently
            assert t1 - t0 >= leg_length(metric, a, b)
    latencies = []
    for s in instance.sites:
        near = {w for w in instance.sites if reference_distance(metric, w, s) <= TOL}
        visits = [(track, [(t0, t1 if a == b else t0) for t0, a, t1, b in one_period(track)
                           if isinstance(a, SitePos) and a.site in near])
                  for track in schedule.robots]
        visits = [(track, spans) for track, spans in visits if spans]
        assert visits, f"site {s} is never visited"
        H = fraction_lcm([track.period for track, _ in visits])
        intervals = []
        for track, spans in visits:
            P = track.period
            for m in range(-math.ceil(H / P) - 1, math.ceil(2 * H / P) + 1):
                intervals += [(a + m * P, b + m * P) for a, b in spans]
        assert len(intervals) < 20_000
        worst = Fraction(0)
        for _, end in intervals:
            if 0 <= end < H:
                wait = min(a - end for a, b in intervals if b > end)
                worst = max(worst, wait)
        latencies.append(worst)
    return latencies


def instances():
    rng = random.Random(8)
    for seed in range(4):
        n = rng.randint(2, 8)
        yield generate_instance("euclidean", n, 100 + seed)
        yield clustered_instance(n, gap=rng.choice((1, 3, 10)),
                                 weights=[rng.randint(1, 4) for _ in range(n)])
        yield random_matrix_instance(rng, rng.randint(2, 8), wchoices=(1, 2, 3))
    # coincident points: co-located visits, one robot parked per position
    yield euclidean_instance([(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 2.0)],
                             [1, 3, 2, 1, 4])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_metric_and_baseline_latencies_match_unroll(k):
    cases = 0
    for inst in instances():
        for solve in (solve_metric, baseline_cover_schedule):
            schedule = solve(inst, k).schedule
            report = max_weighted_latency(schedule, inst)
            expected = unrolled_latencies(schedule, inst)
            assert [row.latency for row in report.per_site] == expected
            assert [row.weighted for row in report.per_site] == [
                w * lat for w, lat in zip(inst.weights, expected)]
            assert report.max_weighted == max(w * lat for w, lat in zip(inst.weights, expected))
            cases += 1
    assert cases == 13 * 2


def site_track(period, *points):
    """RobotTrack from (time, position) pairs; a bare int is a site."""
    return RobotTrack(Fraction(period), tuple(
        (Fraction(t), SitePos(p) if isinstance(p, int) else p) for t, p in points))


def assert_matches_unroll(schedule, inst):
    report = max_weighted_latency(schedule, inst)
    expected = unrolled_latencies(schedule, inst)
    assert [row.latency for row in report.per_site] == expected
    assert report.max_weighted == max(w * lat for w, lat in zip(inst.weights, expected))
    return expected


def test_hand_made_joint_and_edge_schedules_match_unroll():
    # sites 2 and 3 are 1e-10 apart; 0-1 is 5 long, 1-2 4 and 0-2 3
    euclid = euclidean_instance([(0.0, 0.0), (3.0, 4.0), (3.0, 0.0), (3.0, 1e-10), (0.0, 8.0)],
                                [1, 2, 3, 1, 2])
    mid = EdgePos(1, 2, Fraction(1, 2))
    loop = site_track(12, (0, 0), (5, 1), (9, 2))
    # waits inside edge (1, 2), then rests on site 1
    edge = site_track(10, (1, 2), (3, mid), (4, mid), (6, 1), (7, 1))
    out = site_track(12, (2, 1), (7, 4))
    for robots in ((loop, edge, out), (edge, loop, out),
                   (loop, edge, out, site_track(10, (3, mid)))):
        assert_matches_unroll(Schedule(robots), euclid)
    # a cycle 0-1-2-3 with sides 2, 1, 2, 1; site 4 sits on site 2
    rows = [[0, 2, 3, 1, 3], [2, 0, 1, 3, 1], [3, 1, 0, 2, 0], [1, 3, 2, 0, 2], [3, 1, 0, 2, 0]]
    matrix = matrix_instance(rows, [1, 3, 2, 1, 2])
    cycle = site_track(6, (0, 0), (2, 1), (3, 2), (5, 3))
    halfway = site_track(4, (1, 1), (2, EdgePos(0, 1, Fraction(1, 2))))
    # rests on site 2 from 4 to 6 across its own period
    rests = site_track(5, (1, 2), (2, 1), (3, 2), (4, 2))
    for robots in ((cycle, halfway), (cycle, halfway, rests), (rests, cycle)):
        assert_matches_unroll(Schedule(robots), matrix)
