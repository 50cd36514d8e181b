"""max_weighted_latency off the line, against a brute-force visit-time unroll.

The unroll shares no code with patrol.evaluate, and reads no distance
through Metric: a Euclidean distance is math.dist read through its
repr, a matrix distance the entry itself.  On a matrix or Euclidean
metric a robot visits every site within 1e-9 of a waypoint's site at
the waypoint's time, and covers it while it rests there until the next
waypoint.  The unroll lists each site's visit intervals at absolute
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
from patrol.instance import euclidean_instance
from patrol.metric_scheduler import baseline_cover_schedule, solve_metric
from patrol.schedule import RobotTrack, SitePos
from conftest import random_matrix_instance

TOL = Fraction(1, 10**9)


def reference_distance(metric, a, b):
    if metric.variant == "matrix":
        return metric.matrix[a][b]
    return Fraction(repr(math.dist(metric.points[a], metric.points[b])))


def fraction_lcm(values):
    den = lcm(*(v.denominator for v in values))
    return Fraction(lcm(*(v.numerator * (den // v.denominator) for v in values)), den)


def one_period(track):
    """(t0, site, t1, next site) of each move or rest, the wrap included."""
    times = [t for t, _ in track.waypoints]
    sites = [p.site for _, p in track.waypoints]
    steps = list(zip(times, sites, times[1:], sites[1:]))
    if times[-1] - times[0] < track.period:
        steps.append((times[-1], sites[-1], times[0] + track.period, sites[0]))
    return steps


def unrolled_latencies(schedule, instance):
    metric = instance.metric
    for track in schedule.robots:
        assert isinstance(track, RobotTrack)
        assert all(isinstance(p, SitePos) for _, p in track.waypoints)
        for t0, a, t1, b in one_period(track):  # unit speed, checked independently
            assert t1 - t0 >= reference_distance(metric, a, b)
    latencies = []
    for s in instance.sites:
        near = {w for w in instance.sites if reference_distance(metric, w, s) <= TOL}
        visits = [(track, [(t0, t1 if a == b else t0) for t0, a, t1, b in one_period(track)
                           if a in near])
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
