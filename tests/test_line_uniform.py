import random
from fractions import Fraction

import pytest

from patrol.errors import IncompatibleAlgorithmError
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import line_instance
from patrol.line_uniform import (
    min_interval_cover,
    single_zigzag_value,
    solve_line_single_weighted,
    solve_line_uniform,
)
from patrol.oracles import exact_interval_cover
from patrol.schedule import Schedule, zigzag_track
from conftest import random_line_coords, random_line_instance


def test_cover_example():
    cover = min_interval_cover([0, 1, 2, 10], 2)
    assert cover.max_length == 2
    assert cover.intervals == ((Fraction(0), Fraction(2)), (Fraction(10), Fraction(10)))


def test_cover_one_interval_per_point():
    cover = min_interval_cover([4, 7, 9], 3)
    assert cover.max_length == 0


def test_cover_single_interval():
    assert min_interval_cover([0, 5], 1).max_length == 5


def test_cover_disjoint_sorted_and_exact():
    rng = random.Random(21)
    for _ in range(80):
        pts = random_line_coords(rng, rng.randint(1, 12))
        k = rng.randint(1, 4)
        cover = min_interval_cover(pts, k)
        assert cover.max_length == exact_interval_cover(pts, k)
        assert len(cover.intervals) <= k
        for (a1, b1), (a2, b2) in zip(cover.intervals, cover.intervals[1:]):
            assert b1 < a2  # pairwise disjoint, sorted
        for p in pts:
            assert sum(a <= p <= b for a, b in cover.intervals) == 1


def test_uniform_example():
    inst = line_instance([0, 1, 2, 10], [1, 1, 1, 1])
    rep = solve_line_uniform(inst, 2)
    assert rep.measured_latency == 4
    assert rep.ratio == 1


def test_uniform_one_robot_per_site():
    inst = line_instance([3, 8, 11], [2, 2, 2])
    rep = solve_line_uniform(inst, 3)
    assert rep.measured_latency == 0


def test_uniform_forced_round_trip():
    inst = line_instance([0, 10], [1, 1])
    rep = solve_line_uniform(inst, 1)
    assert rep.measured_latency == 20


def test_uniform_requires_line_and_uniform():
    with pytest.raises(IncompatibleAlgorithmError):
        solve_line_uniform(line_instance([0, 1], [1, 2]), 1)
    from conftest import random_euclidean_instance

    rng = random.Random(0)
    with pytest.raises(IncompatibleAlgorithmError):
        solve_line_uniform(random_euclidean_instance(rng, 3, wchoices=(1,)), 1)


def test_uniform_matches_oracle_and_weights_scale():
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        w = rng.choice([1, 2, Fraction(1, 2)])
        inst = line_instance(random_line_coords(rng, n), [w] * n)
        rep = solve_line_uniform(inst, k)
        assert rep.measured_latency == 2 * w * exact_interval_cover(
            inst.metric.coords, k
        )


def test_uniform_zigzags_stay_inside_their_intervals():
    rng = random.Random(41)
    for _ in range(30):
        inst = random_line_instance(rng, rng.randint(2, 10))
        k = rng.randint(1, 3)
        rep = solve_line_uniform(inst, k)
        cover = min_interval_cover(inst.metric.coords, k)
        for track, (a, b) in zip(rep.schedule.robots, cover.intervals):
            for _, pos in track.waypoints:
                assert a <= pos.x <= b


def test_zigzag_interior_latency_formula():
    rng = random.Random(43)
    for _ in range(25):
        pts = random_line_coords(rng, rng.randint(2, 8))
        inst = line_instance(pts, [1] * len(pts))
        left, right = min(pts), max(pts)
        rep = max_weighted_latency(
            Schedule((zigzag_track(left, right),)), inst
        )
        for s, p in enumerate(pts):
            expect = 2 * max(p - left, right - p)
            assert rep.latency_of(s) == expect


def test_k_below_one_is_rejected():
    inst = line_instance([0, 1, 3], [1, 1, 1])
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be positive$"):
            min_interval_cover([0, 1, 3], k)
        with pytest.raises(ValueError, match="^k must be positive$"):
            solve_line_uniform(inst, k)


def test_single_weighted_examples():
    assert solve_line_single_weighted(line_instance([0, 10], [1, 1])).measured_latency == 20
    rep = solve_line_single_weighted(line_instance([0, 4, 10], [1, 2, 1]))
    assert rep.measured_latency == 24  # max(20, 2*2*6, 20)
    assert rep.k == 1 and len(rep.schedule.robots) == 1
    assert solve_line_single_weighted(line_instance([5], [3])).measured_latency == 0


def test_single_weighted_formula_matches_evaluator():
    rng = random.Random(47)
    for _ in range(100):
        inst = random_line_instance(rng, rng.randint(1, 10), uniform=False, wmax=8)
        rep = solve_line_single_weighted(inst)
        assert validate_speed(rep.schedule, inst.metric) == []
        assert rep.measured_latency == single_zigzag_value(inst)
