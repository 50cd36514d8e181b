import random
from fractions import Fraction
from itertools import combinations

import pytest

from patrol.errors import ResourceLimitError
from patrol.evaluate import max_weighted_latency
from patrol.instance import line_instance
from patrol.metric_core import mst
from patrol.oracles import (
    enumerate_partitions,
    exact_interval_cover,
    exact_line_weighted_opt,
    exact_tree_cover,
)
from conftest import random_euclidean_instance, random_line_coords
from scenarios import (
    alternate_pairing_schedule,
    cooperative_hand_schedule,
    cooperative_line_instance,
    disjoint_zigzag_schedule,
)


def exhaustive_interval_cover(points, k):
    """Minimum max-span over contiguous splits into at most k groups."""
    pts = sorted(points)
    n = len(pts)
    if k >= n:
        return Fraction(0)
    best = None
    for cuts in combinations(range(1, n), k - 1):
        bounds = [0, *cuts, n]
        worst = max(pts[b - 1] - pts[a] for a, b in zip(bounds, bounds[1:]))
        if best is None or worst < best:
            best = worst
    return best


def test_interval_cover_examples():
    assert exact_interval_cover([0, 1, 2, 10], 2) == 2
    assert exact_interval_cover([3, 7, 9], 5) == 0
    assert exact_interval_cover([0, 5], 1) == 5


def test_interval_cover_matches_exhaustive():
    rng = random.Random(2)
    for _ in range(60):
        pts = random_line_coords(rng, rng.randint(1, 10))
        k = rng.randint(1, 4)
        assert exact_interval_cover(pts, k) == exhaustive_interval_cover(pts, k)


def test_interval_cover_budget():
    with pytest.raises(ResourceLimitError):
        exact_interval_cover(list(range(25)), 2)


def test_tree_cover_trivial_cases():
    metric = line_instance([0, 1, 5], [1, 1, 1]).metric
    assert exact_tree_cover([0, 1, 2], metric, 1) == mst([0, 1, 2], metric).total_length
    assert exact_tree_cover([0, 1, 2], metric, 3) == 0


def test_tree_cover_matches_partition_enumeration():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_euclidean_instance(rng, rng.randint(2, 7))
        sites = list(inst.sites)
        t = rng.randint(1, 3)
        via_dp = exact_tree_cover(sites, inst.metric, t)
        via_enum = min(
            max(mst(part, inst.metric).total_length for part in partition)
            for partition in enumerate_partitions(sites, t)
        )
        assert via_dp == via_enum


def test_oracle_bounds_never_exceed_measured_latency():
    rng = random.Random(13)
    from patrol.line_uniform import solve_line_uniform

    for _ in range(15):
        pts = random_line_coords(rng, rng.randint(2, 8))
        k = rng.randint(1, 3)
        inst = line_instance(pts, [1] * len(pts))
        rep = solve_line_uniform(inst, k)
        # a valid schedule's measured latency is at least the cover bound
        assert rep.measured_latency >= 2 * exact_interval_cover(pts, k) - 0


def test_fixture_schedules_reproduce_reference_values():
    inst = cooperative_line_instance()
    hand = max_weighted_latency(cooperative_hand_schedule(), inst)
    assert hand.max_weighted == 10
    disjoint = max_weighted_latency(disjoint_zigzag_schedule(), inst)
    assert disjoint.max_weighted == 24  # 8x at x=3
    alt = max_weighted_latency(alternate_pairing_schedule(), inst)
    assert alt.max_weighted == 12  # max(4x, 2x+2) at x=3


def test_fixture_formulas_generalize_over_x():
    for x in (2, 3, 4, 5, 7):
        inst = cooperative_line_instance(x=x)
        hand = max_weighted_latency(cooperative_hand_schedule(x=x), inst)
        assert hand.max_weighted == max(8, 4 * x - 2)
        disjoint = max_weighted_latency(disjoint_zigzag_schedule(x=x), inst)
        assert disjoint.max_weighted == 8 * x
        alt = max_weighted_latency(alternate_pairing_schedule(x=x), inst)
        assert alt.max_weighted == max(4 * x, 2 * x + 2)


def test_slotted_search_confirms_fixture_optimum():
    inst = cooperative_line_instance()
    lb, ub = exact_line_weighted_opt(inst, 2, granularity=1, upper_start=Fraction(12))
    assert ub == 10
    assert lb == 9


def test_slotted_search_tightens_with_granularity():
    inst = cooperative_line_instance()
    _, ub1 = exact_line_weighted_opt(inst, 2, granularity=1, upper_start=Fraction(12))
    lb2, ub2 = exact_line_weighted_opt(inst, 2, granularity=2, upper_start=Fraction(12))
    assert ub2 == ub1 == 10
    assert lb2 == Fraction(19, 2)  # closes in on 10 from below


def test_slotted_search_budget_guard():
    inst = line_instance([0, 1, 2, 3, 4], [1] * 5)
    with pytest.raises(ResourceLimitError):
        exact_line_weighted_opt(inst, 2)
    with pytest.raises(ResourceLimitError):
        exact_line_weighted_opt(cooperative_line_instance(), 5)


def test_slotted_search_single_point():
    inst = line_instance([2, 2], [1, 1])
    assert exact_line_weighted_opt(inst, 1) == (0, 0)


def test_budget_env_override(monkeypatch):
    inst = cooperative_line_instance()
    monkeypatch.setenv("PATROL_ORACLE_BUDGET_SECS", "0")
    with pytest.raises(ResourceLimitError, match="timed out"):
        exact_line_weighted_opt(inst, 2, upper_start=Fraction(12))


def test_budget_env_variable(monkeypatch):
    """The slotted-motion search reads PATROL_ORACLE_BUDGET_SECS when it
    starts; a value that is not a number fails that search alone."""
    inst = cooperative_line_instance()
    monkeypatch.setenv("PATROL_ORACLE_BUDGET_SECS", "0")
    with pytest.raises(ResourceLimitError, match="timed out"):
        exact_line_weighted_opt(inst, 2, upper_start=Fraction(12))
    for text in ("abc", "nan"):
        monkeypatch.setenv("PATROL_ORACLE_BUDGET_SECS", text)
        with pytest.raises(ValueError, match="PATROL_ORACLE_BUDGET_SECS"):
            exact_line_weighted_opt(inst, 2, upper_start=Fraction(12))
    assert exact_interval_cover([0, 1, 5], 2) == 1
