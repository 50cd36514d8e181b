"""The metric path computes each exact Euclidean distance, and each MST
over one site set, once per Metric.

Metric.distance converts a pair's math.dist double to a Fraction once and
keeps it in the metric's memo; mst keeps each sorted site tuple's tree
there; _closest_positive_distance reads the all-sites MST on Euclidean
and line metrics, which lower_bound_metric's cover then reuses.
"""

from fractions import Fraction

import pytest

import patrol.instance
from patrol import metric_core
from patrol.generate import generate_instance
from patrol.instance import Metric, euclidean_instance, line_instance, matrix_instance
from patrol.metric_core import mst
from patrol.metric_scheduler import (
    _closest_positive_distance,
    baseline_cover_schedule,
    lower_bound_metric,
    solve_metric,
)


def test_each_euclidean_pair_is_converted_once(monkeypatch):
    inst = generate_instance("euclidean", 14, 3)
    fresh = generate_instance("euclidean", 14, 3)
    conversions, pairs = [], set()
    convert, distance = patrol.instance.float_to_fraction, Metric.distance

    def counted_convert(value):
        conversions.append(value)
        return convert(value)

    def recorded_distance(self, i, j):
        pairs.add((min(i, j), max(i, j)))
        return distance(self, i, j)

    monkeypatch.setattr(patrol.instance, "float_to_fraction", counted_convert)
    monkeypatch.setattr(Metric, "distance", recorded_distance)
    got = [solve_metric(inst, 2, refine=True), baseline_cover_schedule(inst, 2)]
    assert 0 < len(conversions) == len(pairs) <= 14 * 15 // 2
    monkeypatch.undo()
    want = [solve_metric(fresh, 2, refine=True), baseline_cover_schedule(fresh, 2)]
    assert got == want


def test_mst_is_memoized_per_sorted_sites():
    inst = generate_instance("euclidean", 9, 4)
    fresh = generate_instance("euclidean", 9, 4)
    tree = mst([5, 1, 3, 7], inst.metric)
    assert mst((7, 5, 3, 1), inst.metric) is tree
    assert mst([1, 3, 5], inst.metric) is not tree
    assert mst([1, 3, 3, 5, 7], inst.metric) is not tree  # repeated ids are vertices
    again = mst([1, 3, 5, 7], fresh.metric)
    assert again is not tree and again == tree
    assert inst.metric == fresh.metric and hash(inst.metric) == hash(fresh.metric)
    assert repr(inst.metric) == repr(fresh.metric)


@pytest.mark.parametrize("inst", [
    generate_instance("euclidean", 12, 5),
    # coincident points, -0.0 and a subnormal gap among them
    euclidean_instance([(1.0, 2.0), (0.0, -0.0), (1.0, 2.0), (-0.0, 0.0), (5e-324, 0.0),
                        (3.0, 2.0)], [1, 2, 3, 4, 5, 6]),
    line_instance([2, 0, 2, 0, 5, 5, Fraction(7, 3)], [1, 2, 3, 4, 1, 2, 3]),
])
def test_closest_positive_distance_builds_the_mst_lower_bound_reuses(monkeypatch, inst):
    passes = []
    prim = metric_core._prim

    def counted_prim(sites, metric):
        passes.append(sites)
        return prim(sites, metric)

    monkeypatch.setattr(metric_core, "_prim", counted_prim)
    everyone = tuple(inst.sites)
    closest = _closest_positive_distance(inst)
    assert passes == [everyone]
    tree = mst(list(inst.sites), inst.metric)
    assert passes == [everyone]
    assert closest == min(d for _, _, d in tree.edges if d > 0)
    lower_bound_metric(inst, 2)  # its all-sites cover starts from the same tree
    assert passes.count(everyone) == 1


def test_matrix_zeros_that_are_not_transitive_keep_the_scan():
    # valid within TRIANGLE_TOL: d(0,2) = 1e-9 = d(0,1) + d(1,2) + TRIANGLE_TOL;
    # the MST joins all three by zero edges, yet d(0,2) is positive
    tiny = Fraction(1, 10**9)
    inst = matrix_instance([[0, 0, tiny], [0, 0, 0], [tiny, 0, 0]], [1, 1, 1])
    assert all(d == 0 for _, _, d in mst(inst.sites, inst.metric).edges)
    assert _closest_positive_distance(inst) == tiny


def test_lower_bound_is_memoized_per_instance_and_k():
    inst = generate_instance("clustered", 24, 0)
    fresh = generate_instance("clustered", 24, 0)
    first = lower_bound_metric(inst, 2)
    assert lower_bound_metric(inst, 2) is first
    other = lower_bound_metric(inst, 3)
    assert lower_bound_metric(inst, 3) is other
    assert inst._memo[("lower_bound", 2)] is first and inst._memo[("lower_bound", 3)] is other
    # an equal instance has its own memo and computes its own bound
    assert inst == fresh and ("lower_bound", 2) not in fresh._memo
    again = lower_bound_metric(fresh, 2)
    assert again == first and fresh._memo[("lower_bound", 2)] is again
