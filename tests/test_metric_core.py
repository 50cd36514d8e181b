import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from patrol.instance import euclidean_instance, line_instance
from patrol.metric_core import Tour, mst, partition_tour, tree_cover, tree_to_tour
from patrol.oracles import exact_tree_cover
from conftest import random_euclidean_instance, random_line_instance


def line(coords):
    return line_instance(coords, [1] * len(coords)).metric


def spanning_tree_weights_by_enumeration(metric, n):
    """All labeled spanning trees on n vertices via their node sequences."""
    weights = []
    for seq in product(range(n), repeat=n - 2):  # Pruefer sequences
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        seq = list(seq)
        total = Fraction(0)
        avail = list(range(n))
        work = list(seq)
        degs = degree[:]
        while work:
            leaf = min(v for v in avail if degs[v] == 1)
            v = work.pop(0)
            total += metric.distance(leaf, v)
            degs[leaf] -= 1
            degs[v] -= 1
            avail.remove(leaf)
        a, b = [v for v in avail if degs[v] == 1]
        total += metric.distance(a, b)
        weights.append(total)
    return weights


def test_mst_line_path():
    t = mst([0, 1, 2], line([0, 1, 2]))
    assert t.edges == ((0, 1, 1), (1, 2, 1))
    assert t.total_length == 2


def test_mst_single_site():
    t = mst([3], line([0, 1, 2, 5]))
    assert t.vertices == (3,)
    assert t.total_length == 0


def test_mst_unit_square_matches_enumeration():
    inst = euclidean_instance([(0, 0), (1, 0), (1, 1), (0, 1)], [1] * 4)
    t = mst([0, 1, 2, 3], inst.metric)
    best = min(spanning_tree_weights_by_enumeration(inst.metric, 4))
    assert t.total_length == best == 3


def test_mst_empty_rejected():
    with pytest.raises(ValueError):
        mst([], line([0]))


def test_tree_cover_t1_is_mst():
    rng = random.Random(3)
    for _ in range(20):
        inst = random_euclidean_instance(rng, rng.randint(1, 8))
        sites = list(inst.sites)
        cover = tree_cover(sites, inst.metric, 1)
        assert cover.trees == (mst(sites, inst.metric),)


def test_tree_cover_line_example():
    metric = line(list(range(10)))
    cover = tree_cover(list(range(10)), metric, 3)
    assert len(cover.trees) <= 3
    assert cover.max_length <= 4 * 3
    assert exact_tree_cover(list(range(10)), metric, 3) == 3


def test_tree_cover_two_clusters():
    metric = line([0, "0.1", 10, "10.1"])
    cover = tree_cover([0, 1, 2, 3], metric, 2)
    groups = sorted(tuple(t.vertices) for t in cover.trees)
    assert groups == [(0, 1), (2, 3)]
    assert cover.max_length == Fraction(1, 10)
    assert exact_tree_cover([0, 1, 2, 3], metric, 2) == Fraction(1, 10)


def test_tree_cover_partition_and_ratio():
    rng = random.Random(17)
    for trial in range(60):
        build = random_euclidean_instance if trial % 2 else random_line_instance
        inst = build(rng, rng.randint(2, 10))
        t = rng.randint(1, 3)
        sites = list(inst.sites)
        cover = tree_cover(sites, inst.metric, t)
        assert len(cover.trees) <= t
        seen = sorted(v for tr in cover.trees for v in tr.vertices)
        assert seen == sites  # vertex-disjoint and covering
        for tr in cover.trees:
            assert tr.total_length == sum((e[2] for e in tr.edges), Fraction(0))
        assert cover.max_length <= 4 * exact_tree_cover(sites, inst.metric, t)


def test_tree_to_tour_path():
    metric = line([0, 1, 2])
    tour = tree_to_tour(mst([0, 1, 2], metric), 0, metric)
    assert tour.vertices == (0, 1, 2)
    assert tour.length == 2 <= 2 * 2


def test_tree_to_tour_single_vertex():
    metric = line([4])
    tour = tree_to_tour(mst([0], metric), 0, metric)
    assert tour.vertices == (0,)
    assert tour.length == 0


def test_tree_to_tour_star():
    # center 0 with three unit legs; leaf-to-leaf distance 2
    m = [[0, 1, 1, 1], [1, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
    from patrol.instance import matrix_instance

    inst = matrix_instance(m, [1] * 4)
    star = mst([0, 1, 2, 3], inst.metric)
    tour = tree_to_tour(star, 0, inst.metric)
    best_open = min(
        sum(inst.metric.distance(a, b) for a, b in zip((0,) + order, order))
        for order in permutations([1, 2, 3])
    )
    assert best_open <= tour.length <= 2 * star.total_length == 6


def test_tree_to_tour_bad_start():
    metric = line([0, 1])
    with pytest.raises(ValueError):
        tree_to_tour(mst([0, 1], metric), 5, metric)


def test_tree_to_tour_length_bound_random():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_euclidean_instance(rng, rng.randint(1, 9))
        tree = mst(list(inst.sites), inst.metric)
        tour = tree_to_tour(tree, min(tree.vertices), inst.metric)
        assert sorted(tour.vertices) == list(inst.sites)
        assert tour.length <= 2 * tree.total_length


def test_partition_zero_length_tour():
    metric = line([5])
    pieces = partition_tour(Tour((0,), Fraction(0)), Fraction(1), metric)
    assert len(pieces) == 1 and pieces[0].vertices == (0,)


def test_partition_tour_counts():
    metric = line([0, 2, 4, 6, 8, 10])
    tour = tree_to_tour(mst(list(range(6)), metric), 0, metric)
    assert tour.length == 10
    for delta in (Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError, match="delta must be positive"):
            partition_tour(tour, delta, metric)
    pieces = partition_tour(tour, Fraction(4), metric)
    assert len(pieces) <= 3  # ceil(10/4) <= ceil(2*|T|/delta)
    assert all(p.length <= 4 for p in pieces)
    assert [v for p in pieces for v in p.vertices] == list(tour.vertices)


def test_partition_tour_no_cut_needed():
    metric = line([0, 1, 3])
    tour = tree_to_tour(mst([0, 1, 2], metric), 0, metric)
    pieces = partition_tour(tour, Fraction(10), metric)
    assert len(pieces) == 1


def test_partition_tour_properties_random():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_euclidean_instance(rng, rng.randint(2, 9))
        tree = mst(list(inst.sites), inst.metric)
        tour = tree_to_tour(tree, min(tree.vertices), inst.metric)
        delta = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        pieces = partition_tour(tour, delta, inst.metric)
        assert [v for p in pieces for v in p.vertices] == list(tour.vertices)
        assert all(p.length <= delta for p in pieces)
        bound = -(-2 * tree.total_length // delta)  # ceil
        assert len(pieces) <= max(bound, 1)
