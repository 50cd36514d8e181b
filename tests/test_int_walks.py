"""The metric path's int walk sums against frozen Fraction copies.

Tree.build, _walk_lengths (with tree_to_tour and partition_tour on top
of it) and expand_round_robin sum their step lengths as ints over the
lcm of the denominators.  The references below are the Fraction sums
they replaced, so any change in a tree's length, a tour's or piece's
length, where a tour is cut, or a track's waypoint times and period
shows up as a difference.
"""

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm

from patrol.generate import generate_instance
from patrol.instance import line_instance, matrix_instance
from patrol.metric_core import (
    Tour,
    Tree,
    _adjacency,
    _preorder,
    _walk_lengths,
    mst,
    partition_tour,
    tree_cover,
    tree_to_tour,
)
from patrol.schedule import RobotTrack, SitePos, expand_round_robin
from conftest import random_matrix_instance


def frozen_tree_build(vertices, edges):
    return Tree(tuple(vertices), tuple(edges), sum((e[2] for e in edges), Fraction(0)))


def frozen_walk_lengths(order, metric):
    steps = [metric.distance(a, b) for a, b in zip(order, order[1:])]
    return steps, list(accumulate(steps, initial=Fraction(0)))


def frozen_tree_to_tour(tree, start, metric):
    order = _preorder(_adjacency(tree.vertices, tree.edges), start)
    return Tour(order, frozen_walk_lengths(order, metric)[1][-1])


def frozen_cut_walk(prefix, cap):
    pieces, first = [], 0
    while first < len(prefix):
        last = bisect_right(prefix, prefix[first] + cap, first) - 1
        pieces.append((first, last))
        first = last + 1
    return pieces


def frozen_partition_tour(tour, delta, metric):
    _, prefix = frozen_walk_lengths(tour.vertices, metric)
    return [
        Tour(tour.vertices[first : last + 1], prefix[last] - prefix[first])
        for first, last in frozen_cut_walk(prefix, delta)
    ]


def frozen_expand_round_robin(trees, metric):
    h = len(trees)
    rounds = h * lcm(*(len(paths) for paths in trees))
    start = trees[0][0][0]
    walk = chain.from_iterable(trees[r % h][r // h % len(trees[r % h])] for r in range(rounds))
    t, pos = Fraction(0), start
    waypoints = [(t, SitePos(start))]
    for v in chain(walk, (start,)):
        step = metric.distance(pos, v)
        if step > 0:
            t += step
            waypoints.append((t, SitePos(v)))
        pos = v
    if t == 0:
        return RobotTrack(Fraction(1), (waypoints[0],))
    return RobotTrack(t, tuple(waypoints[:-1]))


def walk_instances(rng):
    for seed in range(4):
        yield generate_instance("euclidean", rng.randint(2, 12), seed)
        yield generate_instance("line-weighted", rng.randint(2, 10), seed)
        yield random_matrix_instance(rng, rng.randint(2, 9))
        # coincident coordinates: zero-length steps
        coords = [Fraction(rng.randint(0, 6), rng.choice([1, 3, 4])) for _ in range(rng.randint(2, 9))]
        yield line_instance(coords, [1] * len(coords))
    # zero and tiny distances, with prime denominators
    tiny = Fraction(1, 7)
    yield matrix_instance([[0, 0, tiny, 1], [0, 0, tiny, 1], [tiny, tiny, 0, Fraction(6, 7)],
                           [1, 1, Fraction(6, 7), 0]], [1] * 4)
    yield generate_instance("clustered", 12, 0)


def trees_of(rng, inst):
    """The all-sites MST, a random subset's, and every tree of a 2- and 3-cover."""
    trees = [mst(inst.sites, inst.metric),
             mst(rng.sample(range(inst.n), rng.randint(1, inst.n)), inst.metric)]
    for t in (2, 3):
        trees += tree_cover(inst.sites, inst.metric, t).trees
    return trees


def deltas_for(rng, tour, M):
    """Positive deltas: one that equals a piece's length exactly (the
    floor(delta * M) edge), one whose denominator is prime to M, and a
    few fractions of the tour's length."""
    deltas = [tour.length, tour.length / 3, tour.length / 7 + Fraction(1, 10**9)]
    prime = next(p for p in (10007, 10009, 10037) if M % p)
    deltas.append(Fraction(rng.randint(1, 10**6), prime) * (tour.length or 1) / 10**5)
    return [d for d in deltas if d > 0]


def test_tree_build_sums_like_fractions():
    rng = random.Random(31)
    cases = 0
    for inst in walk_instances(rng):
        for tree in trees_of(rng, inst):
            built = Tree.build(tree.vertices, tree.edges)
            assert built == frozen_tree_build(tree.vertices, tree.edges)
            assert type(built.total_length) is Fraction
            cases += 1
    assert Tree.build([3], []) == frozen_tree_build([3], [])
    assert cases > 100


def test_walks_tours_and_pieces_match_fraction_sums():
    rng = random.Random(37)
    exact_edges = 0
    for inst in walk_instances(rng):
        metric = inst.metric
        for tree in trees_of(rng, inst):
            for start in sorted({min(tree.vertices), rng.choice(tree.vertices)}):
                tour = tree_to_tour(tree, start, metric)
                assert tour == frozen_tree_to_tour(tree, start, metric)
                assert type(tour.length) is Fraction
                M, prefix = _walk_lengths(tour.vertices, metric)
                assert [Fraction(x, M) for x in prefix] == frozen_walk_lengths(tour.vertices, metric)[1]
                deltas = deltas_for(rng, tour, M)
                # a delta equal to the walk's length up to some vertex: the
                # first piece ends exactly on delta
                for i in range(1, len(prefix)):
                    if prefix[i] > 0:
                        deltas.append(Fraction(prefix[i], M))
                        break
                for delta in deltas:
                    pieces = partition_tour(tour, delta, metric)
                    assert pieces == frozen_partition_tour(tour, delta, metric), (tour, delta)
                    assert all(type(p.length) is Fraction for p in pieces)
                    exact_edges += any(p.length == delta for p in pieces)
    assert exact_edges > 50


def test_round_robin_times_match_fraction_sums():
    rng = random.Random(41)
    cases = 0
    for inst in walk_instances(rng):
        metric = inst.metric
        for _ in range(10):
            # the pieces single_robot_schedule walks, plus repeated sites
            trees = []
            for tree in rng.sample(trees_of(rng, inst), rng.randint(1, 3)):
                tour = tree_to_tour(tree, min(tree.vertices), metric)
                delta = tour.length / rng.randint(1, 4) or Fraction(1)
                trees.append(tuple(p.vertices for p in partition_tour(tour, delta, metric)))
            if rng.random() < 0.3:
                site = rng.randrange(inst.n)
                trees.append(((site, site), (site,)))
            got = expand_round_robin(trees, metric)
            assert got == frozen_expand_round_robin(trees, metric), trees
            assert type(got.period) is Fraction
            assert all(type(t) is Fraction for t, _ in got.waypoints)
            cases += 1
    # every step zero: a stationary track
    metric = line_instance([2, 2, 2], [1] * 3).metric
    assert expand_round_robin([[(0, 1), (2,)]], metric) == frozen_expand_round_robin(
        [[(0, 1), (2,)]], metric)
    assert cases == 18 * 10
