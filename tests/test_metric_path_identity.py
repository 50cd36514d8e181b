"""The one-implementation metric path against frozen copies and pins.

loop_track is the round-robin walk over one piece; the references below
are the separate closed-walk loop it replaced and the original
round-robin walk, so any change in a track's waypoints, period or wrap
shows up as a difference.  mst is one
Prim/Jarnik pass that keeps no edge list: repeated ids are pinned to
the Kruskal result, and its allocation peak is held far below the n^2/2
candidate list's.
"""

import random
import tracemalloc
from fractions import Fraction
from math import lcm

from patrol.generate import generate_instance
from patrol.instance import euclidean_instance, line_instance
from patrol.metric_core import Tree, mst
from patrol.schedule import (
    Position,
    RobotTrack,
    SitePos,
    expand_round_robin,
    loop_track,
    stationary_track,
)
from conftest import random_euclidean_instance, random_matrix_instance
from test_mst_identity import tolerance_matrix


def reference_loop_track(sites, metric):
    order = list(sites)
    t = Fraction(0)
    waypoints: list[tuple[Fraction, Position]] = [(t, SitePos(order[0]))]
    for a, b in zip(order, order[1:]):
        d = metric.distance(a, b)
        if d > 0:
            t += d
            waypoints.append((t, SitePos(b)))
    back = metric.distance(order[-1], order[0])
    period = t + back
    if period == 0:
        return stationary_track(SitePos(order[0]))
    if back == 0:  # the last site sits on the first, where the track wraps
        waypoints.pop()
    return RobotTrack(period, tuple(waypoints))


def reference_expand_round_robin(trees, metric):
    h = len(trees)
    counts = [len(paths) for paths in trees]
    rounds = h * lcm(*counts)
    idx = [0] * h
    t = Fraction(0)
    start = trees[0][0][0]
    pos = start
    waypoints = [(t, SitePos(start))]

    def advance(target):
        nonlocal t, pos
        step = metric.distance(pos, target)
        if step > 0:
            t += step
            waypoints.append((t, SitePos(target)))
        pos = target

    for r in range(rounds):
        i = r % h
        piece = trees[i][idx[i]]
        advance(piece[0])
        for v in piece[1:]:
            advance(v)
        idx[i] += 1
        if idx[i] == counts[i]:
            idx[i] = 0
    advance(start)
    period = t
    if period == 0:
        return RobotTrack(Fraction(1), (waypoints[0],))
    return RobotTrack(period, tuple(waypoints[:-1]) if waypoints[-1][0] == period else tuple(waypoints))


def loop_instances(rng):
    for seed in range(6):
        yield generate_instance("euclidean", rng.randint(1, 12), seed)
        yield generate_instance("clustered", rng.randint(1, 12), seed)
        yield generate_instance("line-weighted", rng.randint(1, 12), seed)
        yield random_matrix_instance(rng, rng.randint(1, 8))
        yield random_euclidean_instance(rng, rng.randint(1, 8))
    # coincident points, -0.0 among them
    yield euclidean_instance([(0.0, 0.0), (-0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)],
                             [1] * 5)
    yield line_instance([2, 0, 2, 0, 5], [1] * 5)
    yield tolerance_matrix()


def test_loop_track_matches_closed_walk_reference():
    rng = random.Random(13)
    cases = 0
    for inst in loop_instances(rng):
        for _ in range(40):
            # random orders with repeated sites, some starting and ending alike
            order = [rng.randrange(inst.n) for _ in range(rng.randint(1, 2 * inst.n + 1))]
            if rng.random() < 0.25:
                order.append(order[0])
            assert loop_track(order, inst.metric) == reference_loop_track(order, inst.metric)
            cases += 1
    assert cases == 33 * 40


def test_round_robin_walk_matches_original():
    rng = random.Random(17)
    cases = 0
    for inst in loop_instances(rng):
        for _ in range(20):
            trees = tuple(
                tuple(tuple(rng.randrange(inst.n) for _ in range(rng.randint(1, 4)))
                      for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            )
            got = expand_round_robin(trees, inst.metric)
            assert got == reference_expand_round_robin(trees, inst.metric), trees
            cases += 1
    assert cases == 33 * 20


def test_mst_repeated_ids_keep_kruskal_result():
    metric = line_instance([0, 1, 3], [1, 1, 1]).metric
    assert mst([0, 0, 1], metric) == Tree((0, 0, 1), ((0, 1, Fraction(1)),), Fraction(1))
    assert mst([2, 0, 2, 1, 0], metric) == Tree(
        (0, 0, 1, 2, 2), ((0, 1, Fraction(1)), (1, 2, Fraction(2))), Fraction(3))
    assert mst([3, 3], line_instance([0, 1, 3, 4], [1] * 4).metric).edges == ()


def test_mst_keeps_no_edge_list():
    inst = generate_instance("euclidean", 600, 1)
    sites = list(inst.sites)
    tracemalloc.start()
    try:
        tree = mst(sites, inst.metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tree.edges) == 599
    assert peak < 2 * 2**20  # the n^2/2 candidate list of Kruskal peaked at 17.9 MB
