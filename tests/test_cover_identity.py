"""tree_cover against a frozen copy of its original search.

The original bisected the threshold B 120 times over [0, |MST|] and
rebuilt the whole candidate cover (components, walks, chopped trees) at
every probe.  The reference below keeps that code, self-contained apart
from mst, so any change in which cover tree_cover returns shows up as a
difference in trees, edges, lengths or max_length.  The extreme-magnitude
Euclidean instances (denominators up to 10^324, coincident points, -0.0)
check tree_cover's integer probes the same way.
"""

import random
from fractions import Fraction

import pytest

from patrol import metric_core
from patrol.generate import generate_instance
from patrol.instance import dump_instance, line_instance, matrix_instance
from patrol.metric_core import TREE_COVER_BETA, Tree, mst, tree_cover
from conftest import extreme_instances, random_matrix_instance


def reference_walk(vertices, edges, start, metric):
    adj = {v: [] for v in vertices}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    order, seen, stack = [], {start}, [start]
    while stack:
        v = stack.pop()
        order.append(v)
        for nb in reversed(sorted(adj[v])):
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return order


def reference_components(base, bound):
    root = {v: v for v in base.vertices}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for i, j, d in base.edges:
        if d <= bound:
            a, b = sorted((find(i), find(j)))
            root[b] = a
    groups = {}
    for v in sorted(base.vertices):
        groups.setdefault(find(v), []).append(v)
    return [groups[r] for r in sorted(groups)]


def reference_chop(order, bound, metric):
    runs, current, cur_len = [], [order[0]], Fraction(0)
    for a, b in zip(order, order[1:]):
        step = metric.distance(a, b)
        if cur_len + step > bound:
            runs.append(current)
            current, cur_len = [b], Fraction(0)
        else:
            current.append(b)
            cur_len += step
    runs.append(current)
    return runs


def reference_cover_at(base, bound, metric):
    pieces = []
    for comp in reference_components(base, bound):
        members = set(comp)
        comp_edges = [e for e in base.edges if e[0] in members and e[1] in members]
        walk = reference_walk(comp, comp_edges, comp[0], metric)
        for run in reference_chop(walk, TREE_COVER_BETA * bound, metric):
            edges = [(min(a, b), max(a, b), metric.distance(a, b)) for a, b in zip(run, run[1:])]
            pieces.append(Tree.build(sorted(run), edges))
    return pieces


def reference_tree_cover(sites, metric, t):
    base = mst(sites, metric)
    if t == 1 or len(base.vertices) == 1:
        return (base,), base.total_length

    def attempt(bound):
        pieces = reference_cover_at(base, bound, metric)
        return pieces if len(pieces) <= t else None

    best = attempt(Fraction(0))
    if best is None:
        lo, hi = Fraction(0), base.total_length
        best = attempt(hi)
        for _ in range(120):
            mid = (lo + hi) / 2
            got = attempt(mid)
            if got is None:
                lo = mid
            else:
                hi, best = mid, got
    return tuple(best), max(p.total_length for p in best)


def sweep_instances():
    rng = random.Random(2005)
    for seed in range(6):
        yield generate_instance("euclidean", rng.randint(2, 11), seed, wmax=1)
        yield generate_instance("line-uniform", rng.randint(2, 11), seed)
        yield generate_instance("line-weighted", rng.randint(2, 11), seed)
        yield random_matrix_instance(rng, rng.randint(2, 10))
        # coincident sites: zero-length steps and a threshold of 0
        coords = [rng.randint(0, 4) for _ in range(rng.randint(2, 10))]
        yield line_instance(coords, [1] * len(coords))
    yield generate_instance("clustered", 12, 0)
    yield generate_instance("ngon", 8, 0)  # many equal MST edges


def test_tree_cover_matches_original_bisection():
    rng = random.Random(7)
    cases = 0
    for inst in sweep_instances():
        subsets = [list(inst.sites)]
        for _ in range(2):
            subsets.append(sorted(rng.sample(range(inst.n), rng.randint(1, inst.n))))
        for sites in subsets:
            for t in range(1, 5):
                trees, max_length = reference_tree_cover(sites, inst.metric, t)
                cover = tree_cover(sites, inst.metric, t)
                assert cover.trees == trees
                assert [tr.edges for tr in cover.trees] == [tr.edges for tr in trees]
                assert cover.max_length == max_length
                cases += 1
    assert cases == 32 * 3 * 4


def hub_matrix(hub):
    """Valid within TRIANGLE_TOL: site 0 is within `hub` of all, the others
    1e-10 apart, so the MST walk's shortcuts exceed 4|MST| (|MST| = 0 when
    hub = 0) and even B = |MST| rejects."""
    data = [["0" if i == j else hub if 0 in (i, j) else "1e-10" for j in range(5)]
            for i in range(5)]
    return matrix_instance(data, [1] * 5).metric


def test_tree_cover_hard_cases_match_original_bisection():
    # acceptance is not monotone below the optimum here: B = 0.119|MST|
    # accepts with an 11.2222 cover, but the bisection's answer is larger
    metric = generate_instance("euclidean", 40, 4).metric
    sites = [0, 2, 3, 7, 9, 10, 13, 14, 15, 16, 18, 21, 23, 26, 27, 28, 32, 33, 37, 38]
    base = mst(sites, metric)
    early = reference_cover_at(base, Fraction(119, 1000) * base.total_length, metric)
    assert len(early) <= 3 and max(p.total_length for p in early) < Fraction(1123, 100)
    assert tree_cover(sites, metric, 3).max_length == Fraction(129453954924873113, 10**16)
    cases = [(sites, metric, 3)] + [(range(5), hub_matrix(hub), 4) for hub in ("0", "1e-12")]
    for case_sites, case_metric, t in cases:
        trees, max_length = reference_tree_cover(case_sites, case_metric, t)
        cover = tree_cover(case_sites, case_metric, t)
        assert cover.trees == trees
        assert [tr.edges for tr in cover.trees] == [tr.edges for tr in trees]
        assert cover.max_length == max_length


@pytest.mark.parametrize("hub", ["0", "1e-12"])
def test_tree_cover_falls_back_to_the_whole_walk(hub):
    # every B in [0, |MST|] cuts the walk 0-1-2-3-4 into at least 4 pieces
    # (4|MST| is below its 1e-10 steps), so for t = 2, 3 the original
    # bisection accepted nothing; the cover is one tree along the whole walk
    metric = hub_matrix(hub)
    base = mst(range(5), metric)
    assert 4 * base.total_length < Fraction("1e-10")
    assert len(reference_cover_at(base, base.total_length, metric)) == 4
    walk = reference_walk(base.vertices, base.edges, 0, metric)
    edges = [(min(a, b), max(a, b), metric.distance(a, b)) for a, b in zip(walk, walk[1:])]
    whole = Tree.build(sorted(walk), edges)
    for t in (2, 3):
        cover = tree_cover(range(5), metric, t)
        assert cover.trees == (whole,) and cover.trees[0].edges == whole.edges
        assert cover.max_length == whole.total_length == Fraction(hub) + 3 * Fraction("1e-10")


def test_tree_cover_search_cuts_only_unsettled_probes(monkeypatch):
    # the bisection makes about 120 probes, but a probe that an earlier cut
    # in its regime (the same kept MST edges) already settles costs no cut
    cuts = []
    cut_walk = metric_core._cut_walk

    def counted_cut_walk(*args):
        cuts.append(args)
        return cut_walk(*args)

    monkeypatch.setattr(metric_core, "_cut_walk", counted_cut_walk)
    instances = [generate_instance("euclidean", 12, seed, wmax=1) for seed in range(1, 15)]
    instances.append(generate_instance("clustered", 24, 0))
    total = 0
    for inst in instances:
        for t in (2, 3, 4):
            cuts.clear()
            tree_cover(inst.sites, inst.metric, t)
            assert 0 < len(cuts) <= 32, (inst.n, t, len(cuts))
            total += len(cuts)
    assert total == 466  # pinned: a wider or narrower settled range moves it


def test_tree_cover_threshold_zero():
    metric = line_instance([0, 0, 3, 3, 3], [1] * 5).metric
    cover = tree_cover(range(5), metric, 2)
    assert [tr.vertices for tr in cover.trees] == [(0, 1), (2, 3, 4)]
    assert cover.max_length == 0


def test_tree_cover_is_memoized_per_metric():
    inst = generate_instance("euclidean", 9, 4, wmax=1)
    fresh = generate_instance("euclidean", 9, 4, wmax=1)
    before = dump_instance(inst)
    assert inst.metric == fresh.metric and hash(inst.metric) == hash(fresh.metric)
    first = tree_cover([5, 1, 3, 7], inst.metric, 2)
    assert tree_cover([7, 5, 3, 1], inst.metric, 2) is first
    assert tree_cover([1, 3, 5, 7], inst.metric, 3) is not first
    assert inst.metric == fresh.metric and hash(inst.metric) == hash(fresh.metric)
    assert inst == fresh
    assert dump_instance(inst) == before
    assert repr(inst.metric) == repr(fresh.metric)
    # a structurally equal metric has its own memo but the same cover
    again = tree_cover([1, 3, 5, 7], fresh.metric, 2)
    assert again is not first and again == first


def test_tree_cover_rejects_t_zero():
    with pytest.raises(ValueError):
        tree_cover([0, 1], line_instance([0, 1], [1, 1]).metric, 0)


def test_integer_probes_on_extreme_magnitudes():
    rng = random.Random(300)
    cases = 0
    for inst in extreme_instances():
        subsets = [list(inst.sites)]
        for _ in range(2):
            subsets.append(sorted(rng.sample(range(inst.n), rng.randint(1, inst.n))))
        for sites in subsets:
            for t in range(1, 6):
                trees, max_length = reference_tree_cover(sites, inst.metric, t)
                cover = tree_cover(sites, inst.metric, t)
                assert [tr.edges for tr in cover.trees] == [tr.edges for tr in trees]
                assert cover.trees == trees
                assert cover.max_length == max_length
                cases += 1
    assert cases == 10 * 3 * 5
