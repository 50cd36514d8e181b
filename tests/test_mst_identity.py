"""The metric pipeline's distance scans against frozen copies of their
exact Fraction originals.

mst runs one Prim pass keyed on the math.dist double (Euclidean) or
Metric.distance (line, matrix); _position_groups hashes positions (a
matrix is scanned); _closest_positive_distance reads the smallest
positive edge of the all-sites MST on Euclidean and line metrics and
scans every pair of a matrix.  The references below compute every
distance as a Fraction, as the originals did, so any change in edge
order, tie-breaking, grouping or the closest pair shows up as a
difference.  The extreme-magnitude
Euclidean instances (denominators up to 10^324, coincident points,
-0.0) also check tree_cover's integer probes against the original
Fraction bisection.
"""

import random
from fractions import Fraction

from patrol.fixtures import clustered_instance, ngon_instance
from patrol.generate import generate_instance
from patrol.instance import euclidean_instance, line_instance, matrix_instance
from patrol.metric_core import Tree, mst, tree_cover
from patrol.metric_scheduler import _closest_positive_distance, _position_groups
from conftest import random_matrix_instance
from test_cover_identity import reference_tree_cover


def reference_mst(sites, metric):
    sites = sorted(sites)
    if len(sites) == 1:
        return Tree.build(sites, [])
    cand = sorted(
        (metric.distance(a, b), a, b) for idx, a in enumerate(sites) for b in sites[idx + 1 :]
    )
    root = {v: v for v in sites}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    edges = []
    for d, a, b in cand:
        ra, rb = sorted((find(a), find(b)))
        if ra != rb:
            root[rb] = ra
            edges.append((a, b, d))
    return Tree.build(sites, edges)


def reference_position_groups(instance):
    reps = []
    for s in instance.sites:
        if not any(instance.metric.distance(s, r) == 0 for r in reps):
            reps.append(s)
    return reps


def reference_closest_positive_distance(instance):
    best = None
    for i in instance.sites:
        for j in range(i + 1, instance.n):
            d = instance.metric.distance(i, j)
            if d > 0 and (best is None or d < best):
                best = d
    return best


# doubles around the edges of the format: subnormals, -0.0, values that
# absorb a 1e-9 offset (1e15 +- 1e-9 == 1e15) or a 5e-324 one
EXTREME = (0.0, -0.0, 5e-324, 1e-323, 1e-300, 2e-300, 1e-300 + 5e-324, 3e-12, 6e-12,
           1.0, 1e15, 1e15 + 1e-9, 1e15 - 1e-9, 1e15 + 0.125, 1e15 + 0.25)


def extreme_instances():
    rng = random.Random(324)
    yield euclidean_instance([(x,) for x in EXTREME], [1] * len(EXTREME))
    yield euclidean_instance([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, 0.0),
                              (0.0, 5e-324), (5e-324, 5e-324)], [1] * 7)
    for _ in range(8):
        n, dim = rng.randint(2, 10), rng.randint(1, 3)
        pts = [tuple(rng.choice(EXTREME) for _ in range(dim)) for _ in range(n)]
        yield euclidean_instance(pts, [rng.randint(1, 4) for _ in range(n)])


def tolerance_matrix():
    # valid within TRIANGLE_TOL: d(0,2) = 1 > d(0,1) + d(1,2) = 1 - 1e-10
    near = Fraction("0.9999999999")
    return matrix_instance([[0, 0, 1], [0, 0, near], [1, near, 0]], [1, 1, 1])


def sweep_instances():
    rng = random.Random(2020)
    for seed in range(5):
        yield generate_instance("euclidean", rng.randint(2, 40), seed)
        yield generate_instance("clustered", rng.randint(2, 30), seed)
        yield generate_instance("line-weighted", rng.randint(2, 30), seed)
        # repeated coordinates: ties and zero-length edges
        n = rng.randint(2, 20)
        coords = [Fraction(rng.randint(0, 6), rng.choice((1, 3))) for _ in range(n)]
        yield line_instance(coords, [1] * n)
        yield random_matrix_instance(rng, rng.randint(2, 12))
    for n in (3, 8, 13, 24):
        yield ngon_instance(n)  # many near-equal edges
    yield clustered_instance(16, gap=Fraction(1, 3))
    # a grid with many exactly tied and coincident points
    yield euclidean_instance([(x % 3 / 10, x % 4 / 10) for x in range(14)], [1] * 14)
    yield tolerance_matrix()
    yield from extreme_instances()


def test_mst_matches_fraction_kruskal():
    rng = random.Random(11)
    cases = 0
    for inst in sweep_instances():
        subsets = [list(inst.sites)]
        for _ in range(3):
            subsets.append(rng.sample(range(inst.n), rng.randint(1, inst.n)))
        for sites in subsets:
            got, want = mst(sites, inst.metric), reference_mst(sites, inst.metric)
            assert got.edges == want.edges  # same edges, lengths and order
            assert got == want
            cases += 1
    assert cases == 4 * 42


def test_position_groups_and_closest_pair_match_fraction_scans():
    for inst in sweep_instances():
        assert _position_groups(inst) == reference_position_groups(inst)
        assert _closest_positive_distance(inst) == reference_closest_positive_distance(inst)


def test_coincidence_edge_cases():
    inst = euclidean_instance([(0.0, -0.0), (-0.0, 0.0), (5e-324, 0.0), (1e15, 1.0),
                               (1e15 + 1e-9, 1.0)], [1] * 5)
    assert _position_groups(inst) == [0, 2, 3]
    assert _closest_positive_distance(inst) == Fraction("5e-324")
    # a minimum over one site per position would miss d(1,2) here
    matrix = tolerance_matrix()
    assert _position_groups(matrix) == [0, 2]
    assert _closest_positive_distance(matrix) == Fraction("0.9999999999")
    assert _position_groups(line_instance([2, 0, 2, 0], [1] * 4)) == [0, 1]
    assert _closest_positive_distance(line_instance([1, 1], [1, 1])) is None


def test_integer_probes_on_extreme_magnitudes():
    rng = random.Random(300)
    cases = 0
    for inst in extreme_instances():
        subsets = [list(inst.sites)]
        for _ in range(2):
            subsets.append(sorted(rng.sample(range(inst.n), rng.randint(1, inst.n))))
        for sites in subsets:
            for t in range(1, 5):
                trees, max_length = reference_tree_cover(sites, inst.metric, t)
                cover = tree_cover(sites, inst.metric, t)
                assert [tr.edges for tr in cover.trees] == [tr.edges for tr in trees]
                assert cover.trees == trees
                assert cover.max_length == max_length
                cases += 1
    assert cases == 10 * 3 * 4
