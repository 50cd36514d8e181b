"""Graph primitives on the site metric.

Minimum spanning trees, tree-to-tour doubling with shortcuts, tour
partitioning, and an approximate min-max tree cover.  Everything here
is deterministic: ties break on the lowest site-index pair, so repeated
runs produce identical structures.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import dist
from typing import Optional, Sequence

from .instance import Metric
from .rationals import on_common_denominator, smallest_accepted

TREE_COVER_BETA = 4  # approximation factor of tree_cover, used by all thresholds


@dataclass(frozen=True)
class Tree:
    """A tree over a subset of sites; total_length is the sum of edge lengths."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, Fraction], ...]
    total_length: Fraction

    @staticmethod
    def build(vertices: Sequence[int], edges: Sequence[tuple[int, int, Fraction]]) -> "Tree":
        """The lengths are summed as ints over their common denominator."""
        M, lengths = on_common_denominator([e[2] for e in edges])
        return Tree(tuple(vertices), tuple(edges), Fraction(sum(lengths), M))


def _adjacency(vertices: Sequence[int], edges: Sequence[tuple[int, int, Fraction]]
               ) -> dict[int, list[int]]:
    """Each vertex's sorted neighbours along the edges."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    for v in adj:
        adj[v].sort()
    return adj


@dataclass(frozen=True)
class Tour:
    """An open walk visiting each of its vertices once (a whole tour, or a
    contiguous piece of one)."""

    vertices: tuple[int, ...]
    length: Fraction


@dataclass(frozen=True)
class TreeCover:
    trees: tuple[Tree, ...]
    max_length: Fraction


def mst(sites: Sequence[int], metric: Metric) -> Tree:
    """Minimum spanning tree of the complete graph induced by the metric.

    Edges are ordered by (length, i, j) with i < j, a strict total order
    (so the tree is unique and deterministic even when distances tie,
    including distance 0).  Lengths are compared on a key bound once per
    pass: Metric.distance on line and matrix metrics, and on Euclidean
    ones the math.dist double itself.  Its order, ties included, is
    exactly that of the length: Metric.distance reads a double x through
    its shortest round-tripping repr, and that read is strictly
    increasing in x, since for doubles x < y every decimal that rounds
    to x lies below every decimal that rounds to y (round-to-nearest is
    monotone), so repr(x) < repr(y) as exact decimals, while equal
    doubles give equal reprs.  One O(n^2) Prim/Jarnik pass from the
    lowest site keeps only each outside site's cheapest edge into the
    tree; the n - 1 chosen edges come back in that order, and only they
    get an exact length.  Repeated ids are spanned once: vertices is the
    sorted input, edges join its distinct ids.  Each sorted site tuple's
    tree is computed once per Metric and kept in its private memo, so
    repeated calls return the same Tree object.
    """
    sites = tuple(sorted(sites))
    if not sites:
        raise ValueError("mst of an empty site set")
    memo_key = (sites, "mst")
    tree = metric._memo.get(memo_key)
    if tree is None:  # setdefault: threads racing here all get one object
        tree = metric._memo.setdefault(memo_key, _prim(sites, metric))
    return tree


def _prim(sites: tuple[int, ...], metric: Metric) -> Tree:
    """mst without the memo, over sorted non-empty sites."""
    if metric.variant == "euclidean":
        points = metric.points

        def keys(v: int, ws) -> list:
            p = points[v]
            return [dist(p, points[w]) for w in ws]
    else:
        key = metric.distance

        def keys(v: int, ws) -> list:
            return [key(v, w) for w in ws]
    root, *rest = dict.fromkeys(sites)
    best = {v: (d, root, v) for v, d in zip(rest, keys(root, rest))}  # cheapest edge into the tree
    chosen = []
    while best:
        v = min(best, key=best.__getitem__)
        chosen.append(best.pop(v))
        for (w, edge), d in zip(best.items(), keys(v, best)):  # keys are symmetric
            if d <= edge[0]:
                cand = (d, v, w) if v < w else (d, w, v)
                if cand < edge:
                    best[w] = cand
    chosen.sort()
    return Tree.build(sites, [(a, b, metric.distance(a, b)) for _, a, b in chosen])


def _preorder(adj: dict[int, list[int]], start: int) -> tuple[int, ...]:
    """Depth-first preorder of start's component in a forest given by its
    adjacency, lowest-index child first."""
    order: list[int] = []
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        order.append(v)
        for nb in reversed(adj[v]):  # visit lowest-index child first
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return tuple(order)


def _walk_lengths(order: Sequence[int], metric: Metric) -> tuple[int, list[int]]:
    """(M, prefix): the prefix sums (starting at 0) of a vertex walk's step
    lengths, as ints in units of 1/M, M the lcm of the steps' denominators."""
    M, steps = on_common_denominator([metric.distance(a, b) for a, b in zip(order, order[1:])])
    return M, list(accumulate(steps, initial=0))


def tree_to_tour(tree: Tree, start: int, metric: Metric) -> Tour:
    """Open tour over the tree's vertices via a depth-first preorder walk.

    Doubling every tree edge gives a closed walk of length 2|T|; taking
    vertices in first-visit order and shortcutting only shrinks it, so
    the open tour has length at most 2|T|.
    """
    if start not in tree.vertices:
        raise ValueError(f"start {start} is not a vertex of the tree")
    order = _preorder(_adjacency(tree.vertices, tree.edges), start)
    M, prefix = _walk_lengths(order, metric)
    return Tour(order, Fraction(prefix[-1], M))


def _cut_walk(prefix: Sequence[int], cap: int, limit=None) -> list[tuple[int, int]]:
    """The one cut rule, for a walk with prefix lengths `prefix` (steps are
    non-negative): greedy pieces of length <= cap, dropping the step across
    each cut.  cap may be 0, keeping only zero-length steps in a piece.
    Returns each piece's (first, last) vertex index; stops at limit+1."""
    pieces: list[tuple[int, int]] = []
    first = 0
    while first < len(prefix) and (limit is None or len(pieces) <= limit):
        last = bisect_right(prefix, prefix[first] + cap, first) - 1
        pieces.append((first, last))
        first = last + 1
    return pieces


def partition_tour(tour: Tour, delta: Fraction, metric: Metric) -> list[Tour]:
    """Split a tour into consecutive pieces of length <= delta.

    Cuts happen between sites; the tour edge crossing a cut is dropped
    (the boundary site stays with the earlier piece).  Each cut is made
    only when extending would exceed delta, so piece j plus its dropped
    edge sum to more than delta; hence at most ceil(len/delta) pieces.
    The walk's prefix lengths are ints in units of 1/M, and a piece of
    x/M fits under delta exactly when x <= floor(delta * M), so the cut
    runs on that int cap.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    M, prefix = _walk_lengths(tour.vertices, metric)
    return [
        Tour(tour.vertices[first : last + 1], Fraction(prefix[last] - prefix[first], M))
        for first, last in _cut_walk(prefix, delta.numerator * M // delta.denominator)
    ]


def tree_cover(sites: Sequence[int], metric: Metric, t: int) -> TreeCover:
    """At most t vertex-disjoint trees covering the sites, with max total
    edge length at most beta=4 times the optimal t-cover value.

    The scheme: for a threshold B, delete MST edges longer than B and
    chop each remaining fragment's walk into pieces of length <= 4B; B is
    accepted when that leaves at most t pieces.  Every B at or above the
    optimum is accepted, but acceptance is not monotone below it, so the
    bisection need not find the smallest accepted B.  What holds is that
    its B is accepted and its predecessor on the search grid is not, so
    B < optimum + |MST| / 2^120 and every piece is at most 4B: 4 times
    the optimum, up to that grid step.  The bisection's own decisions
    define the cover; a probe whose answer earlier cuts already settle
    costs no cut (see _search_cover).  Each distinct
    (sorted sites, t) is computed once per Metric and kept in its private
    memo, so repeated calls return the same TreeCover object.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    key = (tuple(sorted(set(sites))), t)
    cover = metric._memo.get(key)
    if cover is None:  # setdefault: threads racing here all get one object
        cover = metric._memo.setdefault(key, _search_cover(key[0], metric, t))
    return cover


def _search_cover(sites: Sequence[int], metric: Metric, t: int) -> TreeCover:
    """tree_cover without the memo: B = |MST| * j / 2^120 for j in
    [0, 2^120], probing j = 0 first and then bisecting [1, 2^120]: the 120
    halvings of [0, |MST|].  The j found is accepted and j - 1 is not (or
    j = 0); a smaller j may still be accepted, since acceptance is not
    monotone below the optimum.

    A probe runs on integers.  With |MST| = P/Q, an MST edge of length l
    is kept (l <= B) iff j >= ceil(l * Q * 2^120 / P), so the kept count is
    one bisect over those thresholds, and more than t components reject
    the probe at once.  Each kept count's walks are built once, with
    prefix lengths in units of 1/M (M the lcm of the step denominators),
    and are cut at floor(4 * B * M), which keeps the same vertices as the
    exact cap 4B.

    A probe that is already settled costs no cut.  Within a regime (one
    kept count) the walks are fixed and the cap only rises with j, and
    the greedy cut makes no more pieces under a larger cap, so acceptance
    is monotone there.  A cut's pieces stay the same for every cap from
    its longest piece to one below its shortest piece plus the next step,
    so a rejection settles its regime up to that cap and an acceptance
    from the longest piece; each regime keeps the largest j known to
    reject and the smallest known to accept, and a probe inside either
    range is answered without a cut.  The trees are built from one more
    cut, at the j found, with the exact steps."""
    base = mst(sites, metric)
    if t == 1 or len(base.vertices) == 1:
        return TreeCover((base,), base.total_length)
    P, Q = base.total_length.numerator, base.total_length.denominator
    scale = Q << 120
    thresholds = [-(-d.numerator * scale // (d.denominator * P)) if d else 0
                  for _, _, d in base.edges]
    ordered = sorted(thresholds)
    regimes: dict[int, tuple] = {}

    def walks(j: int, kept: int) -> tuple:
        """(M, [(walk, steps, prefix in units of 1/M)]) of the components
        at probe j, in order of their lowest sites."""
        if kept not in regimes:
            forest = _adjacency(base.vertices,
                                [e for e, th in zip(base.edges, thresholds) if th <= j])
            seen: set[int] = set()
            comps = []
            for v in base.vertices:
                if v not in seen:
                    order = _preorder(forest, v)
                    seen.update(order)
                    comps.append((order, [metric.distance(a, b) for a, b in zip(order, order[1:])]))
            M, scaled = on_common_denominator([d for _, steps in comps for d in steps])
            scaled = iter(scaled)
            regimes[kept] = M, [
                (order, steps, list(accumulate(islice(scaled, len(steps)), initial=0)))
                for order, steps in comps
            ]
        return regimes[kept]

    def cut(j: int, kept: int) -> tuple[bool, list]:
        """(accepted, [(walk, steps, prefix, pieces)]) at probe j: each
        component's cut pieces, up to the first walk that passes t pieces."""
        M, comps = walks(j, kept)
        cap = TREE_COVER_BETA * P * j * M // scale
        cuts, left = [], t
        for order, steps, prefix in comps:
            pieces = _cut_walk(prefix, cap, left)
            cuts.append((order, steps, prefix, pieces))
            left -= len(pieces)
            if left < 0:
                return False, cuts
        return True, cuts

    settled: dict[int, list[int]] = {}

    def accepts(j: int) -> Optional[bool]:
        """True if probe j accepts, None if it rejects."""
        kept = bisect_right(ordered, j)
        known = settled.get(kept)  # [largest j known to reject, smallest known to accept]
        if known is None:
            lo = ordered[kept - 1] if kept else 0  # the regime is [lo, hi]
            hi = ordered[kept] - 1 if kept < len(ordered) else 2**120
            # past t components the whole regime rejects
            known = settled[kept] = [hi if len(base.vertices) - kept > t else lo - 1, hi + 1]
        if j <= known[0]:
            return None
        if j >= known[1]:
            return True
        ok, cuts = cut(j, kept)
        # cap(j) = j * unit // scale, and with unit = 0 (|MST| = 0) every cap
        # is 0; each bound is clamped by the other, which lies in the regime
        unit = TREE_COVER_BETA * P * regimes[kept][0]
        if ok:
            longest = max(prefix[b] - prefix[a] for _, _, prefix, pieces in cuts for a, b in pieces)
            known[1] = max(known[0] + 1, -(-longest * scale // unit) if unit else 0)
        else:
            shortest = min(prefix[b + 1] - prefix[a] for _, _, prefix, pieces in cuts
                           for a, b in pieces if b + 1 < len(prefix))
            known[0] = min(known[1] - 1, (shortest * scale - 1) // unit if unit else 2**120)
        return ok or None

    j, ok = (0, True) if accepts(0) else smallest_accepted(1, 2**120, accepts)
    if ok:
        _, cuts = cut(j, bisect_right(ordered, j))
    else:
        # even B = |MST| rejects: the walk's shortcut steps exceed 4|MST|,
        # which a matrix valid only within TRIANGLE_TOL allows (|MST| = 0
        # among them); one tree along the whole walk covers every site
        _, ((order, steps, prefix),) = walks(2**120, len(ordered))
        cuts = [(order, steps, prefix, [(0, len(order) - 1)])]
    trees = []
    for order, steps, _, pieces in cuts:
        for first, last in pieces:
            run = order[first : last + 1]
            edges = [(min(a, b), max(a, b), d) for a, b, d in zip(run, run[1:], steps[first:])]
            trees.append(Tree.build(sorted(run), edges))
    return TreeCover(tuple(trees), max(p.total_length for p in trees))
