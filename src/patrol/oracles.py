"""Independent brute-force references for tests and acceptance checks.

These are deliberately simple and exponential; a budget guard refuses
inputs that would not finish interactively.  Solvers consume the exact
covers only to certify reported lower bounds; no approximation path
depends on this module.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction
from itertools import product
from math import gcd, isnan, nan
from typing import Optional, Sequence

from .errors import ResourceLimitError
from .instance import Instance, Metric
from .metric_core import mst
from .rationals import to_fraction


INTERVAL_COVER_MAX_SITES = 20
TREE_COVER_MAX_SITES = 12
MAX_K = 3  # robots in the slotted-motion search and in the metric bound's exact covers


def exact_interval_cover(points: Sequence, k: int) -> Fraction:
    """Minimum over covers of sorted points by <= k intervals of the max
    interval length; O(n^2 k) dynamic program over contiguous groups."""
    pts = [to_fraction(p) for p in points]
    if not pts:
        raise ValueError("no points")
    if any(b < a for a, b in zip(pts, pts[1:])):
        raise ValueError("points must be sorted ascending")
    n = len(pts)
    if n > INTERVAL_COVER_MAX_SITES:
        raise ResourceLimitError(f"oracle budget: {n} sites exceeds {INTERVAL_COVER_MAX_SITES}")
    if k >= n:
        return Fraction(0)
    INF = pts[-1] - pts[0] + 1
    best = [Fraction(0)] + [INF] * n  # best[i]: first i points covered
    for _ in range(k):
        nxt = list(best)
        for i in range(1, n + 1):
            cand = min(
                (max(best[j], pts[i - 1] - pts[j]) for j in range(i)), default=INF
            )
            if cand < nxt[i]:
                nxt[i] = cand
        best = nxt
    return best[n]


def enumerate_partitions(items: Sequence[int], max_parts: int):
    """All set partitions of items into at most max_parts non-empty parts."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in enumerate_partitions(rest, max_parts):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        if len(sub) < max_parts:
            yield [[first]] + sub


def exact_tree_cover(sites: Sequence[int], metric: Metric, t: int) -> Fraction:
    """Exact t-min-max tree cover value: the minimum over all partitions
    of the sites into <= t parts of the maximum per-part MST length.

    Subset DP over bitmasks with memoized per-subset MST lengths.
    """
    sites = sorted(sites)
    n = len(sites)
    if n > TREE_COVER_MAX_SITES:
        raise ResourceLimitError(f"oracle budget: {n} sites exceeds {TREE_COVER_MAX_SITES}")
    if t >= n:
        return Fraction(0)
    full = (1 << n) - 1
    mst_len: dict[int, Fraction] = {}

    def mst_of(mask: int) -> Fraction:
        got = mst_len.get(mask)
        if got is None:
            subset = [sites[i] for i in range(n) if mask >> i & 1]
            got = mst(subset, metric).total_length
            mst_len[mask] = got
        return got

    best = {0: Fraction(0)}
    for _ in range(t):
        nxt: dict[int, Fraction] = dict(best)
        for mask, val in best.items():
            rem = full ^ mask
            if rem == 0:
                continue
            low = rem & -rem  # anchor the lowest missing site: no duplicates
            sub = rem
            while sub:
                if sub & low:
                    cand = max(val, mst_of(sub))
                    cur = nxt.get(mask | sub)
                    if cur is None or cand < cur:
                        nxt[mask | sub] = cand
                sub = (sub - 1) & rem
        best = nxt
    return best[full]


def exact_line_weighted_opt(
    instance: Instance,
    k: int,
    granularity: int = 1,
    upper_start: Optional[Fraction] = None,
) -> tuple[Fraction, Fraction]:
    """Search over slotted robot motions on the integer-scaled line.

    Robots live on a grid of step 1/granularity (after clearing coordinate
    denominators) and per time slot move one cell or wait.  A target
    weighted latency induces per-site visit deadlines in slots; the target
    is achievable within this motion class iff the resulting finite safety
    game has a cycle, in which case an explicit periodic schedule exists,
    so the value is a true upper bound on the optimum.

    Returns (lb, ub): ub is the smallest achievable candidate value; lb is
    the largest candidate that fails, a lower bound only over the slotted
    class.  upper_start must be a value known to be achievable (defaults
    to the full-span zigzag bound, which the slotted class always admits).
    The search gives up after PATROL_ORACLE_BUDGET_SECS seconds.
    """
    if not instance.is_line():
        raise ValueError("line instances only")
    if k > MAX_K or instance.n > 4:
        raise ResourceLimitError("slotted-motion search is limited to n<=4, small k")
    text = os.environ.get("PATROL_ORACLE_BUDGET_SECS", "120")
    try:
        timeout = float(text)
    except ValueError:
        timeout = nan
    if isnan(timeout):
        raise ValueError(f"PATROL_ORACLE_BUDGET_SECS is not a number: {text!r}")
    deadline = time.monotonic() + timeout

    coords = list(instance.metric.coords)
    denom = 1
    for c in coords:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    scale = denom * granularity
    site_cell = [int(c * scale) for c in coords]
    lo_cell, hi_cell = min(site_cell), max(site_cell)
    weights = list(instance.weights)

    if lo_cell == hi_cell:
        return Fraction(0), Fraction(0)

    if upper_start is None:
        span = Fraction(hi_cell - lo_cell, scale)
        upper_start = 2 * span * max(weights)

    cands: set[Fraction] = set()
    for w in set(weights):
        step = 1
        while True:
            val = Fraction(step, scale) * w
            if val > upper_start:
                break
            cands.add(val)
            step += 1
    cands.add(upper_start)
    candidates = sorted(cands)

    width = hi_cell - lo_cell + 1

    def feasible(target: Fraction) -> bool:
        # a gap of g slots between visits shows as a counter peak of g-1,
        # so the largest allowed counter is floor(target*scale/w) - 1
        limits = [int(target * scale / w) - 1 for w in weights]
        return _safety_game_has_cycle(
            k, width, [c - lo_cell for c in site_cell], limits, deadline
        )

    # The top candidate is >= the zigzag bound, achievable by construction.
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    ub = candidates[hi]
    lb = candidates[hi - 1] if hi > 0 else Fraction(0)
    return lb, ub


def _safety_game_has_cycle(
    k: int,
    width: int,
    site_cell: Sequence[int],
    limits: Sequence[int],
    deadline: float,
) -> bool:
    """Does the slotted dynamics admit an infinite run within the deadlines?

    States are (robot cells, per-site slots-since-visit).  Forward-close
    from all 'freshly visited' placements, then repeatedly delete states
    without a surviving successor; a non-empty remainder contains a cycle.
    """
    n = len(site_cell)
    radix_pos = [width**i for i in range(k)]
    radix_cnt = [1] * n
    acc = width**k
    for i in range(n):
        radix_cnt[i] = acc
        acc *= limits[i] + 2

    cell_sites: dict[int, list[int]] = {}
    for i, c in enumerate(site_cell):
        cell_sites.setdefault(c, []).append(i)

    def encode(cells, counters) -> int:
        code = sum(c * radix_pos[r] for r, c in enumerate(cells))
        return code + sum(counters[i] * radix_cnt[i] for i in range(n))

    def successors(cells, counters):
        opts = []
        for p in cells:
            o = [p]
            if p > 0:
                o.append(p - 1)
            if p < width - 1:
                o.append(p + 1)
            opts.append(o)
        for combo in product(*opts):
            occupied = set(combo)
            nxt = []
            dead = False
            for i in range(n):
                if site_cell[i] in occupied:
                    nxt.append(0)
                else:
                    c = counters[i] + 1
                    if c > limits[i]:
                        dead = True
                        break
                    nxt.append(c)
            if not dead:
                yield combo, tuple(nxt)

    # forward closure
    states: dict[int, tuple[tuple, tuple]] = {}
    frontier: list[tuple[tuple, tuple]] = []
    zero = tuple([0] * n)
    for cells in product(range(width), repeat=k):
        code = encode(cells, zero)
        if code not in states:
            states[code] = (cells, zero)
            frontier.append((cells, zero))
    succ_of: dict[int, list[int]] = {}
    preds: dict[int, list[int]] = {}
    while frontier:
        if time.monotonic() > deadline:
            raise ResourceLimitError("slotted-motion search timed out")
        nxt_frontier = []
        for cells, counters in frontier:
            code = encode(cells, counters)
            outs = []
            for s_cells, s_counters in successors(cells, counters):
                s_code = encode(s_cells, s_counters)
                outs.append(s_code)
                preds.setdefault(s_code, []).append(code)
                if s_code not in states:
                    states[s_code] = (s_cells, s_counters)
                    nxt_frontier.append((s_cells, s_counters))
            succ_of[code] = outs
        frontier = nxt_frontier

    alive = {code: len(set(outs)) for code, outs in succ_of.items()}
    dead_list = [code for code, cnt in alive.items() if cnt == 0]
    removed: set[int] = set(dead_list)
    while dead_list:
        code = dead_list.pop()
        for pred in preds.get(code, ()):
            if pred in removed:
                continue
            # recount lazily: drop one surviving successor
            alive[pred] -= 1
            if alive[pred] <= 0:
                # verify, since duplicate successor codes were deduplicated
                if not any(s not in removed for s in succ_of[pred]):
                    removed.add(pred)
                    dead_list.append(pred)
    return len(removed) < len(states)
