"""Weighted 1D scheduling via the time-window relaxation.

The solver rounds weights to powers of 1/2 and searches for the
smallest window length L such that a "standard" schedule exists: each
robot's motion is a concatenation of 2^m atomic window schedules, and
every site of rounded weight 2^-h is visited in each aligned block of
2^h windows.  Atomic schedules come in two shapes: a visiting window
(the robot starts at a site, sweeps to the window's extreme visited
sites and ends at a site within the first third) and a pure-travel
window.  A concatenation is summarized by the 6-tuple

    (start, end, left, right, t_before, t_after)

where t_before / t_after say how much travel time is available before
the first visit and after the last one.  The level-doubling search
keeps one schedule per undominated summary, so the whole thing is a
dynamic program over these tuples.  An accepted standard schedule is
made periodic by alternating it with its time reversal, which at most
doubles any site's visit gap.  That periodic schedule, the one
returned, is what validate_standard checks, block by block over its
whole period, with the evaluator's visit rule (evaluate._visits).  A
solve runs that rule once: the check and its latency report read the
same visits, which the metric's memo keeps.

There is one summary form, AtomicRep: a tuple of ints (start, end,
left, right, before3, after3, span) with the slacks counted in thirds of
L, so it does not depend on the L being probed.  For L = p/q and the
line metric's axis (Metric.axis: D the lcm of the coordinate
denominators, X = D * coords), the junction rule and the prune compare
integers in units of 1/(3qD), where coordinate i is 3q * X[i] and L/3 is
p * D.  The candidate windows are (numerator, denominator) int pairs
until probed; Fractions appear only in the windows the search probes, in
AtomicRep.t_before / t_after and where a Schedule or StandardSchedule is
returned.  The accepted state is realized and reversed on ints in the
unit 1/(qD) (_timeline, _mirrored), and the lower bound covers X
(line_lower_bound).

What does not depend on L is built once per Instance, not once per
probe of the window search, in its summary pool: the atomic table
(every visiting 4-tuple with its integer-scaled tour length and the
half-open range of caps on which the atom prune keeps it; one dominates
another exactly when they share start and end coordinates and its hull
contains the other's; built hull-major, each hull's terms once, then
one pass over the 4-tuples), each summary interned once with its hull
mask over its weight class's sites and the two ints its score is made
of, and every join with the one integer compare that decides it at a
given L.  A DP state is its summaries' pool ids.  Per probe, level by level:

- level 0: the cap filter over the atoms and the covering k-tuples of
  them, ranked by score; no tuple of pruned atoms dominates another, so
  the ranking is the prune;
- each level above: only the pairs whose hulls can reach the level's
  outermost sites are joined, one compare each;
- middle levels: the covering joins are pruned by dominance;
- the top level (level m, or level 0 when m = 0): a probe of the window
  search (_decide) stops at its first covering state, since it only asks
  whether one exists.  At the window the search accepts, _best finishes
  that probe's own top-level pass and keeps only the state the prune
  would rank first, so the top level is scanned once per window.

One generator, _covering, yields each level's covering states to
_below, and the top level's to _decide and then to _best, which resumes
it; the search realizes only the accepted window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product
from math import gcd, inf
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import IncompatibleAlgorithmError, ResourceLimitError
from .evaluate import _visits
from .instance import Instance, weight_classes
from .line_uniform import _min_cover_cap
from .rationals import on_common_denominator, smallest_accepted
from .report import SolveReport, build_report
from .schedule import CoordPos, RobotTrack, Schedule, stationary_track

DEFAULT_STATE_CAP = 200_000
DEFAULT_PAIR_CAP = 20_000_000  # pre-checked per level; about a minute of work


class AtomicRep(NamedTuple):
    """Summary of a (concatenated) window schedule: the DP state, the
    summary pool's key and the public form are this one tuple.

    Site fields are indices or None; before3 / after3 count the travel
    time available before the first visit and after the last one in
    thirds of the window length L, so they do not depend on the candidate
    L being probed.  span counts atomic windows.  A schedule that visits
    nothing has all site fields None, before3 0 and after3 3 * span.
    """

    start: Optional[int]
    end: Optional[int]
    left: Optional[int]
    right: Optional[int]
    before3: int
    after3: int
    span: int

    @property
    def visits(self) -> bool:
        return self.start is not None

    @property
    def t_before(self) -> Fraction:
        """The slack before the first visit, as a multiple of L."""
        return Fraction(self.before3, 3)

    @property
    def t_after(self) -> Fraction:
        """The slack after the last visit, as a multiple of L."""
        return Fraction(self.after3, 3)


def type_two() -> AtomicRep:
    return AtomicRep(None, None, None, None, 0, 3, 1)


def canonical_path_order(
    coords: Sequence[int | Fraction], s: int, e: int, left: int, right: int
) -> list[int]:
    """Sites of the shorter tour start -> extremes -> end: detour left
    first or right first, ties taking the leftward order.  coords are
    Fractions or _timeline's scaled ints X.  Valid only when left/right
    really are the extremes of the four sites."""
    cs, ce, cl, cr = coords[s], coords[e], coords[left], coords[right]
    if (cs - cl) + (cr - cl) + (cr - ce) <= (cr - cs) + (cr - cl) + (ce - cl):
        return [s, left, right, e]
    return [s, right, left, e]


def enumerate_atomics(instance: Instance, L: Fraction) -> list[AtomicRep]:
    """All single-window summaries: every visiting 4-tuple (start, end,
    left, right), in product order, whose canonical tour fits in L/3,
    plus the single pure-travel summary.  The tour's length times 3D is
    _SummaryPool's length3."""
    summaries = _summary_pool(instance)
    # 3 * tour <= L  <=>  3 * D * tour <= floor(L * D), _atom_ids' cap
    cap = L.numerator * summaries.D // L.denominator
    sites = list(enumerate(summaries.X))
    return [AtomicRep(s, e, left, right, 0, 2, 1)
            for s, xs in sites for e, xe in sites
            for left, xl in sites if xl <= min(xs, xe)
            for right, xr in sites
            if xr >= max(xs, xe) and 6 * (xr - xl) - 3 * abs(xs - xe) <= cap] + [type_two()]


def _junction(a: tuple, b: tuple, X) -> tuple:
    """(key, gap, slack3): the integer summary of running a then b, the
    scaled travel |X[a.end] - X[b.start]| between them (0 when either is
    pure travel) and the thirds of L available for it; the hull keeps the
    outer extreme of each side, ties to the lower index.  None of it reads
    L: at L = p/q the join fits when 3q * gap <= slack3 * p * D.  The rules
    are span-agnostic, which also makes concatenation associative.
    """
    s, e, lo, hi, before, after, span = a
    s2, e2, lo2, hi2, before2, after2, span2 = b
    if s is None:
        if s2 is None:
            return (None, None, None, None, 0, after + after2, span + span2), 0, 0
        return (s2, e2, lo2, hi2, after + before2, after2, span + span2), 0, 0
    if s2 is None:
        return (s, e, lo, hi, before, after + after2, span + span2), 0, 0
    left = lo if (X[lo], lo) <= (X[lo2], lo2) else lo2
    right = hi if (X[hi], -hi) >= (X[hi2], -hi2) else hi2
    return (s, e2, left, right, before, after2, span + span2), abs(X[e] - X[s2]), after + before2


def concat(
    a: AtomicRep, b: AtomicRep, L: Fraction, coords: Sequence[Fraction]
) -> Optional[AtomicRep]:
    """Summary of running a then b, or None when the junction travel does
    not fit in the available slack: the DP's junction rule on the
    coordinates over their common denominator D (on_common_denominator)."""
    D, X = on_common_denominator(coords)
    key, gap, slack3 = _junction(a, b, X)
    if 3 * L.denominator * gap > slack3 * L.numerator * D:
        return None
    return AtomicRep._make(key)


# --- the level-doubling decision procedure ---------------------------------


@dataclass
class StateNode:
    """One k-robot summary with enough structure to replay the motion:
    ids are the pool ids of the robots' AtomicReps, interned in the
    instance's summary pool and shared by every probe, which keeps only
    its levels."""

    ids: tuple[int, ...]
    level: int
    children: Optional[tuple["StateNode", "StateNode"]] = None

    def slots(self) -> list[tuple[int, ...]]:
        """Per-window atomic summaries as pool ids, k per window."""
        if self.level == 0:
            return [self.ids]
        left, right = self.children
        return left.slots() + right.slots()


@dataclass(frozen=True)
class StandardSchedule:
    """A realized accepted schedule over [0, duration]."""

    window: Fraction  # L
    levels: int  # m
    robot_waypoints: tuple[tuple[tuple[Fraction, Fraction], ...], ...]  # (t, x)

    @property
    def duration(self) -> Fraction:
        return self.window * 2**self.levels


def _prune(states: list[StateNode], instance: Instance, L: Fraction) -> list[StateNode]:
    """Drop k-robot states componentwise dominated by a kept one.

    A summary dominates another of the same shape when its hull contains
    the other's and its slack on each side exceeds the other's by at
    least the displacement of that endpoint: any junction the other
    meets, it meets by the triangle inequality.  Pure-travel summaries
    of one span are identical.  Lengths are integers in units of
    1/(3qD): a coordinate is 3q * X[i] and a slack of before3 thirds of
    L is before3 * p * D.  States are scanned by decreasing total slack
    plus hull width (the pool's ranking), a linear extension of
    dominance, so exactly one state per undominated summary is kept.
    _below runs it on the middle levels only; level 0 is ranked and
    _best picks the top level's state by the same score.
    """
    summaries = _summary_pool(instance)
    pool, X = summaries.pool, summaries.X
    scale, per_third = 3 * L.denominator, L.numerator * summaries.D
    score = summaries.ranking(L)

    def scaled(i):
        """Summary i's (start, end, left, right, before, after) or None."""
        s, e, lo, hi, before, after, _ = pool[i]
        if s is None:
            return None
        return (scale * X[s], scale * X[e], scale * X[lo], scale * X[hi],
                before * per_third, after * per_third)

    def dominates(xs, ys) -> bool:
        for a, b in zip(xs, ys):
            if a is None or b is None:
                if a is not b:
                    return False
            elif not (a[2] <= b[2] and a[3] >= b[3]
                      and a[4] - b[4] >= abs(a[0] - b[0])
                      and a[5] - b[5] >= abs(a[1] - b[1])):
                return False
        return True

    scored = [(-score(node.ids), tuple(map(scaled, node.ids)), node) for node in states]
    scored.sort(key=lambda item: item[0])
    kept: list[tuple] = []
    for _, keys, node in scored:
        if not any(dominates(other, keys) for other, _ in kept):
            kept.append((keys, node))
    return [node for _, node in kept]


class _SummaryPool:
    """The per-instance tables of the DP, shared by every probe of a
    solve, since none depends on L (slacks count thirds of L): the pair
    loops run on small ints.  D and X are the line metric's axis
    (Metric.axis): the coordinates times D, the lcm of their denominators.

    atoms is the atomic table: one row (length3, kill3, id) per coordinate
    class (start, end, left, right) of visiting 4-tuples, in product
    order, with length3 = 3 * D * canonical tour length.  The canonical
    length of s -> e through the extremes l <= s, e <= r is
    (r - l) + min((s - l) + (r - e), (r - s) + (e - l)), which is
    2(r - l) - |s - e|.  The 4-tuples of one class share a tour, and the
    first in product order, the one of the lowest site index at each
    coordinate, stands for all.  The atom prune keeps a row exactly at
    the caps floor(L * D) in [length3, kill3): it is dropped once a
    strictly wider hull over the same ends fits.  Widening a hull by d on
    either side lengthens both detours by d, so the tour by 2d: the
    shortest wider hull reaches the nearest coordinate beyond one side,
    and kill3 is inf when there is none.

    pool[i] is the interned summary i and ids its inverse; masks[i] marks
    the sites of i's level (a span fixes the level) inside i's hull, kept
    per (span, left, right) in hulls.  joins[a, b] is _junction's (id,
    gap, slack3) for summaries a then b, so a probe decides a pair with
    one integer compare.  slack3s[i] (before3 + after3) and widths[i]
    (the scaled hull width, 0 for pure travel) are i's terms of the score
    ranking(L) returns.  travel is the pure-travel atom's id.  The masks
    read the weight classes, so the pool lives on the Instance, not on
    its Metric.

    The table is built hull-major: each (left, right) hull of those
    lowest sites has its 6 * width, kill offset (None with no wider hull),
    level-0 mask and width computed once, and one pass over the 4-tuples
    of those sites, each its class's atom, reads them; each takes the next
    id as it is made: ids 0 .. len(atoms) - 1 are the atoms in table order
    and travel comes next.  intern, which the joins use, takes _junction's
    plain tuples and AtomicReps alike (an AtomicRep equals and hashes like
    its plain tuple) and builds an AtomicRep only for a new plain tuple."""

    def __init__(self, instance: Instance):
        self.D, self.X, _ = instance.metric.axis()
        X = self.X
        values = sorted(set(X))
        steps = [b - a for a, b in zip(values, values[1:])]
        step_left, step_right = dict(zip(values[1:], steps)), dict(zip(values, steps))
        self.level_sites = dict(weight_classes(instance).classes)
        self.pool: list[AtomicRep] = []
        self.ids: dict[tuple, int] = {}
        self.masks: list[int] = []
        self.widths: list[int] = []
        self.hulls: dict[tuple[int, int, int], int] = {}
        self.joins: dict[tuple[int, int], tuple[int, int, int]] = {}
        self.atoms = atoms = []
        pool, ids, masks, widths, hulls = self.pool, self.ids, self.masks, self.widths, self.hulls
        sites = [(bit, X[s]) for bit, s in enumerate(self.level_sites.get(0, ()))]
        leads = [(i, x) for i, x in enumerate(X) if X.index(x) == i]  # one site per coordinate
        hull = {}  # (left, right): 6 * width, kill offset (None: none wider), mask, width
        for (left, xl), (right, xr) in product(leads, leads):
            if xl <= xr:
                step = min(step_left.get(xl, inf), step_right.get(xr, inf))
                mask = hulls[1, left, right] = sum(1 << bit for bit, x in sites if xl <= x <= xr)
                hull[left, right] = 6 * (xr - xl), None if step == inf else 6 * step, mask, xr - xl
        lefts = {x: [left for left, xl in leads if xl <= x] for _, x in leads}
        rights = {x: [right for right, xr in leads if xr >= x] for _, x in leads}
        new = tuple.__new__  # AtomicRep(...) without its Python-level __new__
        for s, xs in leads:
            for e, xe in leads:
                lo, hi = (xs, xe) if xs <= xe else (xe, xs)
                ends3 = 3 * (hi - lo)
                for left in lefts[lo]:
                    for right in rights[hi]:
                        six, kill6, mask, width = hull[left, right]
                        length3 = six - ends3
                        rep = new(AtomicRep, (s, e, left, right, 0, 2, 1))
                        kill3 = inf if kill6 is None else length3 + kill6
                        atoms.append((length3, kill3, len(pool)))
                        ids[rep] = len(pool)
                        pool.append(rep)
                        masks.append(mask)
                        widths.append(width)
        self.slack3s: list[int] = [2] * len(pool)  # an atom's slacks are (0, 2)
        self.travel = self.intern(type_two())

    def intern(self, key: tuple) -> int:
        got = self.ids.get(key)
        if got is None:
            got = self.ids[key] = len(self.pool)
            self.pool.append(key if type(key) is AtomicRep else AtomicRep._make(key))
            _, _, left, right, before3, after3, span = key
            X = self.X
            mask = 0 if left is None else self.hulls.get((span, left, right))
            if mask is None:
                sites = self.level_sites.get(span.bit_length() - 1, ())
                mask = self.hulls[span, left, right] = sum(
                    1 << bit for bit, s in enumerate(sites) if X[left] <= X[s] <= X[right])
            self.masks.append(mask)
            self.slack3s.append(before3 + after3)
            self.widths.append(0 if left is None else X[right] - X[left])
        return got

    def join(self, a: int, b: int) -> tuple[int, int, int]:
        """Compute and keep joins[a, b]."""
        key, gap, slack3 = _junction(self.pool[a], self.pool[b], self.X)
        got = self.joins[a, b] = (self.intern(key), gap, slack3)
        return got

    def ranking(self, L: Fraction):
        """The scan score at window L of a state's ids, total slack plus
        hull width in units of 1/(3qD): per_third * slack3 + scale * width."""
        scale, per_third = 3 * L.denominator, L.numerator * self.D
        slack3s, widths = self.slack3s, self.widths
        return lambda ids: (per_third * sum([slack3s[i] for i in ids])
                            + scale * sum([widths[i] for i in ids]))


def _summary_pool(instance: Instance) -> _SummaryPool:
    """The instance's _SummaryPool, kept in its memo under "summaries"."""
    pool = instance._memo.get("summaries")
    if pool is None:
        pool = instance._memo.setdefault("summaries", _SummaryPool(instance))
    return pool


def _atom_ids(instance: Instance, L: Fraction) -> list[int]:
    """Pool ids of the DP's atoms at window L, in table order: the rows
    whose cap range holds floor(L * D), then pure travel."""
    summaries = _summary_pool(instance)
    cap = L.numerator * summaries.D // L.denominator
    return [i for length3, kill3, i in summaries.atoms if length3 <= cap < kill3] + [
        summaries.travel]


def construct_schedule(instance: Instance, k: int, L: Fraction) -> Optional[StandardSchedule]:
    """Decide whether a standard k-robot schedule of window L exists.

    Returns the realized StandardSchedule on yes, None on no: on yes the
    state realized is the best top-level one (_best), not the first one
    the decision met; _best finishes the decision's own top-level pass.
    """
    decision = _decide(instance, k, L)
    if decision is None:
        return None
    first, rest = decision
    return _realize(_best(instance, L, chain([first], rest)), instance, L)


def _decide(
    instance: Instance, k: int, L: Fraction
) -> Optional[tuple[StateNode, Iterator[StateNode]]]:
    """(first, rest): the first covering top-level state in pair order (at
    m = 0 the first covering level-0 tuple in product order) and the same
    _covering stream, suspended just after it; None when there is none."""
    states = _covering(instance, k, L, _below(instance, k, L))
    first = next(states, None)
    return None if first is None else (first, states)


def _best(instance: Instance, L: Fraction, states: Iterator[StateNode]) -> Optional[StateNode]:
    """The top-level state _prune would rank first: the first of highest
    score among states, or None when there is none."""
    score = _summary_pool(instance).ranking(L)
    return max(states, key=lambda node: score(node.ids), default=None)


def _levels(instance: Instance, k: int, L: Fraction) -> list[list[StateNode]]:
    """The DP's levels up to h = m: _below's, then the top level, which
    holds at most one state, _best's."""
    below = _below(instance, k, L)
    best = _best(instance, L, _covering(instance, k, L, below))
    return below + [[] if best is None else [best]]


def _below(instance: Instance, k: int, L: Fraction) -> list[list[StateNode]]:
    """Levels 0 .. m-1 at window L, each in _prune's order: level 0 is only
    ranked, since no k-tuple of the atoms (pruned by class and hull, all
    with slacks (0, 2)) dominates another, and the middle levels are pruned."""
    if not instance.is_line():
        raise IncompatibleAlgorithmError("time-window scheduling needs a line instance")
    score = _summary_pool(instance).ranking(L)
    levels: list[list[StateNode]] = []
    for h in range(weight_classes(instance).m):
        nodes = list(_covering(instance, k, L, levels))
        levels.append(sorted(nodes, key=lambda node: score(node.ids), reverse=True) if h == 0
                      else _prune(nodes, instance, L))
    return levels


def _covering(
    instance: Instance, k: int, L: Fraction, levels: list[list[StateNode]]
) -> Iterator[StateNode]:
    """The covering states of level h = len(levels) in the order the DP
    meets them: at h = 0 the k-tuples of atoms whose hulls hold every
    level-0 site, in product order; above it the distinct joins of
    levels[h - 1] that hold every level-h site, in pair order.  The atoms'
    len^k and a level's len^2 pairs are checked against DEFAULT_PAIR_CAP
    before the first state, and every distinct covering join against
    DEFAULT_STATE_CAP."""
    summaries = _summary_pool(instance)
    pool, masks, joins = summaries.pool, summaries.masks, summaries.joins
    h = len(levels)
    sites = summaries.level_sites.get(h, ())
    full = (1 << len(sites)) - 1
    if h == 0:
        atoms = _atom_ids(instance, L)
        # a visiting atom and pure travel make the base >= 2: k past the cap's bits is over it
        if len(atoms) ** min(k, DEFAULT_PAIR_CAP.bit_length()) > DEFAULT_PAIR_CAP:
            raise ResourceLimitError(f"{len(atoms)}^{k} atomic combinations exceed the pair cap")
        for combo in product(atoms, repeat=k):
            mask = 0
            for i in combo:
                mask |= masks[i]
            if mask == full:
                yield StateNode(combo, 0)
        return
    prev = levels[h - 1]
    if len(prev) ** 2 > DEFAULT_PAIR_CAP:
        raise ResourceLimitError(f"{len(prev)}^2 concatenation pairs at level {h} "
                                 "exceed the pair cap")
    scale, per_third = 3 * L.denominator, L.numerator * summaries.D
    seen = set()
    for left, rights in zip(prev, _partners(prev, sites, pool, summaries.X)):
        for right in rights:
            out = []
            mask = 0
            for pair in zip(left.ids, right.ids):
                ic, gap, slack3 = joins.get(pair) or summaries.join(*pair)
                if scale * gap > slack3 * per_third:
                    break
                mask |= masks[ic]
                out.append(ic)
            else:
                out = tuple(out)
                if mask != full or out in seen:
                    continue
                seen.add(out)
                if len(seen) > DEFAULT_STATE_CAP:
                    raise ResourceLimitError(f"more than {DEFAULT_STATE_CAP} states at level {h}")
                yield StateNode(out, h, (left, right))


def _partners(prev: list[StateNode], sites, pool, X) -> list[list[StateNode]]:
    """Per state of prev, the states of prev it may be joined with, in
    prev's order.  A join's hull spans its parts' hulls, so a pair fills
    the next level's mask only if some robot of either state reaches its
    leftmost site and some robot its rightmost: each state is tagged with
    bit 1 (reaches left) and bit 2 (reaches right), and partners together
    hold both bits.  With no sites at that level every pair qualifies."""
    if not sites:
        return [prev] * len(prev)
    lo, hi = min(X[s] for s in sites), max(X[s] for s in sites)
    tags = []
    for node in prev:
        tag = 0
        for i in node.ids:
            rep = pool[i]
            if rep.left is not None:
                tag |= (X[rep.left] <= lo) | (X[rep.right] >= hi) << 1
        tags.append(tag)
    by_tag = [[node for node, other in zip(prev, tags) if tag | other == 3] for tag in range(4)]
    return [by_tag[tag] for tag in tags]


def _realize(node: StateNode, instance: Instance, L: Fraction) -> StandardSchedule:
    coords, pool = instance.metric.coords, _summary_pool(instance).pool
    slots = node.slots()  # [window][robot]
    tracks = tuple(_realize_track([pool[slot[r]] for slot in slots], coords, L)
                   for r in range(len(node.ids)))
    return StandardSchedule(window=L, levels=node.level, robot_waypoints=tracks)


def _realize_track(slots: Sequence[AtomicRep], coords, L: Fraction) -> tuple:
    """One robot's _timeline as (time, coordinate) Fractions over [0, span*L]."""
    D, X = on_common_denominator(coords)
    return tuple((Fraction(t, L.denominator * D), coords[s])
                 for t, s in _timeline(slots, X, L.denominator, L.numerator * D))


def _timeline(slots: Sequence[AtomicRep], X, q: int, window: int) -> list[tuple[int, int]]:
    """Waypoints (time, site) over [0, span * window] for one robot, on
    ints: at L = p/q time counts 1/(qD), a window lasts p * D and travel
    between sites a and b takes q * |X[a] - X[b]|.  Visiting windows run
    their canonical tour from the window start at unit speed; the robot
    then waits at the tour's end site and leaves as late as possible for
    the next visiting window's start site."""
    visit_idx = [i for i, rep in enumerate(slots) if rep.visits]
    if not visit_idx:
        return [(0, min(range(len(X)), key=X.__getitem__))]
    waypoints = [(0, slots[visit_idx[0]].start)]
    if window == 0:
        return waypoints

    def put(t: int, s: int):
        t_prev, s_prev = waypoints[-1]
        if t == t_prev:
            if X[s] != X[s_prev]:
                raise AssertionError("conflicting waypoint at one time")
            return
        if t < t_prev:
            raise AssertionError("realized motion went back in time")
        waypoints.append((t, s))

    for where, idx in enumerate(visit_idx):
        t, (at, *order) = idx * window, canonical_path_order(X, *slots[idx][:4])
        put(t, at)
        for target in order:
            if X[target] != X[at]:
                t += q * abs(X[target] - X[at])
                put(t, target)
                at = target
        if where + 1 < len(visit_idx):
            nxt = slots[visit_idx[where + 1]].start
            arrive = visit_idx[where + 1] * window
            dist = q * abs(X[nxt] - X[at])
            if dist > 0:
                put(arrive - dist, at)
                put(arrive, nxt)
                at = nxt
    # implicit final wait at the last site until the duration
    if waypoints[-1][0] > window * len(slots):
        raise AssertionError("realized motion overruns the schedule duration")
    return waypoints


def validate_standard(std: StandardSchedule, instance: Instance) -> bool:
    """Every site of rounded weight 2^-j is visited in each aligned block
    of 2^j windows, over the whole period 2D of the cyclified schedule
    (both halves) and by the evaluator's visit rule."""
    return _blocks_met(std.levels, cyclify(std), instance)


def _blocks_met(levels: int, schedule: Schedule, instance: Instance) -> bool:
    """validate_standard on schedule, the cyclified standard schedule of m
    = levels, by its _visits, which the solver's latency report then
    finds in the metric's memo.  Visits are ints in the unit 1/U, so with
    P = 2D * U, every moving track's period, block b is [b * P, (b + 1) * P]
    once visit times are scaled by 2^(m+1-j).  A stationary track covers
    its sites at all times."""
    _, periods, per_track = _visits(schedule, instance.metric)
    moving = [r for r, track in enumerate(schedule.robots) if len(track.waypoints) > 1]
    still = set().union(*(vis for r, vis in enumerate(per_track) if r not in moving))
    period = max((periods[r] for r in moving), default=0)
    for j, members in weight_classes(instance).classes:
        scale = 2 ** (levels + 1 - j)
        for s in members:
            if s in still:
                continue
            spans = sorted((a * scale, b * scale)
                           for r in moving for a, b in per_track[r].get(s, ()))
            if not _every_block_met(spans, period, scale):
                return False
    return True


def _every_block_met(spans: Sequence[tuple[int, int]], block: int, blocks: int) -> bool:
    """Whether each block [b * block, (b + 1) * block], b < blocks, meets
    one of the spans, given sorted by start: a block meets one exactly
    when the furthest end among the spans starting by the block's end
    reaches the block's start."""
    i, reach = 0, -1  # below every block's start
    for b in range(blocks):
        while i < len(spans) and spans[i][0] <= (b + 1) * block:
            reach = max(reach, spans[i][1])
            i += 1
        if reach < b * block:
            return False
    return True


def cyclify(std: StandardSchedule) -> Schedule:
    """Infinite periodic schedule: run the standard schedule, then its
    time reversal, with period twice the duration.  Each site's visit gap
    at most doubles relative to its window spacing.  The reversal runs on
    the duration and times over one common denominator (_mirrored)."""
    D, tracks = std.duration, []
    for wps in std.robot_waypoints:
        if D == 0 or len(wps) == 1:
            tracks.append(stationary_track(CoordPos(wps[0][1])))
            continue
        den, (duration, *times) = on_common_denominator([D, *(t for t, _ in wps)])
        pts = _mirrored(list(zip(times, (x for _, x in wps))), duration)
        tracks.append(RobotTrack(2 * D, tuple((Fraction(t, den), CoordPos(x)) for t, x in pts)))
    return Schedule(tuple(tracks))


def _mirrored(points: list[tuple[int, object]], duration: int) -> list[tuple[int, object]]:
    """points (int time, position) over [0, duration], then their time
    reversal 2 * duration - t but for the mirrors of the last point (the
    seam) and of a point at 0 (the wrap leg reproduces the first leg)."""
    out = list(points)
    for t, x in reversed(points):
        mirrored = 2 * duration - t
        if out[-1][0] < mirrored < 2 * duration:
            out.append((mirrored, x))
    return out


# --- candidate window lengths and the full solver ---------------------------


def candidate_window_lengths(instance: Instance, k: int) -> list[Fraction]:
    """Window lengths where the decision structure can change: fits of
    visiting-window tours (3 * tour length) and junction travel budgets
    d = (2/3 + j) * L for up to 2^m pure-travel windows in between.
    More junction values than DEFAULT_STATE_CAP raise ResourceLimitError."""
    return [Fraction(num, den) for num, den in _candidates(instance, k)]


def _candidates(instance: Instance, k: int) -> list[tuple[int, int]]:
    """candidate_window_lengths as sorted (numerator, denominator) pairs
    in lowest terms: the search builds a Fraction only for the windows it
    probes."""
    summaries = _summary_pool(instance)
    D, X = summaries.D, summaries.X
    gaps = {b - a for a in X for b in X if a < b}
    budgets = 2**weight_classes(instance).m + 1
    if len(gaps) * budgets > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"{len(gaps)} gaps x {budgets} candidates exceed the state cap")
    # tour fits length3 / D, and a gap g / D over a budget of (2/3 + hops)
    # windows, as reduced (numerator, denominator) pairs
    values = [(length3, D) for length3 in {length3 for length3, _, _ in summaries.atoms}]
    values += [(3 * g, D * (2 + 3 * hops)) for g in gaps for hops in range(budgets)]
    reduced = set()
    for num, den in values:
        d = gcd(num, den)
        reduced.add((num // d, den // d))
    # int / int division rounds correctly, so it is monotone: only equal
    # floats need the exact comparison; past the double range it
    # overflows, and the exact sort is left
    try:
        keyed = sorted((num / den, num, den) for num, den in reduced)
    except OverflowError:
        return sorted(reduced, key=lambda pair: Fraction(*pair))
    out = [(num, den) for _, num, den in keyed]
    if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
        out.sort(key=lambda pair: (pair[0] / pair[1], Fraction(*pair)))
    return out


def line_lower_bound(instance: Instance, k: int) -> Fraction:
    """Interval-cover lower bound: within any window equal to a group's
    largest visit gap the robots trace k intervals covering the group: on
    the metric's axis X, _min_cover_cap over D is the cover's max_length.
    Weights a / b compare by cross-multiplication; one Fraction is built."""
    if instance.n <= k:
        return Fraction(0)
    D, X, _ = instance.metric.axis()
    groups = [members for _, members in weight_classes(instance).classes]
    groups.append(instance.sites)
    best, best_den = 0, 1
    for members in groups:
        cap, _ = _min_cover_cap(sorted(X[s] for s in members), k)
        num, den = instance.weights[members[0]].as_integer_ratio()
        for a, b in (instance.weights[s].as_integer_ratio() for s in members):
            if a * den < num * b:
                num, den = a, b
        if cap * num * best_den > best * den:
            best, best_den = cap * num, den
    return Fraction(best, D * best_den)


def solve_line_weighted(instance: Instance, k: int) -> SolveReport:
    """Approximate weighted line scheduling: smallest candidate window
    that admits a standard schedule, made periodic by reversal."""
    if not instance.is_line():
        raise IncompatibleAlgorithmError("line-weighted needs a line instance")
    if k < 1:
        raise ValueError("k must be positive")
    _, X, _ = instance.metric.axis()
    if max(X) == min(X):
        schedule = Schedule((stationary_track(CoordPos(instance.metric.coords[0])),))
        return build_report(
            schedule, instance, algo="line-weighted", k=k,
            L_accepted=Fraction(0), lower_bound=Fraction(0),
        )

    candidates = [pair for pair in _candidates(instance, k) if pair[0] > 0]

    def accepts(i: int) -> Optional[tuple]:
        """(L, first, rest) of _decide at candidate i if it says yes."""
        L = Fraction(*candidates[i])
        decision = _decide(instance, k, L)
        return None if decision is None else (L, *decision)

    # The largest candidate is always schedulable (a single full-span tour
    # fits in a third of that window), so it is probed only if the search
    # ends there.
    _, accepted = smallest_accepted(0, len(candidates) - 1, accepts)
    if accepted is None:
        raise AssertionError("the largest candidate window must be schedulable")
    L, first, rest = accepted
    best = _best(instance, L, chain([first], rest))

    schedule = cyclify(_realize(best, instance, L))
    if not _blocks_met(best.level, schedule, instance):
        raise AssertionError("accepted schedule violates its visit windows")
    return build_report(schedule, instance, "line-weighted", k, L, line_lower_bound(instance, k))
