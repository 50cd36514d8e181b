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
doubles any site's visit gap.  Atomics do not depend on L: an instance
lists them once, with integer-scaled tour lengths, and a probe keeps
those that fit; one dominates another exactly when they share start
and end coordinates and its hull contains the other's.  Every
dominance test compares integers: coordinates scaled by the lcm D of
their denominators, so no rounding enters the search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import floor, lcm
from typing import Optional, Sequence

from .errors import IncompatibleAlgorithmError, ResourceLimitError
from .instance import Instance, round_weights_dyadic
from .oracles import exact_interval_cover
from .report import SolveReport, build_report
from .schedule import CoordPos, RobotTrack, Schedule, stationary_track

DEFAULT_STATE_CAP = 200_000
DEFAULT_PAIR_CAP = 20_000_000  # pre-checked per level; about a minute of work

TWO_THIRDS = Fraction(2, 3)


@dataclass(frozen=True)
class AtomicRep:
    """Summary of a (concatenated) window schedule.

    Site fields are indices or None; t_before / t_after are stored as
    multiples of the window length L, so all comparisons stay exact and
    independent of the candidate L being probed.  span counts atomic
    windows.  A schedule that visits nothing has all site fields None,
    t_before 0 and t_after equal to its whole duration.
    """

    start: Optional[int]
    end: Optional[int]
    left: Optional[int]
    right: Optional[int]
    t_before: Fraction
    t_after: Fraction
    span: int

    @property
    def visits(self) -> bool:
        return self.start is not None


def type_two(span: int = 1) -> AtomicRep:
    return AtomicRep(None, None, None, None, Fraction(0), Fraction(span), span)


def canonical_path_order(
    coords: Sequence[Fraction], s: int, e: int, left: int, right: int
) -> list[int]:
    """Sites of the shorter tour start -> extremes -> end: detour left
    first or right first, ties taking the leftward order.  Valid only when
    left/right really are the extremes of the four sites."""
    cs, ce, cl, cr = coords[s], coords[e], coords[left], coords[right]
    if (cs - cl) + (cr - cl) + (cr - ce) <= (cr - cs) + (cr - cl) + (ce - cl):
        return [s, left, right, e]
    return [s, right, left, e]


def canonical_path_length(coords, s: int, e: int, left: int, right: int) -> Fraction:
    """Length of the canonical_path_order tour (an int on int coords)."""
    order = canonical_path_order(coords, s, e, left, right)
    return sum(abs(coords[b] - coords[a]) for a, b in zip(order, order[1:]))


def _atomic_table(instance: Instance) -> tuple[int, tuple[int, ...], tuple]:
    """(D, coordinates times D, rows), kept in the Metric's memo: D is the
    lcm of the coordinate denominators, and the rows are the visiting
    4-tuples in product order as (3 * D * canonical tour length, AtomicRep)."""
    table = instance.metric._memo.get("atomics")
    if table is None:
        D = lcm(*(c.denominator for c in instance.metric.coords))
        X = tuple(c.numerator * (D // c.denominator) for c in instance.metric.coords)
        rows = tuple(
            (3 * canonical_path_length(X, s, e, left, right),
             AtomicRep(s, e, left, right, Fraction(0), TWO_THIRDS, 1))
            for s, e, left, right in product(range(len(X)), repeat=4)
            if X[left] <= min(X[s], X[e]) and X[right] >= max(X[s], X[e])
        )
        table = instance.metric._memo.setdefault("atomics", (D, X, rows))
    return table


def enumerate_atomics(instance: Instance, L: Fraction) -> list[AtomicRep]:
    """All single-window summaries: every visiting 4-tuple whose canonical
    tour fits in L/3, plus the single pure-travel summary."""
    D, _, rows = _atomic_table(instance)
    cap = floor(L * D)  # 3 * tour <= L  <=>  3 * D * tour <= floor(L * D)
    return [rep for length3, rep in rows if length3 <= cap] + [type_two()]


def _prune_atomics(reps: list[AtomicRep], X: Sequence[int]) -> list[AtomicRep]:
    """The first rep of each undominated class, in the given order: per
    (start, end) group, hulls sorted by left end, then right end descending,
    are maximal when they reach further right than all before them (the
    2-D maxima of Kung, Luccio and Preparata)."""
    groups: dict = {}
    for i, r in enumerate(reps):
        ends = (X[r.start], X[r.end]) if r.visits else None
        hull = (X[r.left], X[r.right]) if r.visits else (0, 0)
        groups.setdefault(ends, {}).setdefault(hull, i)
    keep = []
    for hulls in groups.values():
        reach = None
        for lo, hi in sorted(hulls, key=lambda h: (h[0], -h[1])):
            if reach is None or hi > reach:
                keep.append(hulls[lo, hi])
                reach = hi
    return [reps[i] for i in sorted(keep)]


def concat(
    a: AtomicRep, b: AtomicRep, L: Fraction, coords: Sequence[Fraction]
) -> Optional[AtomicRep]:
    """Summary of running a then b, or None when the junction travel does
    not fit in the available slack.

    The level-doubling search only ever joins equal spans, but the rules
    are span-agnostic, which also makes concatenation associative.
    """
    if a.end is not None and b.start is not None:
        gap = abs(coords[a.end] - coords[b.start])
        if gap > (a.t_after + b.t_before) * L:
            return None
    start = a.start if a.start is not None else b.start
    end = b.end if b.end is not None else a.end
    left = _extreme(coords, a.left, b.left, low=True)
    right = _extreme(coords, a.right, b.right, low=False)
    if a.visits:
        t_before = a.t_before
    elif b.visits:
        t_before = a.t_after + b.t_before
    else:
        t_before = Fraction(0)
    t_after = b.t_after if b.visits else a.t_after + b.t_after
    return AtomicRep(start, end, left, right, t_before, t_after, a.span + b.span)


def _extreme(coords, x: Optional[int], y: Optional[int], low: bool) -> Optional[int]:
    if x is None:
        return y
    if y is None:
        return x
    if low:
        return min(x, y, key=lambda i: (coords[i], i))
    return max(x, y, key=lambda i: (coords[i], -i))


# --- the level-doubling decision procedure ---------------------------------


@dataclass
class StateNode:
    """One k-robot summary with enough structure to replay the motion."""

    reps: tuple[AtomicRep, ...]
    level: int
    atoms: Optional[tuple[AtomicRep, ...]] = None  # level 0: per-robot atomic
    children: Optional[tuple["StateNode", "StateNode"]] = None

    def slots(self) -> list[tuple[AtomicRep, ...]]:
        """Per-window atomic summaries, one tuple of k entries per window."""
        if self.level == 0:
            return [self.atoms]
        left, right = self.children
        return left.slots() + right.slots()


@dataclass(frozen=True)
class StandardSchedule:
    """A realized accepted schedule over [0, duration]."""

    window: Fraction  # L
    levels: int  # m
    robot_slots: tuple[tuple[AtomicRep, ...], ...]  # [robot][window]
    robot_waypoints: tuple[tuple[tuple[Fraction, Fraction], ...], ...]  # (t, x)

    @property
    def duration(self) -> Fraction:
        return self.window * 2**self.levels


def _covers(reps: Sequence[AtomicRep], coords, sites: Sequence[int]) -> bool:
    for s in sites:
        c = coords[s]
        if not any(
            r.left is not None and coords[r.left] <= c <= coords[r.right] for r in reps
        ):
            return False
    return True


def _prune(states: list[StateNode], instance: Instance, L: Fraction) -> list[StateNode]:
    """Drop k-robot states componentwise dominated by a kept one.

    A summary dominates another of the same shape when its hull contains
    the other's and its slack on each side exceeds the other's by at
    least the displacement of that endpoint: any junction the other
    meets, it meets by the triangle inequality.  Pure-travel summaries
    of one span are identical.  With L = p/q, lengths are integers in
    units of 1/(3qD): a coordinate is 3q * X[i] and a slack t * L is
    3t * p * D.  States are scanned by decreasing total slack plus hull
    width, a linear extension of dominance, so exactly one state per
    undominated summary is kept.
    """
    D, X, _ = _atomic_table(instance)
    scale, per_third = 3 * L.denominator, L.numerator * D

    def summary(rep: AtomicRep):
        """(start, end, left, right, before, after), None for pure travel,
        and the rep's share of the scan score."""
        thirds = [divmod(3 * t.numerator, t.denominator) for t in (rep.t_before, rep.t_after)]
        if thirds[0][1] or thirds[1][1]:
            raise AssertionError(f"slacks of {rep} are not multiples of L/3")
        before, after = (th * per_third for th, _ in thirds)
        if not rep.visits:
            return None, after
        s, e, lo, hi = (scale * X[i] for i in (rep.start, rep.end, rep.left, rep.right))
        return (s, e, lo, hi, before, after), before + after + hi - lo

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

    scored = []
    for node in states:
        keys, scores = zip(*(summary(rep) for rep in node.reps))
        scored.append((-sum(scores), keys, node))
    scored.sort(key=lambda item: item[0])
    kept: list[tuple] = []
    for _, keys, node in scored:
        if not any(dominates(other, keys) for other, _ in kept):
            kept.append((keys, node))
    return [node for _, node in kept]


def construct_schedule(
    instance: Instance,
    k: int,
    L: Fraction,
    state_cap: int = DEFAULT_STATE_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
    keep_levels: bool = False,
):
    """Decide whether a standard k-robot schedule of window L exists.

    Returns the realized StandardSchedule on yes, None on no.  With
    keep_levels=True returns (answer, levels) where levels[h] is the list
    of surviving StateNodes of span 2^h.
    """
    if not instance.is_line():
        raise IncompatibleAlgorithmError("time-window scheduling needs a line instance")
    coords = instance.metric.coords
    classes, _rounded = round_weights_dyadic(instance)
    level_sites = {j: members for j, members in classes.classes}
    m = classes.m

    atoms = _prune_atomics(enumerate_atomics(instance, L), _atomic_table(instance)[1])
    if len(atoms) ** k > pair_cap:
        raise ResourceLimitError(
            f"{len(atoms)}^{k} atomic combinations exceed the pair cap"
        )
    states: list[StateNode] = []
    for combo in product(atoms, repeat=k):
        if not _covers(combo, coords, level_sites.get(0, ())):
            continue
        states.append(StateNode(reps=tuple(combo), level=0, atoms=tuple(combo)))
    states = _prune(states, instance, L)
    levels = [states]

    # summaries are interned so the pair loops below run on small ints,
    # with pairwise concatenation memoized across state pairs
    rep_ids: dict[AtomicRep, int] = {}
    rep_pool: list[AtomicRep] = []

    def intern(rep: AtomicRep) -> int:
        got = rep_ids.get(rep)
        if got is None:
            got = len(rep_pool)
            rep_ids[rep] = got
            rep_pool.append(rep)
        return got

    for h in range(1, m + 1):
        prev = levels[-1]
        if len(prev) ** 2 > pair_cap:
            raise ResourceLimitError(
                f"{len(prev)}^2 concatenation pairs at level {h} exceed the pair cap"
            )
        targets = level_sites.get(h, ())
        target_mask = (1 << len(targets)) - 1
        mask_cache: dict[int, int] = {}

        def hull_mask(rid: int) -> int:
            got = mask_cache.get(rid)
            if got is None:
                rep = rep_pool[rid]
                got = 0
                if rep.visits:
                    lo, hi = coords[rep.left], coords[rep.right]
                    for bit, s in enumerate(targets):
                        if lo <= coords[s] <= hi:
                            got |= 1 << bit
                mask_cache[rid] = got
            return got

        prev_ids = [tuple(intern(r) for r in node.reps) for node in prev]
        joins: dict[tuple[int, int], int] = {}  # -1 marks infeasible

        def join(ia: int, ib: int) -> int:
            got = joins.get((ia, ib))
            if got is None:
                rep = concat(rep_pool[ia], rep_pool[ib], L, coords)
                got = -1 if rep is None else intern(rep)
                joins[(ia, ib)] = got
            return got

        nxt: list[StateNode] = []
        seen = set()
        for left, lids in zip(prev, prev_ids):
            for right, rids in zip(prev, prev_ids):
                out = []
                mask = 0
                for ia, ib in zip(lids, rids):
                    ic = join(ia, ib)
                    if ic < 0:
                        break
                    mask |= hull_mask(ic)
                    out.append(ic)
                else:
                    if mask != target_mask or tuple(out) in seen:
                        continue
                    seen.add(tuple(out))
                    nxt.append(
                        StateNode(
                            reps=tuple(rep_pool[i] for i in out),
                            level=h,
                            children=(left, right),
                        )
                    )
                    if len(nxt) > state_cap:
                        raise ResourceLimitError(
                            f"more than {state_cap} states at level {h}"
                        )
        levels.append(_prune(nxt, instance, L))

    final = levels[m]
    answer = None
    if final:
        node = final[0]
        answer = _realize(node, instance, L, m)
    return (answer, levels) if keep_levels else answer


def realize_node(node: StateNode, instance: Instance, L: Fraction) -> StandardSchedule:
    """Replay any DP node into explicit motion (used by invariant tests)."""
    span = node.reps[0].span
    levels = span.bit_length() - 1
    return _realize(node, instance, L, levels)


def _realize(node: StateNode, instance: Instance, L: Fraction, m: int) -> StandardSchedule:
    coords = instance.metric.coords
    k = len(node.reps)
    slots = node.slots()  # [window][robot]
    per_robot = [tuple(slot[r] for slot in slots) for r in range(k)]
    tracks = []
    for robot_slots in per_robot:
        tracks.append(_realize_track(robot_slots, coords, L))
    return StandardSchedule(
        window=L,
        levels=m,
        robot_slots=tuple(per_robot),
        robot_waypoints=tuple(tracks),
    )


def _realize_track(
    slots: Sequence[AtomicRep], coords, L: Fraction
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Waypoints (time, coordinate) over [0, span*L] for one robot.

    Visiting windows run their canonical tour from the window start at
    unit speed; the robot then waits at the tour's end site and leaves as
    late as possible for the next visiting window's start site.
    """
    duration = L * len(slots)
    visit_idx = [i for i, rep in enumerate(slots) if rep.visits]
    if not visit_idx:
        c = min(coords)
        return ((Fraction(0), c),)
    if L == 0:
        return ((Fraction(0), coords[slots[visit_idx[0]].start]),)
    waypoints: list[tuple[Fraction, Fraction]] = []

    def put(t: Fraction, x: Fraction):
        if waypoints:
            t_prev, x_prev = waypoints[-1]
            if t == t_prev:
                if x != x_prev:
                    raise AssertionError("conflicting waypoint at one time")
                return
            if t < t_prev:
                raise AssertionError("realized motion went back in time")
        waypoints.append((t, x))

    first = slots[visit_idx[0]]
    put(Fraction(0), coords[first.start])
    for where, idx in enumerate(visit_idx):
        rep = slots[idx]
        t0 = idx * L
        put(t0, coords[rep.start])
        order = canonical_path_order(coords, rep.start, rep.end, rep.left, rep.right)
        t = t0
        x = coords[order[0]]
        for target in order[1:]:
            cx = coords[target]
            if cx != x:
                t += abs(cx - x)
                put(t, cx)
                x = cx
        if where + 1 < len(visit_idx):
            nxt = slots[visit_idx[where + 1]]
            depart_target = coords[nxt.start]
            arrive = visit_idx[where + 1] * L
            dist = abs(depart_target - x)
            if dist > 0:
                put(arrive - dist, x)
                put(arrive, depart_target)
                x = depart_target
    # implicit final wait at x until `duration`
    if waypoints[-1][0] > duration:
        raise AssertionError("realized motion overruns the schedule duration")
    return tuple(waypoints)


def validate_standard(std: StandardSchedule, instance: Instance) -> bool:
    """Every site of rounded weight 2^-j is visited in each aligned block
    of 2^j windows (checking the realized motion, pass-throughs count)."""
    classes, _ = round_weights_dyadic(instance)
    coords = instance.metric.coords
    L = std.window
    if L == 0:
        positions = {wps[0][1] for wps in std.robot_waypoints}
        return all(coords[s] in positions for s in instance.sites)
    for j, members in classes.classes:
        block = L * 2**j
        blocks = 2 ** (std.levels - j)
        for s in members:
            spans = []
            for wps in std.robot_waypoints:
                spans.extend(_visit_intervals(wps, std.duration, coords[s]))
            for b in range(blocks):
                lo, hi = b * block, (b + 1) * block
                if not any(a <= hi and bnd >= lo for a, bnd in spans):
                    return False
    return True


def _visit_intervals(
    waypoints: Sequence[tuple[Fraction, Fraction]],
    duration: Fraction,
    c: Fraction,
) -> list[tuple[Fraction, Fraction]]:
    """Intervals within [0, duration] when a finite waypoint track is at
    coordinate c; crossings are zero-length, waits (including the trailing
    one after the last waypoint) keep their extent."""
    out = []
    if not waypoints:
        return out
    for (t0, x0), (t1, x1) in zip(waypoints, waypoints[1:]):
        lo, hi = min(x0, x1), max(x0, x1)
        if lo <= c <= hi:
            if x0 == x1:
                out.append((t0, t1))
            else:
                tc = t0 + (t1 - t0) * abs(c - x0) / (hi - lo)
                out.append((tc, tc))
    t_last, x_last = waypoints[-1]
    if x_last == c and t_last <= duration:
        out.append((t_last, duration))
    return out


def cyclify(std: StandardSchedule, instance: Instance) -> Schedule:
    """Infinite periodic schedule: run the standard schedule, then its
    time reversal, with period twice the duration.  Each site's visit gap
    at most doubles relative to its window spacing."""
    D = std.duration
    tracks = []
    for wps in std.robot_waypoints:
        if D == 0 or len(wps) == 1:
            tracks.append(stationary_track(CoordPos(wps[0][1])))
            continue
        pts: list[tuple[Fraction, Fraction]] = list(wps)
        for t, x in reversed(wps):
            mirrored = 2 * D - t
            if mirrored <= pts[-1][0]:  # seam waypoint already present
                continue
            if mirrored >= 2 * D:  # the wrap leg reproduces the first leg
                continue
            pts.append((mirrored, x))
        tracks.append(RobotTrack(2 * D, tuple((t, CoordPos(x)) for t, x in pts)))
    return Schedule(tuple(tracks))


# --- candidate window lengths and the full solver ---------------------------


def candidate_window_lengths(instance: Instance, k: int) -> list[Fraction]:
    """Window lengths where the decision structure can change: fits of
    visiting-window tours (3 * tour length) and junction travel budgets
    d = (2/3 + j) * L for up to 2^m pure-travel windows in between.
    More junction values than DEFAULT_STATE_CAP raise ResourceLimitError."""
    coords = instance.metric.coords
    classes, _ = round_weights_dyadic(instance)
    D, _, rows = _atomic_table(instance)
    values = {Fraction(length3, D) for length3, _ in rows}
    gaps = {b - a for a in coords for b in coords if a < b}
    budgets = 2**classes.m + 1
    if len(gaps) * budgets > DEFAULT_STATE_CAP:
        raise ResourceLimitError(f"{len(gaps)} gaps x {budgets} candidates exceed the state cap")
    values.update(d / (TWO_THIRDS + hops) for d in gaps for hops in range(budgets))
    return sorted(values)


def line_lower_bound(instance: Instance, k: int) -> Fraction:
    """Interval-cover lower bound: within any window equal to a group's
    largest visit gap the robots trace k intervals covering the group."""
    if instance.n <= k:
        return Fraction(0)
    classes, _ = round_weights_dyadic(instance)
    coords = instance.metric.coords
    groups = [members for _, members in classes.classes]
    groups.append(tuple(instance.sites))
    best = Fraction(0)
    for members in groups:
        pts = sorted(coords[s] for s in members)
        val = exact_interval_cover(pts, k) * min(instance.weights[s] for s in members)
        best = max(best, val)
    return best


def solve_line_weighted(
    instance: Instance,
    k: int,
    state_cap: int = DEFAULT_STATE_CAP,
    pair_cap: int = DEFAULT_PAIR_CAP,
) -> SolveReport:
    """Approximate weighted line scheduling: smallest candidate window
    that admits a standard schedule, made periodic by reversal."""
    if not instance.is_line():
        raise IncompatibleAlgorithmError("line-weighted needs a line instance")
    if k < 1:
        raise ValueError("k must be positive")
    coords = instance.metric.coords
    if max(coords) == min(coords):
        schedule = Schedule((stationary_track(CoordPos(coords[0])),))
        return build_report(
            schedule, instance, algo="line-weighted", k=k,
            L_accepted=Fraction(0), lower_bound=Fraction(0),
        )

    candidates = [c for c in candidate_window_lengths(instance, k) if c > 0]
    lo, hi = 0, len(candidates) - 1
    best: Optional[StandardSchedule] = None

    def probe(idx: int) -> Optional[StandardSchedule]:
        return construct_schedule(instance, k, candidates[idx], state_cap, pair_cap)

    # The largest candidate is always schedulable (a single full-span tour
    # fits in a third of that window), so it is probed only if the search
    # ends there.
    while lo < hi:
        mid = (lo + hi) // 2
        got = probe(mid)
        if got is not None:
            hi, best = mid, got
        else:
            lo = mid + 1
    if best is None:  # every probed midpoint said no; the answer is the top
        best = probe(hi)
    if best is None:
        raise AssertionError("the largest candidate window must be schedulable")

    if not validate_standard(best, instance):
        raise AssertionError("accepted schedule violates its visit windows")
    schedule = cyclify(best, instance)
    return build_report(
        schedule,
        instance,
        algo="line-weighted",
        k=k,
        L_accepted=best.window,
        lower_bound=line_lower_bound(instance, k),
    )
