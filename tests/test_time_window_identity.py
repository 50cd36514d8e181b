"""The time-window atomic layer against a frozen copy of its original code.

The original enumerated the visiting 4-tuples with exact Fractions on
every probe, pruned them with a pairwise, order-dependent scan under
_dominates, and ran the same 4-tuple loop again for the candidate window
lengths.  The reference below keeps that code, so any change in which
atomics survive (or in their order), in the candidate list, in the DP
levels built on the atomics, or in a solve shows up here.  The k-robot
state prune is held to its original float-prefiltered copy the same way,
and validate_standard, which reads visits from the evaluator, to its
original Fraction visit rule on the schedule before reversal.  The
integer atom prune that later ran on every probe is kept here too, held
to the original, and the cap ranges of the solver's atomic table are
held to it.  The summary pool's one-pass build is held table by table
to a build that interns each atom row by row, and to the one-pass build
that still made every visiting 4-tuple's row, coincident coordinates
included, before the pool kept only the atoms.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import inf, lcm

import pytest

from patrol import time_window
from patrol.instance import dump_instance, line_instance, round_weights_dyadic, weight_classes
from patrol.schedule import dump_schedule
from patrol.time_window import (
    AtomicRep,
    StandardSchedule,
    StateNode,
    candidate_window_lengths,
    construct_schedule,
    enumerate_atomics,
    solve_line_weighted,
    type_two,
    validate_standard,
)
from conftest import node_reps, realize_node

TWO_THIRDS = Fraction(2, 3)


def reference_path_length(coords, s, e, left, right):
    cs, ce, cl, cr = coords[s], coords[e], coords[left], coords[right]
    left_first = (cs - cl) + (cr - cl) + (cr - ce)
    right_first = (cr - cs) + (cr - cl) + (ce - cl)
    return min(left_first, right_first)


def reference_visiting_tuples(coords):
    for s, e, left, right in product(range(len(coords)), repeat=4):
        cl, cr = coords[left], coords[right]
        if cl > coords[s] or cl > coords[e] or cl > cr:
            continue
        if cr < coords[s] or cr < coords[e]:
            continue
        yield s, e, left, right


def reference_enumerate(coords, L):
    reps = [
        AtomicRep(s, e, left, right, 0, 2, 1)
        for s, e, left, right in reference_visiting_tuples(coords)
        if 3 * reference_path_length(coords, s, e, left, right) <= L
    ]
    reps.append(type_two())
    return reps


def reference_dominates(coords, L, a, b):
    if a.visits != b.visits:
        return False
    if not a.visits:
        return True
    if coords[a.left] > coords[b.left] or coords[a.right] < coords[b.right]:
        return False
    shift_start = abs(coords[a.start] - coords[b.start])
    shift_end = abs(coords[a.end] - coords[b.end])
    return (a.t_before - b.t_before) * L >= shift_start and (
        a.t_after - b.t_after
    ) * L >= shift_end


def reference_prune(reps, coords, L):
    kept = []
    for rep in reps:
        if any(reference_dominates(coords, L, other, rep) for other in kept):
            continue
        kept = [other for other in kept if not reference_dominates(coords, L, rep, other)]
        kept.append(rep)
    return kept


def integer_prune_atomics(reps, X):
    """The atom prune on integer coordinates X, as the solver ran it per
    probe before its atomic table carried each row's cap range.  It keeps
    the first rep of each undominated class, in the given order: per
    (start, end) group, hulls sorted by left end, then right end descending,
    are maximal when they reach further right than all before them (the
    2-D maxima of Kung, Luccio and Preparata)."""
    groups = {}
    for i, r in enumerate(reps):
        if r.start is None:
            ends, hull = None, (0, 0)
        else:
            ends, hull = (X[r.start], X[r.end]), (X[r.left], X[r.right])
        groups.setdefault(ends, {}).setdefault(hull, i)
    keep = []
    for hulls in groups.values():
        reach = None
        for lo, hi in sorted(hulls, key=lambda h: (h[0], -h[1])):
            if reach is None or hi > reach:
                keep.append(hulls[lo, hi])
                reach = hi
    return [reps[i] for i in sorted(keep)]


def reference_candidates(instance):
    coords = instance.metric.coords
    n = instance.n
    classes, _ = round_weights_dyadic(instance)
    values = {
        3 * reference_path_length(coords, *tup) for tup in reference_visiting_tuples(coords)
    }
    ratio = 2**classes.m
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(coords[i] - coords[j])
            if d == 0:
                continue
            for hops in range(0, ratio + 1):
                values.add(d / (TWO_THIRDS + hops))
    return sorted(values)


@pytest.fixture
def reference_atomics(monkeypatch):
    """The DP's atom lookup and solve_line_weighted's candidate list on
    the original enumeration, prune and candidate code.  The lookup
    interns the original atomics in the instance's summary pool, as the
    DP works on pool ids; every atomic has equal slacks, so the original
    prune's result does not depend on the L it is given."""

    def atom_ids(instance, L):
        coords = instance.metric.coords
        pool = time_window._summary_pool(instance)
        return [pool.intern(rep)
                for rep in reference_prune(reference_enumerate(coords, L), coords, Fraction(1))]

    monkeypatch.setattr(time_window, "_atom_ids", atom_ids)
    monkeypatch.setattr(time_window, "_candidates", lambda instance, k: [
        (q.numerator, q.denominator) for q in reference_candidates(instance)])


def sweep(seed, count, n_max, wmax):
    """Seeded line instances: n in 1..n_max, coordinates on a small grid
    (so duplicates are common) over one denominator of 1, 2, 3, 7, 100."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        den = rng.choice((1, 2, 3, 7, 100))
        coords = [Fraction(rng.randint(0, 9), den) for _ in range(n)]
        yield line_instance(coords, [rng.randint(1, wmax) for _ in range(n)])


def test_atomics_and_prune_match_reference():
    lists = 0
    for inst in sweep(1, 60, 6, 4):
        coords = inst.metric.coords
        for L in candidate_window_lengths(inst, 1)[::3] + [Fraction(0)]:
            got = enumerate_atomics(inst, L)
            assert got == reference_enumerate(coords, L)
            pruned = integer_prune_atomics(got, time_window._summary_pool(inst).X)
            assert pruned == reference_prune(got, coords, L)
            lists += 1
    assert lists > 400


def test_atom_table_matches_enumerate_and_prune():
    """The DP's atoms, read from the per-instance table by cap range, are
    the pruned enumeration: at every candidate window, at each row's
    length3 / D and kill3 / D, where a row enters and leaves, and one cap
    below each."""
    windows = 0
    for inst in sweep(1, 60, 6, 4):
        pool = time_window._summary_pool(inst)
        D, X = pool.D, pool.X
        caps = {cap for length3, kill3, _ in pool.atoms for cap in (length3, kill3) if cap != inf}
        Ls = set(candidate_window_lengths(inst, 1))
        Ls.update(Fraction(c, D) for cap in caps for c in (cap, cap - 1))
        for L in Ls:
            want = integer_prune_atomics(enumerate_atomics(inst, L), X)
            assert [pool.pool[i] for i in time_window._atom_ids(inst, L)] == want, (inst, L)
            windows += 1
    assert windows > 1000


def test_candidates_match_reference():
    for inst in sweep(2, 200, 6, 8):
        assert candidate_window_lengths(inst, 1) == reference_candidates(inst)


def levels_and_solve(inst, k):
    cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
    levels = []
    for L in cands[:: max(1, len(cands) // 4)]:
        lv = time_window._levels(inst, k, L)
        levels.append(
            (not lv[-1], [[node_reps(node, inst) for node in level] for level in lv])
        )
    rep = solve_line_weighted(inst, k)
    solved = (rep.L_accepted, rep.measured_latency, rep.lower_bound,
              dump_schedule(rep.schedule))
    return levels, solved


@pytest.fixture(scope="module")
def dp_cases():
    """(instance, k) pairs small enough for k=2 to stay quick."""
    cases = [(inst, 1) for inst in sweep(3, 24, 5, 4)]
    cases += [(inst, 2) for inst in sweep(4, 8, 4, 2)]
    return cases


def test_dp_levels_and_solves_match_reference(dp_cases, request):
    got = [levels_and_solve(inst, k) for inst, k in dp_cases]
    request.getfixturevalue("reference_atomics")
    fresh = [(line_instance(inst.metric.coords, inst.weights), k) for inst, k in dp_cases]
    want = [levels_and_solve(inst, k) for inst, k in fresh]
    assert got == want


def frozen_scaled(coords):
    """(D, X): D the lcm of the coordinate denominators, X the coordinates
    times D, as the pool first scaled them."""
    D = lcm(*(c.denominator for c in coords))
    return D, tuple(c.numerator * (D // c.denominator) for c in coords)


def reference_summary_pool(instance):
    """_SummaryPool as it was first built: the whole atomic table row by
    row, then each atom of it interned through intern, one row at a time.
    The table itself is not kept: the pool holds only its atoms."""
    pool = object.__new__(time_window._SummaryPool)
    pool.D, pool.X = frozen_scaled(instance.metric.coords)
    X = pool.X
    values = sorted(set(X))
    steps = [b - a for a, b in zip(values, values[1:])]
    step_left, step_right = dict(zip(values[1:], steps)), dict(zip(values, steps))
    lead = [X.index(x) == i for i, x in enumerate(X)]
    rows = []
    for s, xs in enumerate(X):
        for e, xe in enumerate(X):
            lo, hi = min(xs, xe), max(xs, xe)
            rights = [(r, xr) for r, xr in enumerate(X) if xr >= hi]
            for left, xl in enumerate(X):
                if xl > lo:
                    continue
                first = lead[s] and lead[e] and lead[left]
                for right, xr in rights:
                    length3 = kill3 = 3 * ((xr - xl) + min((xs - xl) + (xr - xe),
                                                           (xr - xs) + (xe - xl)))
                    if first and lead[right]:
                        widen = min(step_left.get(xl, inf), step_right.get(xr, inf))
                        kill3 = length3 + 6 * widen if widen < inf else inf
                    rows.append((length3, kill3, AtomicRep(s, e, left, right, 0, 2, 1)))
    pool.level_sites = dict(weight_classes(instance).classes)
    pool.pool, pool.ids, pool.masks, pool.slack3s, pool.widths = [], {}, [], [], []
    pool.hulls, pool.joins = {}, {}
    pool.atoms = [(length3, kill3, pool.intern(rep))
                  for length3, kill3, rep in rows if length3 < kill3]
    pool.travel = pool.intern(type_two())
    return pool


POOL_TABLES = ("D", "X", "level_sites", "pool", "ids", "masks",
               "slack3s", "widths", "hulls", "joins", "atoms", "travel")


def pool_tables(pool):
    """Every table of a summary pool, with each key's type beside it, as
    an AtomicRep and its plain tuple compare equal."""
    return {name: getattr(pool, name) for name in POOL_TABLES} | {
        "types": ([type(rep) for rep in pool.pool], [type(key) for key in pool.ids])}


def test_one_pass_pool_matches_per_row_intern_build():
    """The pool built in one pass holds the tables of the per-row intern
    build, before any probe and after a solve has joined into it, on
    coincident and fractional coordinates over several weight levels."""
    coincident = solved = joined = 0
    levels = Counter()
    for k, inst in ((k, inst) for k in (1, 2, 3) for inst in sweep(7, 40, 6 - k, 4)):
        got = time_window._SummaryPool(inst)
        want = reference_summary_pool(inst)
        assert pool_tables(got) == pool_tables(want), inst
        inst._memo["summaries"] = want
        twin = line_instance(inst.metric.coords, inst.weights)
        if max(inst.metric.coords) > min(inst.metric.coords):
            a, b = solve_line_weighted(inst, k), solve_line_weighted(twin, k)
            assert (a.L_accepted, a.latency, dump_schedule(a.schedule)) == (
                b.L_accepted, b.latency, dump_schedule(b.schedule))
            assert pool_tables(time_window._summary_pool(twin)) == pool_tables(want), inst
            solved += 1
            joined += bool(want.joins)
        levels[len(want.level_sites)] += 1
        coincident += len(set(inst.metric.coords)) < inst.n
    assert solved > 80 and joined > 40 and coincident > 20, (solved, joined, coincident)
    assert sum(levels[m] for m in levels if m > 1) > 40, levels


def whole_table_summary_pool(instance):
    """_SummaryPool as it was built in one pass over every visiting
    4-tuple: rows kept every tuple as (length3, kill3, AtomicRep), and a
    row whose sites were each the lowest index of its coordinate was
    its class's atom, interned as it was made."""
    pool = object.__new__(time_window._SummaryPool)
    pool.D, pool.X = frozen_scaled(instance.metric.coords)
    X = pool.X
    values = sorted(set(X))
    steps = [b - a for a, b in zip(values, values[1:])]
    step_left, step_right = dict(zip(values[1:], steps)), dict(zip(values, steps))
    pool.level_sites = dict(weight_classes(instance).classes)
    pool.pool, pool.ids, pool.masks, pool.widths, pool.hulls, pool.joins = [], {}, [], [], {}, {}
    rows, atoms = [], []
    sites = [(bit, X[s]) for bit, s in enumerate(pool.level_sites.get(0, ()))]
    lead = [X.index(x) == i for i, x in enumerate(X)]
    for s, xs in enumerate(X):
        for e, xe in enumerate(X):
            lo, hi = (xs, xe) if xs <= xe else (xe, xs)
            ends3 = 3 * (hi - lo)
            rights = [(r, xr, lead[r]) for r, xr in enumerate(X) if xr >= hi]
            for left, xl in enumerate(X):
                if xl > lo:
                    continue
                first = lead[s] and lead[e] and lead[left]
                for right, xr, lead_right in rights:
                    length3 = 6 * (xr - xl) - ends3
                    rep = tuple.__new__(AtomicRep, (s, e, left, right, 0, 2, 1))
                    if not (first and lead_right):
                        rows.append((length3, length3, rep))
                        continue
                    widen = min(step_left.get(xl, inf), step_right.get(xr, inf))
                    kill3 = length3 + 6 * widen if widen < inf else inf
                    rows.append((length3, kill3, rep))
                    mask = pool.hulls.get((1, left, right))
                    if mask is None:
                        mask = pool.hulls[1, left, right] = sum(
                            1 << bit for bit, x in sites if xl <= x <= xr)
                    atoms.append((length3, kill3, len(pool.pool)))
                    pool.ids[rep] = len(pool.pool)
                    pool.pool.append(rep)
                    pool.masks.append(mask)
                    pool.widths.append(xr - xl)
    pool.atoms = atoms
    pool.slack3s = [2] * len(pool.pool)
    pool.travel = pool.intern(type_two())
    return pool, rows


def test_atom_pool_matches_whole_table_build():
    """The pool built over one site per coordinate holds the tables of
    the build that made every 4-tuple's row, and enumerate_atomics, which
    now enumerates its own 4-tuples, lists that table's rows that fit at
    every candidate window, at each row's length3 / D and one cap below."""
    coincident = windows = 0
    for inst in sweep(9, 400, 6, 4):
        want, rows = whole_table_summary_pool(inst)
        assert pool_tables(time_window._SummaryPool(inst)) == pool_tables(want), inst
        coincident += len(set(inst.metric.coords)) < inst.n
        if inst.n > 4:
            continue
        caps = {c for length3, _, _ in rows for c in (length3, length3 - 1)}
        Ls = set(candidate_window_lengths(inst, 1)) | {Fraction(c, want.D) for c in caps}
        for L in Ls:
            cap = L.numerator * want.D // L.denominator
            got = enumerate_atomics(inst, L)
            assert got == [rep for length3, _, rep in rows if length3 <= cap] + [type_two()]
            assert all(type(rep) is AtomicRep for rep in got)
            windows += 1
    assert coincident > 150 and windows > 1000, (coincident, windows)


def test_table_leaves_metric_identity_alone():
    inst = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7)], [1, 2, 3, 4])
    twin = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7)], [1, 2, 3, 4])
    before = (hash(inst.metric), repr(inst.metric), dump_instance(inst))
    enumerate_atomics(inst, Fraction(10))
    assert "summaries" in inst._memo and not twin._memo and set(inst.metric._memo) == {"axis"}
    assert inst.metric == twin.metric and inst == twin
    assert (hash(inst.metric), repr(inst.metric), dump_instance(inst)) == before
    table = time_window._summary_pool(inst)
    assert time_window._summary_pool(inst) is table
    assert time_window._summary_pool(twin) is not table


# --- the k-robot state prune against its float-prefiltered original ---------

STATE_EPS = 1e-7


def reference_float_key(coords, L, rep):
    if not rep.visits:
        return (False, 0.0, 0.0, 0.0, 0.0, 0.0, float(rep.t_after * L))
    return (
        True,
        float(coords[rep.start]),
        float(coords[rep.end]),
        float(coords[rep.left]),
        float(coords[rep.right]),
        float(rep.t_before * L),
        float(rep.t_after * L),
    )


def reference_maybe_dominates(ka, kb):
    if ka[0] != kb[0]:
        return False
    if not ka[0]:
        return True
    if ka[3] > kb[3] + STATE_EPS or ka[4] < kb[4] - STATE_EPS:
        return False
    if ka[5] - kb[5] < abs(ka[1] - kb[1]) - STATE_EPS:
        return False
    if ka[6] - kb[6] < abs(ka[2] - kb[2]) - STATE_EPS:
        return False
    return True


def reference_state_prune(states, instance, L):
    """The original k-robot prune: a float score order, a float prefilter,
    then exact Fraction dominance."""
    coords = instance.metric.coords
    keyed = []
    for node in states:
        keys = tuple(reference_float_key(coords, L, r) for r in node_reps(node, instance))
        score = sum(k[6] + k[5] + (k[4] - k[3] if k[0] else 0.0) for k in keys)
        keyed.append((score, keys, node))
    keyed.sort(key=lambda item: -item[0])

    def covered(kx, x, ky, y):
        return all(
            reference_maybe_dominates(a, b) for a, b in zip(kx, ky)
        ) and all(reference_dominates(coords, L, a, b)
                  for a, b in zip(node_reps(x, instance), node_reps(y, instance)))

    kept = []
    for _, keys, node in keyed:
        if any(covered(kk, kn, keys, node) for kk, kn in kept):
            continue
        kept.append((keys, node))
    return [node for _, node in kept]


def state_cases():
    """(instance, k) pairs: k=1 up to n=6 with weights to 4, k=2 up to
    n=4 with weights to 2; every denominator of the sweep appears."""
    cases = [(inst, 1) for inst in sweep(5, 40, 6, 4)]
    cases += [(inst, 2) for inst in sweep(6, 16, 4, 2)]
    dens = {c.denominator for inst, _ in cases for c in inst.metric.coords}
    assert {3, 7, 100} <= dens
    assert any(len(set(inst.metric.coords)) < inst.n for inst, _ in cases)
    return cases


def exact_score(node, instance, L):
    coords = instance.metric.coords
    return sum(
        (r.t_before + r.t_after) * L + (coords[r.right] - coords[r.left] if r.visits else 0)
        for r in node_reps(node, instance)
    )


def prune_inputs(instance, k, L):
    """Yield every list the level loop gave _prune when it pruned each
    level in full: level 0's covering atom tuples, then per level the
    distinct covering joins of all pairs of the previous level's kept
    states, in pair order.  The solver ranks level 0 without the scan,
    keeps one state of the top level and skips pairs that cannot cover a
    level, so it builds only some of these lists; this loop builds them
    all, on the library's atoms, junction rule and masks."""
    pool = time_window._summary_pool(instance)
    scale, per_third = 3 * L.denominator, L.numerator * pool.D
    classes = round_weights_dyadic(instance)[0]
    level_sites = dict(classes.classes)

    def covering(nodes, h):
        full = (1 << len(level_sites.get(h, ()))) - 1
        out, seen = [], set()
        for ids, children in nodes:
            mask = 0
            for i in ids:
                mask |= pool.masks[i]
            if mask == full and ids not in seen:
                seen.add(ids)
                out.append(StateNode(ids, h, children))
        return out

    states = covering(((combo, None) for combo in product(
        time_window._atom_ids(instance, L), repeat=k)), 0)
    for h in range(1, classes.m + 1):
        yield states
        prev = time_window._prune(states, instance, L)
        joined = []
        for left, right in product(prev, repeat=2):
            out = []
            for a, b in zip(left.ids, right.ids):
                key, gap, slack3 = time_window._junction(pool.pool[a], pool.pool[b], pool.X)
                if scale * gap > slack3 * per_third:
                    break
                out.append(pool.intern(key))
            else:
                joined.append((tuple(out), (left, right)))
        states = covering(joined, h)
    yield states


def test_state_prune_matches_reference(monkeypatch):
    """The same kept states and the same answers, on every list the
    level loop pruned when it pruned every level in full (prune_inputs).
    The order may differ only among states of equal exact score, which
    the original ranked by rounding noise in its float sums; on this
    sweep that moves one k=1 list (denominator 100, no change in its
    first state) and five k=2 lists."""
    prune = time_window._prune
    lists = 0
    for inst, k in state_cases():
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 6)]:
            answer = construct_schedule(inst, k, L)
            monkeypatch.setattr(time_window, "_prune", reference_state_prune)
            assert (answer is None) == (construct_schedule(inst, k, L) is None)
            monkeypatch.setattr(time_window, "_prune", prune)
            for states in prune_inputs(inst, k, L):
                got = prune(states, inst, L)
                want = reference_state_prune(states, inst, L)
                assert sorted(map(id, got)) == sorted(map(id, want))
                assert [exact_score(n, inst, L) for n in got] == [
                    exact_score(n, inst, L) for n in want
                ]
                lists += 1
    assert lists > 600


# --- validate_standard against its original Fraction visit rule --------------


def reference_visit_intervals(waypoints, duration, c):
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


def reference_every_block_met(spans, block, blocks):
    i, reach = 0, -1
    for b in range(blocks):
        while i < len(spans) and spans[i][0] <= (b + 1) * block:
            reach = max(reach, spans[i][1])
            i += 1
        if reach < b * block:
            return False
    return True


def reference_validate_standard(std, instance):
    """The original check: the standard schedule before reversal, over
    [0, D], with exact coordinate equality and its own trailing wait."""
    coords = instance.metric.coords
    L = std.window
    if L == 0:
        positions = {wps[0][1] for wps in std.robot_waypoints}
        return all(coords[s] in positions for s in instance.sites)
    for j, members in round_weights_dyadic(instance)[0].classes:
        for s in members:
            spans = [span for wps in std.robot_waypoints
                     for span in reference_visit_intervals(wps, std.duration, coords[s])]
            if not reference_every_block_met(sorted(spans), L * 2**j, 2 ** (std.levels - j)):
                return False
    return True


def without_window(node, instance, L, robot, window):
    """node realized with one visiting window of one robot made pure travel."""
    slots, pool = node.slots(), time_window._summary_pool(instance).pool
    tracks = []
    for r in range(len(node.ids)):
        mine = [pool[slot[r]] for slot in slots]
        if r == robot:
            mine[window] = type_two()
        tracks.append(time_window._realize_track(mine, instance.metric.coords, L))
    return StandardSchedule(L, len(slots).bit_length() - 1, tuple(tracks))


def test_validate_standard_matches_reference(dp_cases):
    """Every kept top-level node of the full level loop (prune_inputs),
    realized as it is and with each visiting window dropped in turn, gets
    the original's answer."""
    answers = Counter()
    for inst, k in dp_cases:
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 4)]:
            *_, last = prune_inputs(inst, k, L)
            top = time_window._prune(last, inst, L)
            for node in top:
                std = realize_node(node, inst, L)
                assert validate_standard(std, inst) and reference_validate_standard(std, inst)
                answers["node"] += 1
                for w, slot in enumerate(node.slots()):
                    for r, i in enumerate(slot):
                        if time_window._summary_pool(inst).pool[i].visits:
                            std = without_window(node, inst, L, r, w)
                            got = validate_standard(std, inst)
                            assert got == reference_validate_standard(std, inst), (inst, k, L, r, w)
                            answers[got] += 1
    assert answers["node"] > 100 and answers[False] > 100 and answers[True] > 100, answers


def test_validate_standard_stationary_and_one_site():
    """Coincident sites and a single site, at L = 0 and L > 0: robots
    that never move, and (False) one parked away from the sites."""
    for coords, weights in (([2, 2, 2], [1, 2, 4]), ([Fraction(3, 7)], [1])):
        inst = line_instance(coords, weights)
        m = round_weights_dyadic(inst)[0].m
        for L in (Fraction(0), Fraction(1, 3), Fraction(2)):
            for k in (1, 2):
                std = construct_schedule(inst, k, L)
                assert validate_standard(std, inst) and reference_validate_standard(std, inst)
                away = StandardSchedule(L, m, (((Fraction(0), Fraction(5)),),) * k)
                assert not validate_standard(away, inst)
                assert not reference_validate_standard(away, inst)
