"""The time-window atomic layer against a frozen copy of its original code.

The original enumerated the visiting 4-tuples with exact Fractions on
every probe, pruned them with a pairwise, order-dependent scan under
_dominates, and ran the same 4-tuple loop again for the candidate window
lengths.  The reference below keeps that code, so any change in which
atomics survive (or in their order), in the candidate list, in the DP
levels built on the atomics, or in a solve shows up here.  The k-robot
state prune and the ranked level 0 are held to the original
float-prefiltered prune the same way, and validate_standard, which reads
visits from the evaluator, to its original Fraction visit rule on the
schedule before reversal and its original any() rule for blocks.  The
cap ranges of the solver's atomic table are held to the original prune.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import inf, lcm

import pytest

from patrol import time_window
from patrol.errors import ResourceLimitError
from patrol.instance import dump_instance, line_instance, round_weights_dyadic
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
from conftest import line_sweep, node_reps, rank_probes, realize_node

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


def test_atomics_match_reference():
    """At every candidate window, one unit 1/D below it, and 0, on a first
    sweep and on the instances up to n = 4 of a second one, most of whose
    instances have coincident coordinates.  The original lists the
    4-tuples in one order and keeps those whose path fits, so its list at
    the widest window, cut at each tuple's path length, is its list at
    each smaller one."""
    second = list(line_sweep(9, 400, 6, 4))
    assert sum(len(set(inst.metric.coords)) < inst.n for inst in second) > 150
    lists = 0
    for inst in [*line_sweep(1, 60, 6, 4), *(inst for inst in second if inst.n <= 4)]:
        coords = inst.metric.coords
        D = lcm(*(c.denominator for c in coords))
        Ls = {c - d for c in candidate_window_lengths(inst, 1) for d in (0, Fraction(1, D)) if c >= d}
        Ls.add(Fraction(0))
        # 3 * length * D is an int, so it fits under L * D when it fits under its floor
        widest = [(int(3 * reference_path_length(coords, *rep[:4]) * D), rep)
                  for rep in reference_enumerate(coords, max(Ls))[:-1]]
        for L in Ls:
            cap = L.numerator * D // L.denominator
            want = [rep for length3, rep in widest if length3 <= cap] + [type_two()]
            assert enumerate_atomics(inst, L) == want
            lists += 1
    assert lists > 6500, lists


def test_atom_table_matches_enumerate_and_prune(monkeypatch):
    """The DP's atoms, read from the per-instance table by cap range, are
    the original prune of the enumeration: at every candidate window, at
    each row's length3 / D and kill3 / D, where a row enters and leaves,
    and one cap below each.  Every atom has equal slacks, so the original
    prune's answer depends only on the list, and a dominance only on the
    pair of atoms: each is worked out once per instance."""
    windows, dominates = 0, reference_dominates
    for inst in line_sweep(1, 60, 6, 4):
        pairs, pruned = {}, {}

        def once(coords, L, a, b):
            if (a, b) not in pairs:
                pairs[a, b] = dominates(coords, L, a, b)
            return pairs[a, b]

        monkeypatch.setitem(globals(), "reference_dominates", once)
        pool = time_window._summary_pool(inst)
        caps = {cap for length3, kill3, _ in pool.atoms for cap in (length3, kill3) if cap != inf}
        Ls = set(candidate_window_lengths(inst, 1))
        Ls.update(Fraction(c, pool.D) for cap in caps for c in (cap, cap - 1))
        for L in Ls:
            reps = tuple(enumerate_atomics(inst, L))
            if reps not in pruned:
                pruned[reps] = reference_prune(reps, inst.metric.coords, Fraction(1))
            assert tuple(pool.pool[i] for i in time_window._atom_ids(inst, L)) == tuple(
                pruned[reps]), (inst, L)
            windows += 1
    assert windows > 1000


def test_candidates_match_reference():
    for inst in line_sweep(2, 200, 6, 8):
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
    cases = [(inst, 1) for inst in line_sweep(3, 24, 5, 4)]
    cases += [(inst, 2) for inst in line_sweep(4, 8, 4, 2)]
    return cases


def test_dp_levels_and_solves_match_reference(dp_cases, request):
    got = [levels_and_solve(inst, k) for inst, k in dp_cases]
    request.getfixturevalue("reference_atomics")
    fresh = [(line_instance(inst.metric.coords, inst.weights), k) for inst, k in dp_cases]
    want = [levels_and_solve(inst, k) for inst, k in fresh]
    assert got == want


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
    n=4 with weights to 2 and up to n=3 with weights to 4 (two weight
    levels, so junctions meet pure-travel slack); every denominator of the
    sweep appears."""
    cases = [(inst, 1) for inst in line_sweep(5, 40, 6, 4)]
    cases += [(inst, 2) for inst in line_sweep(6, 16, 4, 2)]
    cases += [(inst, 2) for inst in line_sweep(23, 10, 3, 4)]
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
    first state) and five k=2 lists.  The solver's middle levels are
    those lists pruned, and its top level their best state."""
    prune = time_window._prune
    lists = 0
    for inst, k in state_cases():
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 6)]:
            answer = construct_schedule(inst, k, L)
            monkeypatch.setattr(time_window, "_prune", reference_state_prune)
            assert (answer is None) == (construct_schedule(inst, k, L) is None)
            monkeypatch.setattr(time_window, "_prune", prune)
            levels = time_window._levels(inst, k, L)
            score = time_window._summary_pool(inst).ranking(L)
            for h, states in enumerate(prune_inputs(inst, k, L)):
                got = prune(states, inst, L)
                if h == len(levels) - 1:
                    top = max(states, key=lambda n: score(n.ids), default=None)
                    assert [n.ids for n in levels[h]] == ([] if top is None else [top.ids])
                elif h:
                    assert [n.ids for n in levels[h]] == [n.ids for n in got]
                want = reference_state_prune(states, inst, L)
                assert sorted(map(id, got)) == sorted(map(id, want))
                assert [exact_score(n, inst, L) for n in got] == [
                    exact_score(n, inst, L) for n in want
                ]
                lists += 1
    assert lists > 600


def test_prune_weighs_slack_against_shift_at_the_window():
    """A summary with L more slack before its first visit than another,
    whose start is 1 further right, dominates it at L = 1 but not at
    L = 5/6, in the prune and in its original."""
    inst = line_instance([0, 1, 3], [1, 1, 1])
    pool = time_window._summary_pool(inst)
    a, b = (pool.intern(AtomicRep(s, 2, 0, 2, before3, 3, 2)) for s, before3 in ((0, 3), (1, 0)))
    states = [StateNode((b,), 1), StateNode((a,), 1)]
    for L, kept in ((Fraction(1), [a]), (Fraction(5, 6), [a, b])):
        assert [node.ids[0] for node in time_window._prune(states, inst, L)] == kept
        assert [node.ids[0] for node in reference_state_prune(states, inst, L)] == kept


def test_level_zero_is_ranked_not_pruned(monkeypatch):
    """No k-tuple of pruned atoms dominates another: the frozen prune keeps
    every covering atom tuple, and the solver's level 0 is those tuples
    stably sorted by exact score (its first one alone when level 0 is the
    top), without a call to _prune.  The frozen prune's own order agrees
    up to ties in exact score, which it ranks by float rounding."""
    prune = time_window._prune

    def middle_levels_only(states, instance, L):
        assert all(node.level for node in states)
        return prune(states, instance, L)

    monkeypatch.setattr(time_window, "_prune", middle_levels_only)
    probes = 0
    for inst, k, L in rank_probes():
        covering = next(prune_inputs(inst, k, L))
        ranked = sorted(covering, key=lambda n: -exact_score(n, inst, L))
        want = reference_state_prune(covering, inst, L)
        assert sorted(map(id, want)) == sorted(map(id, covering)), (inst, k, L)
        assert [exact_score(n, inst, L) for n in want] == [
            exact_score(n, inst, L) for n in ranked]
        levels = time_window._levels(inst, k, L)
        if len(levels) == 1:
            ranked = ranked[:1]
        assert [node_reps(n, inst) for n in levels[0]] == [
            node_reps(n, inst) for n in ranked], (inst, k, L)
        probes += 1
    assert probes > 150


def test_state_cap_trips_where_the_full_level_loop_did(monkeypatch):
    """DEFAULT_STATE_CAP counts a level's distinct covering joins.  The
    top level keeps one of them and the reach filter skips pairs, yet a
    cap one below a level's count in the full level loop (prune_inputs)
    trips at the first level whose count exceeds it, with the message of
    that loop, and a cap at the largest count never trips."""
    trips = Counter()
    for inst, k, L in list(rank_probes()):  # candidate lists read the cap too
        counts = [len(states) for states in prune_inputs(inst, k, L)][1:]
        for cap in sorted(set(counts) - {0}):
            monkeypatch.setattr(time_window, "DEFAULT_STATE_CAP", cap - 1)
            h = next(h for h, count in enumerate(counts, start=1) if count >= cap)
            message = f"^more than {cap - 1} states at level {h}$"
            with pytest.raises(ResourceLimitError, match=message):
                time_window._levels(inst, k, L)
            trips["top" if h == len(counts) else "middle"] += 1
        if counts:
            monkeypatch.setattr(time_window, "DEFAULT_STATE_CAP", max(counts))
            time_window._levels(inst, k, L)
    assert trips["top"] > 40 and trips["middle"] > 15, trips


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
    """The original rule: each block meets some span, by a scan of all spans."""
    return all(
        any(a <= (b + 1) * block and bnd >= b * block for a, bnd in spans)
        for b in range(blocks)
    )


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
    # one leg that ends at the duration cyclifies to two waypoints: the
    # robot still moves, and site 0 misses the block [3, 6]
    sweep = StandardSchedule(Fraction(3), 1, ((
        (Fraction(0), Fraction(0)), (Fraction(6), Fraction(6))),))
    inst = line_instance([0, 6], [1, 1])
    assert not validate_standard(sweep, inst) and not reference_validate_standard(sweep, inst)


def test_block_sweep_matches_any_rule():
    rng = random.Random(17)
    outcomes = set()
    for _ in range(3000):
        den = rng.choice((1, 2, 3))
        block = Fraction(rng.randint(1, 4), den)
        blocks = rng.randint(1, 8)
        end = block * blocks
        spans = []
        for _ in range(rng.randint(0, 6)):
            # endpoints on a grid finer than the blocks, so spans touch block
            # boundaries; a quarter of them are crossings of zero length
            a = Fraction(rng.randint(-2, int(4 * end) + 2), 4)
            spans.append((a, a if rng.random() < 0.25 else a + Fraction(rng.randint(0, 8), 4)))
        got = time_window._every_block_met(sorted(spans), block, blocks)
        assert got == reference_every_block_met(spans, block, blocks), (spans, block, blocks)
        outcomes.add(got)
    assert outcomes == {True, False}
