"""The integer time-window DP against a frozen copy of its Fraction original,
and the block sweep of validate_standard against its original any() rule.

The original DP joined AtomicReps with Fraction slacks through concat and
_extreme, interned the results and pruned states by re-summarising their
reps.  The reference below keeps that level loop (with its prune), so any
change in a junction's answer, in the extremes' tie-breaks or in which
slack meets which shows up in the kept levels, the answers or the
realized schedules.
"""

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Optional

import pytest

from patrol import time_window
from patrol.cli import EXIT_OK, main
from patrol.errors import ResourceLimitError
from patrol.generate import generate_instance
from patrol.instance import line_instance, round_weights_dyadic
from patrol.rationals import to_fraction
from patrol.schedule import dump_schedule
from patrol.time_window import (
    AtomicRep,
    StandardSchedule,
    candidate_window_lengths,
    construct_schedule,
    cyclify,
    enumerate_atomics,
)
from conftest import node_reps
from test_time_window_identity import (
    exact_score,
    integer_prune_atomics,
    prune_inputs,
    reference_state_prune,
)

# --- the frozen Fraction level loop -------------------------------------------


def reference_concat(a, b, L, coords):
    if a.end is not None and b.start is not None:
        gap = abs(coords[a.end] - coords[b.start])
        if gap > (a.t_after + b.t_before) * L:
            return None
    start = a.start if a.start is not None else b.start
    end = b.end if b.end is not None else a.end
    left = reference_extreme(coords, a.left, b.left, low=True)
    right = reference_extreme(coords, a.right, b.right, low=False)
    if a.visits:
        t_before = a.t_before
    elif b.visits:
        t_before = a.t_after + b.t_before
    else:
        t_before = Fraction(0)
    t_after = b.t_after if b.visits else a.t_after + b.t_after
    return AtomicRep(start, end, left, right, int(3 * t_before), int(3 * t_after),
                     a.span + b.span)


def reference_extreme(coords, x, y, low):
    if x is None:
        return y
    if y is None:
        return x
    if low:
        return min(x, y, key=lambda i: (coords[i], i))
    return max(x, y, key=lambda i: (coords[i], -i))


@dataclass
class RefNode:
    reps: tuple
    level: int
    atoms: Optional[tuple] = None
    children: Optional[tuple] = None

    def slots(self):
        if self.level == 0:
            return [self.atoms]
        left, right = self.children
        return left.slots() + right.slots()


def reference_covers(reps, coords, sites):
    return all(
        any(r.left is not None and coords[r.left] <= coords[s] <= coords[r.right] for r in reps)
        for s in sites
    )


def reference_prune(states, coords, L):
    """The prune as it read AtomicReps: integer dominance in units of
    1/(3qD), rebuilt from each rep's Fraction slacks."""
    D = lcm(*(c.denominator for c in coords))
    X = [c.numerator * (D // c.denominator) for c in coords]
    scale, per_third = 3 * L.denominator, L.numerator * D

    def summary(rep):
        before, after = (3 * t * per_third for t in (rep.t_before, rep.t_after))
        assert before.denominator == after.denominator == 1
        before, after = int(before), int(after)
        if not rep.visits:
            return None, after
        s, e, lo, hi = (scale * X[i] for i in (rep.start, rep.end, rep.left, rep.right))
        return (s, e, lo, hi, before, after), before + after + hi - lo

    def dominates(xs, ys):
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
    kept = []
    for _, keys, node in scored:
        if not any(dominates(other, keys) for other, _ in kept):
            kept.append((keys, node))
    return [node for _, node in kept]


def reference_levels(instance, k, L):
    """(answer, levels) of the original level loop on the library's atomics."""
    coords = instance.metric.coords
    classes, _ = round_weights_dyadic(instance)
    level_sites = dict(classes.classes)
    m = classes.m
    atoms = integer_prune_atomics(
        enumerate_atomics(instance, L), time_window._summary_pool(instance).X
    )
    states = [
        RefNode(tuple(combo), 0, atoms=tuple(combo))
        for combo in product(atoms, repeat=k)
        if reference_covers(combo, coords, level_sites.get(0, ()))
    ]
    levels = [reference_prune(states, coords, L)]
    rep_ids, rep_pool = {}, []

    def intern(rep):
        if rep not in rep_ids:
            rep_ids[rep] = len(rep_pool)
            rep_pool.append(rep)
        return rep_ids[rep]

    for h in range(1, m + 1):
        prev = levels[-1]
        targets = level_sites.get(h, ())
        prev_ids = [tuple(intern(r) for r in node.reps) for node in prev]
        joins = {}
        nxt, seen = [], set()
        for left, lids in zip(prev, prev_ids):
            for right, rids in zip(prev, prev_ids):
                out = []
                for ia, ib in zip(lids, rids):
                    if (ia, ib) not in joins:
                        rep = reference_concat(rep_pool[ia], rep_pool[ib], L, coords)
                        joins[ia, ib] = -1 if rep is None else intern(rep)
                    if joins[ia, ib] < 0:
                        break
                    out.append(joins[ia, ib])
                else:
                    reps = tuple(rep_pool[i] for i in out)
                    if not reference_covers(reps, coords, targets) or tuple(out) in seen:
                        continue
                    seen.add(tuple(out))
                    nxt.append(RefNode(reps, h, children=(left, right)))
        levels.append(reference_prune(nxt, coords, L))
    answer = reference_realize(levels[m][0], coords, L) if levels[m] else None
    return answer, levels


def reference_realize(node, coords, L):
    """A RefNode replayed into motion, one _realize_track per robot."""
    slots = node.slots()
    return StandardSchedule(L, node.level, tuple(
        time_window._realize_track([slot[r] for slot in slots], coords, L)
        for r in range(len(node.reps))))


def sweep(seed, count, n_max, wmax):
    """Seeded line instances: n in 1..n_max, coordinates on a small grid
    (so duplicates are common) over one denominator of 1, 2, 3, 7, 100."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        den = rng.choice((1, 2, 3, 7, 100))
        coords = [Fraction(rng.randint(0, 9), den) for _ in range(n)]
        yield line_instance(coords, [rng.randint(1, wmax) for _ in range(n)])


def junction_cases():
    """k=1 up to n=5 and k=2 up to n=3, weights to 4 (two weight levels,
    so junctions meet pure-travel slack)."""
    cases = [(inst, 1) for inst in sweep(11, 30, 5, 4)]
    cases += [(inst, 2) for inst in sweep(23, 10, 3, 4)]
    dens = {c.denominator for inst, _ in cases for c in inst.metric.coords}
    assert {1, 2, 3, 7, 100} <= dens
    assert any(len(set(inst.metric.coords)) < inst.n for inst, k in cases if k == 1)
    assert any(len(set(inst.metric.coords)) < inst.n for inst, k in cases if k == 2)
    return cases


def realized(answer):
    return None if answer is None else dump_schedule(cyclify(answer))


def test_integer_dp_matches_fraction_reference():
    """Equal kept levels (their reps in order) below the top, the top
    level's one state equal to the reference's first, and equal answers
    and realized schedules at about eight candidate windows per case."""
    probes = yes = 0
    for inst, k in junction_cases():
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 8)]:
            *levels, top = time_window._levels(inst, k, L)
            answer = construct_schedule(inst, k, L)
            want_answer, (*want_levels, want_top) = reference_levels(inst, k, L)
            assert [[node_reps(n, inst) for n in lv] for lv in levels] == [
                [n.reps for n in lv] for lv in want_levels
            ], (inst, k, L)
            assert [node_reps(n, inst) for n in top] == [n.reps for n in want_top[:1]], (
                inst, k, L)
            assert realized(answer) == realized(want_answer)
            probes += 1
            yes += answer is not None
    assert probes > 200 and 0 < yes < probes


def rank_cases():
    """k=1 up to n=6 with weights to 4, k=2 up to n=4 with weights to 2,
    k=3 up to n=3 with weights to 2; at each k some instance has
    coincident sites and some has more than one weight level."""
    cases = [(inst, 1) for inst in sweep(30, 30, 6, 4)]
    cases += [(inst, 2) for inst in sweep(33, 12, 4, 2)]
    cases += [(inst, 3) for inst in sweep(32, 5, 3, 2)]
    for k in (1, 2, 3):
        assert any(len(set(inst.metric.coords)) < inst.n for inst, kk in cases if kk == k)
        assert any(round_weights_dyadic(inst)[0].m for inst, kk in cases if kk == k)
    return cases


def rank_probes():
    """(instance, k, L) at about four candidate windows per case."""
    for inst, k in rank_cases():
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 4)]:
            yield inst, k, L


def test_level_zero_is_ranked_not_pruned():
    """No k-tuple of pruned atoms dominates another: the frozen prune keeps
    every covering atom tuple, and the solver's level 0 is those tuples
    stably sorted by exact score (its first one alone when level 0 is the
    top).  The frozen prune's own order agrees up to ties in exact score,
    which it ranks by float rounding."""
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


def test_reach_filter_skips_only_pairs_that_cannot_cover():
    """Every pair of a level's states that the reach filter does not
    offer for joining has a robot whose Fraction join fails, or joins
    whose hulls miss a site of the next level."""
    skipped = Counter()
    for inst, k, L in rank_probes():
        coords = inst.metric.coords
        level_sites = dict(round_weights_dyadic(inst)[0].classes)
        pool = time_window._summary_pool(inst)
        levels = time_window._levels(inst, k, L)
        for h, prev in enumerate(levels[:-1], start=1):
            targets = level_sites.get(h, ())
            partners = time_window._partners(prev, targets, pool.pool, pool.X)
            for left, offered in zip(prev, partners):
                offered = set(map(id, offered))
                for right in prev:
                    if id(right) in offered:
                        continue
                    reps = [reference_concat(a, b, L, coords) for a, b in
                            zip(node_reps(left, inst), node_reps(right, inst))]
                    assert None in reps or not reference_covers(reps, coords, targets)
                    skipped[k] += 1
    assert all(skipped[k] > 50 for k in (1, 2, 3)), skipped


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


def test_decision_stops_at_the_first_covering_top_state():
    """At every probe of the k=1..3 sweep, _decide answers no exactly when
    _levels' top level is empty, and a state it returns covers the top
    level's sites and realizes into a schedule that meets its visit
    windows.  The solver still realizes _levels' top state at the window
    it accepts."""
    answers = Counter()
    for inst, k, L in rank_probes():
        decision = time_window._decide(inst, k, L)
        node = None if decision is None else decision[0]
        top = time_window._levels(inst, k, L)[-1]
        assert (node is None) == (not top), (inst, k, L)
        answers[node is not None] += 1
        if node is None:
            continue
        classes, _ = round_weights_dyadic(inst)
        assert node.level == classes.m
        sites = dict(classes.classes).get(classes.m, ())
        assert reference_covers(node_reps(node, inst), inst.metric.coords, sites)
        assert time_window.validate_standard(time_window._realize(node, inst, L), inst)
    assert answers[True] > 50 and answers[False] > 50, answers
    for inst, k in rank_cases():
        if len(set(inst.metric.coords)) == 1:
            continue  # solved without a window search
        report = time_window.solve_line_weighted(inst, k)
        L = report.L_accepted
        best = time_window._levels(inst, k, L)[-1][0]
        want = cyclify(time_window._realize(best, inst, L))
        assert dump_schedule(report.schedule) == dump_schedule(want), (inst, k)


@pytest.mark.parametrize("n, seed, k", list(product((3, 4, 5), (1, 2, 3), (1, 2))))
def test_decision_probe_stops_before_the_top_level_state_cap(monkeypatch, n, seed, k):
    """A decision probe stops at its first covering top-level join, so a
    state cap of 1 that the full top level trips lets it answer yes."""
    inst = generate_instance("line-weighted", n, seed, wmax=2)
    assert round_weights_dyadic(inst)[0].m == 1
    L = time_window.solve_line_weighted(inst, k).L_accepted
    monkeypatch.setattr(time_window, "DEFAULT_STATE_CAP", 1)
    assert time_window._decide(inst, k, L) is not None
    with pytest.raises(ResourceLimitError, match="^more than 1 states at level 1$"):
        time_window._levels(inst, k, L)
    with pytest.raises(ResourceLimitError, match="^more than 1 states at level 1$"):
        time_window.construct_schedule(inst, k, L)


def test_concat_adapter_matches_fraction_reference():
    """Joins of unpruned atoms and their pairs.  The atom prune keeps the
    lowest index among sites at one coordinate, and product order meets
    those atoms first, so the extremes' tie-breaks between distinct
    indices never change a DP level; they show here."""
    checked = 0
    instances = list(sweep(13, 12, 4, 1))
    assert any(len(set(inst.metric.coords)) < inst.n for inst in instances)
    for inst in instances:
        coords = inst.metric.coords
        cands = [c for c in candidate_window_lengths(inst, 1) if c > 0]
        for L in cands[:: max(1, len(cands) // 3)]:
            atoms = enumerate_atomics(inst, L)
            pairs = [rep for a, b in product(atoms, repeat=2)
                     if (rep := reference_concat(a, b, L, coords)) is not None]
            for a, b in product(atoms + pairs[:8], repeat=2):
                got = time_window.concat(a, b, L, coords)
                assert got == reference_concat(a, b, L, coords)
                checked += 1
    assert checked > 2000


# --- validate_standard's block sweep -------------------------------------------


def reference_every_block_met(spans, block, blocks):
    """The original rule: each block meets some span, by a scan of all spans."""
    return all(
        any(a <= (b + 1) * block and bnd >= b * block for a, bnd in spans)
        for b in range(blocks)
    )


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


def test_tiny_weight_solves(tmp_path):
    """Fourteen weight levels: 2^14 aligned blocks per site to validate."""
    inst_path, rep_path = tmp_path / "inst.json", tmp_path / "r.json"
    inst_path.write_text(json.dumps(
        {"kind": "line", "metric": {"type": "line", "data": [0, 1, 2]},
         "weights": [1, 1, "1e-4"]}
    ))
    assert main(["solve", "--instance", str(inst_path), "--algo", "line-weighted",
                 "--k", "1", "--out-report", str(rep_path)]) == EXIT_OK
    report = json.loads(rep_path.read_text())
    assert to_fraction(report["L_accepted"]) == 6
    assert to_fraction(report["measured"]) == 12
