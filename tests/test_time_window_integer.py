"""The integer junction, the reach filter and the decision procedure of
the time-window DP against Fraction rules.

The original DP joined AtomicReps with Fraction slacks through concat and
_extreme.  The reference below keeps that join, so any change in a
junction's answer, in the extremes' tie-breaks or in which slack meets
which shows up here; the reach filter's skipped pairs are held to it.
The level loop and its prune are held to their originals in
test_time_window_identity.py.
"""
import json
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from patrol import time_window
from patrol.cli import EXIT_OK, main
from patrol.errors import ResourceLimitError
from patrol.generate import generate_instance
from patrol.instance import round_weights_dyadic
from patrol.rationals import to_fraction
from patrol.schedule import dump_schedule
from patrol.time_window import (
    AtomicRep,
    candidate_window_lengths,
    cyclify,
    enumerate_atomics,
)
from conftest import line_sweep, node_reps, rank_cases, rank_probes

# --- the frozen Fraction join -------------------------------------------


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


def reference_covers(reps, coords, sites):
    return all(
        any(r.left is not None and coords[r.left] <= coords[s] <= coords[r.right] for r in reps)
        for s in sites
    )


def test_reach_filter_skips_only_pairs_that_cannot_cover():
    """The reach filter offers a pair of a level's states for joining
    exactly when their robots' hulls together reach the next level's
    leftmost and rightmost sites; every pair it does not offer has a robot
    whose Fraction join fails, or joins whose hulls miss a site."""
    skipped = Counter()
    for inst, k, L in rank_probes():
        coords = inst.metric.coords
        level_sites = dict(round_weights_dyadic(inst)[0].classes)
        pool = time_window._summary_pool(inst)
        levels = time_window._levels(inst, k, L)
        for h, prev in enumerate(levels[:-1], start=1):
            targets = level_sites.get(h, ())
            ends = [coords[s] for s in targets] or [0]
            reach = {}  # bit 1: a robot's hull reaches the leftmost site, bit 2: the rightmost
            for node in prev:
                reach[id(node)] = 0 if targets else 3
                for r in node_reps(node, inst):
                    if r.visits:
                        reach[id(node)] |= (coords[r.left] <= min(ends)) | (
                            coords[r.right] >= max(ends)) << 1
            partners = time_window._partners(prev, targets, pool.pool, pool.X)
            for left, offered in zip(prev, partners):
                offered = set(map(id, offered))
                for right in prev:
                    assert (id(right) in offered) == (reach[id(left)] | reach[id(right)] == 3)
                    if id(right) in offered:
                        continue
                    reps = [reference_concat(a, b, L, coords) for a, b in
                            zip(node_reps(left, inst), node_reps(right, inst))]
                    assert None in reps or not reference_covers(reps, coords, targets)
                    skipped[k] += 1
    assert all(skipped[k] > 50 for k in (1, 2, 3)), skipped


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
    instances = list(line_sweep(13, 12, 4, 1))
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
