"""The time-window atomic layer against a frozen copy of its original code.

The original enumerated the visiting 4-tuples with exact Fractions on
every probe, pruned them with a pairwise, order-dependent scan under
_dominates, and ran the same 4-tuple loop again for the candidate window
lengths.  The reference below keeps that code, so any change in which
atomics survive (or in their order), in the candidate list, in the DP
levels built on the atomics, or in a solve shows up here.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from patrol import time_window
from patrol.instance import dump_instance, line_instance, round_weights_dyadic
from patrol.schedule import dump_schedule
from patrol.time_window import (
    AtomicRep,
    candidate_window_lengths,
    construct_schedule,
    enumerate_atomics,
    solve_line_weighted,
    type_two,
)

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
        AtomicRep(s, e, left, right, Fraction(0), TWO_THIRDS, 1)
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
    """construct_schedule and solve_line_weighted on the original
    enumeration, prune and candidate list.  construct_schedule prunes the
    list it has just enumerated, so the prune reads that instance's
    coordinates; every atomic has equal slacks, so the original prune's
    result does not depend on the L it is given."""
    last = {}

    def enumerate_(instance, L):
        last["coords"] = instance.metric.coords
        return reference_enumerate(instance.metric.coords, L)

    monkeypatch.setattr(time_window, "enumerate_atomics", enumerate_)
    monkeypatch.setattr(time_window, "_prune_atomics",
                        lambda reps, scaled: reference_prune(reps, last["coords"], Fraction(1)))
    monkeypatch.setattr(time_window, "candidate_window_lengths",
                        lambda instance, k: reference_candidates(instance))


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
            pruned = time_window._prune_atomics(got, time_window._atomic_table(inst)[1])
            assert pruned == reference_prune(got, coords, L)
            lists += 1
    assert lists > 400


def test_candidates_match_reference():
    for inst in sweep(2, 200, 6, 8):
        assert candidate_window_lengths(inst, 1) == reference_candidates(inst)


def levels_and_solve(inst, k):
    cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
    levels = []
    for L in cands[:: max(1, len(cands) // 4)]:
        answer, lv = construct_schedule(inst, k, L, keep_levels=True)
        levels.append(
            (answer is None, [[node.reps for node in level] for level in lv])
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


def test_table_leaves_metric_identity_alone():
    inst = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7)], [1, 2, 3, 4])
    twin = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7)], [1, 2, 3, 4])
    before = (hash(inst.metric), repr(inst.metric), dump_instance(inst))
    enumerate_atomics(inst, Fraction(10))
    assert "atomics" in inst.metric._memo and not twin.metric._memo
    assert inst.metric == twin.metric and inst == twin
    assert (hash(inst.metric), repr(inst.metric), dump_instance(inst)) == before
    table = time_window._atomic_table(inst)
    assert time_window._atomic_table(inst) is table
    assert time_window._atomic_table(twin) is not table
