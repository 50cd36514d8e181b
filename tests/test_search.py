"""smallest_accepted, the one bisection behind the interval cover, the
time-window search and the tree cover, against a linear scan; and the
time-window solver's search against a frozen copy of its original loop."""

import random

import pytest

from patrol import time_window
from patrol.generate import generate_instance
from patrol.rationals import smallest_accepted
from patrol.schedule import dump_schedule
from patrol.time_window import (
    candidate_window_lengths,
    cyclify,
    solve_line_weighted,
    validate_standard,
)


def threshold_probe(threshold, calls, accepted=True):
    """A monotone probe accepting every index >= threshold with `accepted`
    as its result, recording each probed index in calls."""

    def probe(i):
        calls.append(i)
        return accepted if i >= threshold else None

    return probe


def check_search(lo, hi, threshold, accepted=True):
    calls = []
    index, got = smallest_accepted(lo, hi, threshold_probe(threshold, calls, accepted))
    assert len(calls) <= (hi - lo).bit_length() + 1  # ceil(log2(hi - lo + 1)) + 1
    if hi in calls:  # hi is probed last, and only when every other probe rejects
        assert calls.index(hi) == len(calls) - 1
        assert all(i < threshold for i in calls[:-1])
    return index, got, calls


@pytest.mark.parametrize("seed", range(40))
def test_smallest_accepted_matches_linear_scan(seed):
    rng = random.Random(seed)
    lo = rng.randrange(-50, 50)
    hi = lo + rng.randrange(0, 70)
    threshold = rng.randrange(lo, hi + 2)  # hi + 1: nothing is accepted
    probe = threshold_probe(threshold, [])
    scan = next((i for i in range(lo, hi + 1) if probe(i) is not None), hi)
    index, got, calls = check_search(lo, hi, threshold)
    assert index == scan
    assert got is (True if threshold <= hi else None)
    assert (hi in calls) == (threshold >= hi)


def test_smallest_accepted_single_index():
    for threshold in (5, 6):
        index, got, calls = check_search(5, 5, threshold)
        assert (index, calls) == (5, [5])
        assert got is (True if threshold == 5 else None)


@pytest.mark.parametrize("lo, hi", [(1, 2**120), (0, 10**4000)])
def test_smallest_accepted_on_huge_ranges(lo, hi):
    rng = random.Random(hi.bit_length())
    thresholds = [lo, lo + 1, hi - 1, hi, hi + 1] + [rng.randint(lo, hi) for _ in range(20)]
    for threshold in thresholds:
        index, got, calls = check_search(lo, hi, threshold)
        assert index == min(threshold, hi)
        assert (hi in calls) == (threshold >= hi)
        assert (got is None) == (threshold > hi)


@pytest.mark.parametrize("falsy", [[], 0])
def test_falsy_result_counts_as_accepted(falsy):
    index, got, calls = check_search(0, 100, 37, accepted=falsy)
    assert index == 37 and got == falsy and type(got) is type(falsy)
    assert 100 not in calls


def reference_search(instance, k, construct):
    """solve_line_weighted's search as it was before smallest_accepted: its
    own loop, the top-candidate fallback and the visit-window check."""
    candidates = [c for c in candidate_window_lengths(instance, k) if c > 0]
    lo, hi = 0, len(candidates) - 1
    best = None

    def probe(idx):
        return construct(instance, k, candidates[idx])

    while lo < hi:
        mid = (lo + hi) // 2
        got = probe(mid)
        if got is not None:
            hi, best = mid, got
        else:
            lo = mid + 1
    if best is None:
        best = probe(hi)
    assert validate_standard(best, instance)
    return best.window, cyclify(best)


LINE_CASES = [(n, wmax, 1, seed) for n in range(2, 7) for wmax in (2, 4) for seed in (1, 2)]
LINE_CASES += [(n, 2, 2, seed) for n in (2, 3) for seed in (1, 2, 3)]


@pytest.mark.parametrize("n, wmax, k, seed", LINE_CASES)
def test_line_weighted_probes_match_original_loop(monkeypatch, n, wmax, k, seed):
    inst = generate_instance("line-weighted", n, seed, wmax=wmax)
    decide = time_window._decide
    probes = []

    def spy(instance, k, L, *caps):
        answer = decide(instance, k, L, *caps)
        probes.append((L, answer is not None))
        return answer

    # the solver probes the decision alone; construct_schedule decides
    # through the same name, so the reference loop's probes land here too
    monkeypatch.setattr(time_window, "_decide", spy)
    report = solve_line_weighted(inst, k)
    solver_probes, probes[:] = list(probes), []
    L, schedule = reference_search(inst, k, time_window.construct_schedule)
    assert solver_probes == probes
    assert report.L_accepted == L
    assert dump_schedule(report.schedule) == dump_schedule(schedule)
