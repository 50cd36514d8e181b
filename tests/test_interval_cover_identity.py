"""min_interval_cover against a frozen copy of its original search.

The original built every pairwise coordinate difference as a Fraction,
sorted them, and bisected that candidate list with a linear greedy sweep
per probe.  The reference below keeps that code, so any change in which
cover min_interval_cover returns shows up as a difference in the
intervals or in max_length.  _min_cover_cap, which bisects only the
bracket its gaps prove, is held to a frozen copy of its bisection of
every integer length from 0 to the span.
"""

import random
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from patrol import line_uniform
from patrol.generate import generate_instance
from patrol.line_uniform import IntervalCover, _greedy_cover, _min_cover_cap, min_interval_cover
from patrol.rationals import smallest_accepted


def reference_greedy_cover(points, length):
    intervals = []
    i, n = 0, len(points)
    while i < n:
        start = points[i]
        j = i
        while j + 1 < n and points[j + 1] - start <= length:
            j += 1
        intervals.append((start, points[j]))
        i = j + 1
    return intervals


def reference_min_interval_cover(points, k):
    pts = sorted(Fraction(p) for p in points)
    candidates = sorted({b - a for i, a in enumerate(pts) for b in pts[i:]})
    lo, hi = 0, len(candidates) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if len(reference_greedy_cover(pts, candidates[mid])) <= k:
            hi = mid
        else:
            lo = mid + 1
    intervals = reference_greedy_cover(pts, candidates[hi])
    max_len = max(b - a for a, b in intervals)
    return IntervalCover(tuple(intervals), max_len)


def primes(count):
    found = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found if p * p <= candidate):
            found.append(candidate)
        candidate += 1
    return found


def seeded_inputs():
    rng = random.Random(2004)
    for _ in range(80):  # integers, with duplicates and negatives
        n = rng.randint(1, 14)
        yield [rng.randint(-20, 40) for _ in range(n)]
    for _ in range(80):  # mixed Fractions, negative ones and duplicates
        n = rng.randint(1, 14)
        pts = [Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(n)]
        yield pts + rng.sample(pts, rng.randint(0, len(pts)))
    for n in (1, 2, 5):  # all points equal
        yield [Fraction(7, 3)] * n
    yield [Fraction(-5, 2)]
    for seed in range(4):  # the generator's 0.01 grid, unsorted order kept
        coords = list(generate_instance("line-uniform", rng.randint(2, 40), seed).metric.coords)
        rng.shuffle(coords)
        yield coords


def test_interval_cover_matches_original_search():
    cases = 0
    for pts in seeded_inputs():
        for k in (1, 2, 3, 5, len(pts), len(pts) + 2):
            assert min_interval_cover(pts, k) == reference_min_interval_cover(pts, k)
            cases += 1
    assert cases == 168 * 6


def test_interval_cover_with_distinct_prime_denominators():
    # the common denominator of 800 distinct primes has about 10^4 bits
    rng = random.Random(11)
    pts = [Fraction(p * rng.randint(-10, 9) + rng.randrange(1, p), p) for p in primes(800)]
    assert {p.denominator for p in pts} == set(primes(800))
    assert min_interval_cover(pts, 3) == reference_min_interval_cover(pts, 3)


def frozen_min_cover_cap(ipts, k):
    return smallest_accepted(0, ipts[-1] - ipts[0], lambda cap: _greedy_cover(ipts, cap, k))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
@example([7])  # span 0
@example([3, 3, 3, -2, -2])  # duplicates
@example([0, 1, 2, 3, 1000])  # one wide gap
def test_bracketed_cover_cap_matches_bisection_from_zero(points):
    ipts = sorted(points)
    for k in range(1, len(ipts) + 2):
        assert _min_cover_cap(ipts, k) == frozen_min_cover_cap(ipts, k), (ipts, k)


def test_one_interval_cover_runs_one_probe(monkeypatch):
    probes = []

    def counted(ipts, length, limit):
        probes.append(length)
        return _greedy_cover(ipts, length, limit)

    monkeypatch.setattr(line_uniform, "_greedy_cover", counted)
    for ipts in ([5], [0, 0], [-3, 1, 1, 8, 40], list(range(0, 300, 7))):
        probes.clear()
        assert _min_cover_cap(ipts, 1) == (ipts[-1] - ipts[0], [(0, len(ipts) - 1)])
        assert probes == [ipts[-1] - ipts[0]], (ipts, probes)
