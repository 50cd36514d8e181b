"""Exact schedules for sites on a line.

Uniform weights: an optimal schedule is k disjoint zigzags, one per
interval of a minimum k-interval cover of the coordinates.  Arbitrary
weights with a single robot: the full-span zigzag is optimal, with a
closed-form latency per site.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import nlargest
from .errors import IncompatibleAlgorithmError
from .instance import Instance
from .rationals import on_common_denominator, smallest_accepted
from .report import SolveReport, build_report
from .schedule import Schedule, zigzag_track


@dataclass(frozen=True)
class IntervalCover:
    """Disjoint sorted intervals covering every site coordinate."""

    intervals: tuple[tuple[Fraction, Fraction], ...]
    max_length: Fraction


def _greedy_cover(ipts: list[int], length: int, limit: int) -> list[tuple[int, int]] | None:
    """Left-to-right sweep over sorted integers: anchor an interval at the
    leftmost uncovered point and stretch it to the last point within
    `length` of it.  Returns the (first, last) index pairs, or None as
    soon as more than `limit` intervals would be needed."""
    intervals = []
    i, n = 0, len(ipts)
    while i < n:
        if len(intervals) == limit:
            return None
        j = bisect_right(ipts, ipts[i] + length, i)
        intervals.append((i, j - 1))
        i = j
    return intervals


def _min_cover_cap(ipts: list[int], k: int) -> tuple[int, list[tuple[int, int]]]:
    """The smallest integer length at which _greedy_cover covers the
    sorted ints ipts with at most k intervals, and that sweep's pairs.
    Only [ceil((span - G) / k), span // k] is bisected, G the k - 1 largest
    gaps summed, as acceptance is monotone: a cover's k runs of extent <= c
    and k - 1 gaps make up its span, and at the top c the sweep's starts
    are over c apart, so its k-th interval, if any, reaches ipts[-1]."""
    span = ipts[-1] - ipts[0]
    uncovered = sum(nlargest(k - 1, [b - a for a, b in zip(ipts, ipts[1:])]))
    return smallest_accepted(-((uncovered - span) // k), span // k,
                             lambda cap: _greedy_cover(ipts, cap, k))


def min_interval_cover(points, k: int) -> IntervalCover:
    """Exact minimum of the max interval length over covers of the points
    by at most k intervals.

    The coordinates are scaled to integers by one common denominator D
    (the lcm of their distinct denominators), and the smallest integer
    length in [0, span * D] at which the greedy sweep needs at most k
    intervals is found by bisecting _min_cover_cap's bracket: O(log(span *
    D)) probes, each an early-exit sweep of O(k log n).  This is exact as
    feasibility is monotone in the length and the optimum is a pairwise
    coordinate difference (any optimal interval can be shrunk to span
    exactly its leftmost and rightmost point), an integer after scaling.
    The cover is the accepted sweep at that length; the points are read
    once, by on_common_denominator, and sorted as ints, and only the ends
    of its intervals become Fractions again.
    """
    scale, ipts = on_common_denominator(p if type(p) is Fraction else Fraction(p) for p in points)
    if not ipts:
        raise ValueError("no points to cover")
    if k < 1:
        raise ValueError("k must be positive")
    ipts.sort()
    _, pieces = _min_cover_cap(ipts, k)
    intervals = [(Fraction(ipts[i], scale), Fraction(ipts[j], scale)) for i, j in pieces]
    max_len = max(b - a for a, b in intervals)
    return IntervalCover(tuple(intervals), max_len)


def solve_line_uniform(instance: Instance, k: int) -> SolveReport:
    """Optimal uniform-weight schedule: disjoint zigzags over a minimum
    k-interval cover.  The optimum value is 2 * weight * cover length."""
    if not instance.is_line():
        raise IncompatibleAlgorithmError("line-uniform needs a line instance")
    w = instance.uniform_weight()
    if w is None:
        raise IncompatibleAlgorithmError("line-uniform needs uniform weights")
    if k < 1:
        raise ValueError("k must be positive")
    cover = min_interval_cover(instance.metric.coords, k)
    tracks = tuple(zigzag_track(a, b) for a, b in cover.intervals)
    optimum = 2 * w * cover.max_length
    return build_report(
        Schedule(tracks),
        instance,
        algo="line-uniform",
        k=k,
        L_accepted=cover.max_length,
        lower_bound=optimum,
    )


def single_zigzag_value(instance: Instance) -> Fraction:
    """Closed-form optimum for one robot sweeping the full span: the worst
    site pays twice its distance to the farther end, times its weight."""
    coords = instance.metric.coords
    left, right = min(coords), max(coords)
    return max(
        w * 2 * max(c - left, right - c) for c, w in zip(coords, instance.weights)
    )


def solve_line_single_weighted(instance: Instance) -> SolveReport:
    """Single-robot weighted line schedule: zigzag between the extremes."""
    if not instance.is_line():
        raise IncompatibleAlgorithmError("line-single needs a line instance")
    coords = instance.metric.coords
    value = single_zigzag_value(instance)
    track = zigzag_track(min(coords), max(coords))
    return build_report(
        Schedule((track,)),
        instance,
        algo="line-single",
        k=1,
        L_accepted=value,
        lower_bound=value,
    )
