"""Speed validation and exact per-site latency measurement.

Visits are computed exactly: on line instances a robot moving through a
site's coordinate counts as a visit, and an interval during which a
robot rests at a site counts as continuous coverage.  On matrix and
Euclidean metrics, edges are abstract segments, so visits happen only
at waypoints that coincide with a site (within a 1e-9 tolerance that
guards float drift; exact data never needs it).

An evaluation (_evaluation) reads each track once, as its loop
(RobotTrack._loop), and runs on ints: a leg is a pair of consecutive
loop points.  The speed check works in the loops' time unit 1/U, the
common denominator (on_common_denominator) of every loop point's time
and, on the line, coordinate.  _visits refines it on the line: U times
what the site coordinates' denominators add, times the pass-through
factor, the lcm of dx // gcd(dx, dt) over moving legs, so that each
pass-through time t0 + dt*|c - x0|/dx is an integer.  On the line the
tolerances become floor(U * 1e-9) of the unit in use, exact on int keys.
Off the line a leg of distance n/q is too fast when (n*U - dt*q) *
10**9 > U*q, and a Euclidean co-location compares the math.dist double
with 1e-9, which decides exactly as its decimal read would.  A per-site
row holds its latency and weighted latency as ints in lowest terms, and
a Fraction is built only where one is read: the report's max, or a row's
property.
_visits is the one visit rule: the latencies here and the time-window
check of an accepted schedule both read it.  _evaluation and _visits
each keep their last result in one slot of the Metric's memo, for the
schedule object they were given, so validate_speed then
max_weighted_latency expand, loop and scale each track once.

A leg costs O(log n + visits): line legs bisect the metric's axis
(Metric.axis: the coordinates as ints, sorted once per metric), scaled
to the evaluation's unit, and a waypoint site's co-location group (the
sites within the tolerance) is found once per evaluation, by one matrix
row scan or a bisection window on the first Euclidean coordinate.  The
latency loop groups each track's visits by site once, then makes one
row per site.  A site served by one robot takes the cyclic max gap of
its in-order visits; a jointly served site is unrolled over the common
period, at absolute times, within an event budget shared by the whole
evaluation, and when all its visits are instants only their start times
are unrolled and sorted, as ints.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import dist, floor, gcd, lcm
from operator import sub
from typing import NamedTuple

from .errors import PeriodOverflowError, ScheduleFormatError, UnvisitedSiteError
from .instance import Instance, Metric
from .rationals import format_fraction, format_ratio, on_common_denominator, to_float, to_fraction
from .schedule import CoordPos, EdgePos, Position, RoundRobinTrack, Schedule, SitePos

VISIT_TOL = to_fraction("0.000000001")  # 1e-9, absolute: visits and speed checks

DEFAULT_EVENT_CAP = 2_000_000


@dataclass(frozen=True)
class SpeedViolation:
    robot: int
    leg: int
    distance: Fraction
    duration: Fraction

    @property
    def excess(self) -> Fraction:
        return self.distance - self.duration

    def __str__(self) -> str:
        return (f"robot {self.robot} leg {self.leg}: distance {to_float(self.distance):g} "
                f"in time {to_float(self.duration):g} (excess {to_float(self.excess):g})")


class SiteLatency(NamedTuple):
    """One site's row: its latency num/den and weighted latency wnum/wden,
    each in lowest terms with a positive denominator.  Rows compare by
    value; .latency and .weighted build their Fraction when read."""

    site: int
    weight: Fraction
    num: int
    den: int
    wnum: int
    wden: int

    @property
    def latency(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def weighted(self) -> Fraction:
        return Fraction(self.wnum, self.wden)


@dataclass(frozen=True)
class LatencyReport:
    """Per-site rows (ints, see SiteLatency) and the one Fraction a report
    always reads: the max weighted latency, at the first (smallest) site
    that reaches it."""

    per_site: tuple[SiteLatency, ...]
    max_weighted: Fraction
    argmax_site: int

    def latency_of(self, site: int) -> Fraction:
        return self.per_site[site].latency

    def to_json_dict(self) -> dict:
        weights, rows = {}, []  # each distinct weight is formatted once
        for site, w, num, den, wnum, wden in self.per_site:
            key = w.numerator, w.denominator
            weight = weights.get(key)
            if weight is None:
                weight = weights[key] = format_ratio(*key)
            latency = weighted = format_ratio(num, den)
            if wnum != num or wden != den:
                weighted = format_ratio(wnum, wden)
            rows.append({"site": site, "latency": latency, "weight": weight,
                         "weighted": weighted})
        return {"max_weighted": format_fraction(self.max_weighted),
                "argmax_site": self.argmax_site, "per_site": rows}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["site", "latency", "weight", "weighted"])
        for s in self.per_site:
            writer.writerow([s.site, *map(to_float, (s.latency, s.weight, s.weighted))])
        return buf.getvalue()


def _line_coord(pos: Position, metric: Metric) -> Fraction:
    if isinstance(pos, CoordPos):
        return pos.x
    if isinstance(pos, SitePos):
        return metric.coords[pos.site]
    a, b = metric.coords[pos.a], metric.coords[pos.b]
    return a + pos.frac * (b - a)


def position_distance(p: Position, q: Position, metric: Metric) -> Fraction:
    """Distance between two positions along a single metric edge.

    Positions not sharing an edge (after normalization) are a structural
    error: such a move would not follow a single edge of the metric.
    """
    if metric.variant == "line":
        return abs(_line_coord(p, metric) - _line_coord(q, metric))
    if isinstance(p, CoordPos) or isinstance(q, CoordPos):
        raise ScheduleFormatError("coordinate positions require a line metric")
    if isinstance(p, SitePos) and isinstance(q, SitePos):
        return metric.distance(p.site, q.site)
    if isinstance(p, SitePos):
        p, q = q, p
    # p is an EdgePos now
    d_edge = metric.distance(p.a, p.b)
    if isinstance(q, SitePos):
        if q.site == p.a:
            return p.frac * d_edge
        if q.site == p.b:
            return (1 - p.frac) * d_edge
        raise ScheduleFormatError(
            f"leg from inside edge ({p.a},{p.b}) to site {q.site} is not a single edge"
        )
    if (q.a, q.b) == (p.a, p.b):
        return abs(p.frac - q.frac) * d_edge
    raise ScheduleFormatError(
        f"leg between edges ({p.a},{p.b}) and ({q.a},{q.b}) is not a single edge"
    )


def _check_site_ids(schedule: Schedule, n: int) -> None:
    """Reject site ids outside 0..n-1: a negative id would alias a site
    counted from the end."""
    for track in schedule.robots:
        if isinstance(track, RoundRobinTrack):
            ids = [v for paths in track.trees for path in paths for v in path]
        else:
            ids = [p.site for _, p in track.waypoints if isinstance(p, SitePos)]
            ids += [i for _, p in track.waypoints if isinstance(p, EdgePos) for i in (p.a, p.b)]
        for i in ids:
            if not 0 <= i < n:
                raise ScheduleFormatError(f"site {i} is out of range 0..{n - 1}")


def _evaluation(schedule: Schedule, metric: Metric) -> tuple[int, list[list[tuple]]]:
    """(U, loops): the unit 1/U of the expanded schedule, once its site ids
    are checked, and every track's _loop in it as (t, x) ints, x the
    coordinate on the line and the position elsewhere.  The loop's last
    time is t_first + period, so U takes in every period.  validate_speed
    and _visits each read it.  The metric's memo keeps the last one under
    "evaluation", with the schedule it is for; a schedule that raises
    leaves the slot as it was."""
    kept = metric._memo.get("evaluation")
    if kept is not None and kept[0] is schedule:
        return kept[1]
    _check_site_ids(schedule, metric.n)
    line = metric.variant == "line"
    loops = [[(t, _line_coord(p, metric)) if line else (t, p) for t, p in track._loop()]
             for track in schedule.expanded(metric).robots]
    # every time and, on the line, every coordinate, in loop order
    unit, ints = on_common_denominator([v for loop in loops for point in loop
                                        for v in (point if line else point[:1])])
    ints = iter(ints)
    evaluation = unit, [[(next(ints), next(ints) if line else x) for _, x in loop]
                        for loop in loops]
    metric._memo["evaluation"] = schedule, evaluation
    return evaluation


def validate_speed(schedule: Schedule, metric: Metric) -> list[SpeedViolation]:
    """Check every leg (and the wraparound leg) against unit speed, in the
    integer unit 1/U: a line leg fails when |X1-X0| - (T1-T0) > floor(U*VISIT_TOL),
    any other leg of distance n/q when (n*U - (T1-T0)*q) * 10**9 > U*q, which
    is n/q - (T1-T0)/U > VISIT_TOL on ints."""
    unit, loops = _evaluation(schedule, metric)
    line = metric.variant == "line"
    tol = floor(unit * VISIT_TOL)
    violations = []
    for r, loop in enumerate(loops):
        for i, ((t0, p0), (t1, p1)) in enumerate(zip(loop, loop[1:])):
            if line:  # the leg's distance is d/q
                d, q = abs(p1 - p0), unit
                fast = d - (t1 - t0) > tol
            else:
                exact = position_distance(p0, p1, metric)
                d, q = exact.numerator, exact.denominator
                fast = (d * unit - (t1 - t0) * q) * 10**9 > unit * q
            if fast:
                violations.append(SpeedViolation(r, i, Fraction(d, q), Fraction(t1 - t0, unit)))
    return violations


def _sites_near(loops: list[list[tuple]], metric: Metric, unit: int):
    """The visit lookup of one evaluation's loops, built once for all
    their legs.

    Line metrics: the site ids in the metric's axis order, with their
    integer coordinates in the unit 1/unit, sorted for bisection.  Other
    metrics: the co-location group (sites within VISIT_TOL) of every site
    a loop point names, which is every site a waypoint names.
    """
    if metric.variant == "line":  # the axis' D divides unit (_visits)
        D, X, order = metric.axis()
        m = unit // D
        return [X[s] * m for s in order], order
    named = {p.site for loop in loops for _, p in loop if isinstance(p, SitePos)}
    if metric.variant == "matrix":
        return {w: [s for s, d in enumerate(metric.matrix[w]) if d <= VISIT_TOL] for w in named}
    # math.dist(p, q) <= 1e-9 decides Metric.distance(w, s) <= VISIT_TOL:
    # that read of a double is strictly increasing (see metric_core.mst) and
    # 1e-9 reads as exactly 1/10**9.  It puts q's first coordinate ([:1],
    # empty in 0-d) within 1e-9 (plus ulps) of p's; float rounding of
    # c -/+ 2e-9 is monotone, so the bisection window holds every such s.
    points = metric.points
    order = sorted(range(metric.n), key=lambda s: points[s][:1])
    keys = [points[s][:1] for s in order]
    groups = {}
    for w in named:
        p = points[w]
        lo = bisect_left(keys, tuple(c - 2e-9 for c in p[:1]))
        hi = bisect_right(keys, tuple(c + 2e-9 for c in p[:1]))
        groups[w] = [s for s in order[lo:hi] if dist(p, points[s]) <= 1e-9]
    return groups


def _track_visits(loop: list[tuple], line: bool, near, tol: int) -> dict[int, list[tuple]]:
    """Visit intervals per visited site within one period of a single track,
    each site's in time order within [t_first, t_first + period]; instantaneous
    visits are zero-length.  `loop` is the track's loop in _visits' unit 1/U,
    each pair of consecutive points a leg, `near` is _sites_near and `tol`
    is floor(U * VISIT_TOL)."""
    visits: dict[int, list[tuple]] = {}
    visit = visits.setdefault
    for (t0, p0), (t1, p1) in zip(loop, loop[1:]):
        if line:
            lo, hi = (p0, p1) if p0 <= p1 else (p1, p0)
            keys, order = near
            a, b = bisect_left(keys, lo - tol), bisect_right(keys, hi + tol)
            if p0 == p1:
                span = (t0, t1)
                for s in order[a:b]:
                    visit(s, []).append(span)
                continue
            g = gcd(t1 - t0, hi - lo)  # dt*k/dx = rate*k/step, and step divides k
            rate, step = (t1 - t0) // g, (hi - lo) // g
            for s, x in zip(order[a:b], keys[a:b]):
                k, rest = divmod(abs((lo if x < lo else hi if x > hi else x) - p0), step)
                assert not rest, "pass-through time off the unit grid"
                tc = t0 + rate * k
                visit(s, []).append((tc, tc))
        elif isinstance(p0, SitePos):
            span = (t0, t1) if p0 == p1 else (t0, t0)
            for s in near[p0.site]:
                visit(s, []).append(span)
    # Off the line a leg records the visits at its start only: its end is
    # the next leg's start, and the loop's last point, at t_first + period,
    # is its first in the next period.  A line leg's bisection window holds
    # both of its ends, so a site at a waypoint between two legs gets that
    # instant twice, once from each leg, and a site at the loop's first
    # point gets t_first and t_first + period.  The max gap is unchanged,
    # but DEFAULT_EVENT_CAP counts every copy.
    return visits


def _max_gap(intervals: list[tuple], period):
    """Longest stretch of a cycle of length `period` that no interval covers,
    in one merging pass over intervals sorted by start within [x, x + period]."""
    gap, end = 0, intervals[0][1]
    for a, b in intervals:
        if a > end:
            gap = max(gap, a - end)
        if b > end:
            end = b
    return max(intervals[0][0] + period - end, gap)


def _joint_gap(served: list[tuple[int, list]], total: int) -> int:
    """Max gap of a site that several (period, visits) serve, unrolled over
    their common period `total`.  Each visit sits at its absolute time
    modulo its track's period, so the phase between tracks that start at
    different times counts.  When every visit is an instant, only the
    sorted start times are unrolled, and the gap is the largest step
    between them or across the wrap."""
    if all(a == b for _, visits in served for a, b in visits):
        starts = sorted(chain.from_iterable(range(a % period, total, period)
                                            for period, visits in served for a, _ in visits))
        return max(starts[0] + total - starts[-1], max(map(sub, starts[1:], starts), default=0))
    intervals = []
    for period, visits in served:
        for a, b in visits:
            for start in range(a % period, total, period):
                if start + b - a > total:  # straddles the end: split it
                    intervals += [(start, total), (0, start + b - a - total)]
                else:
                    intervals.append((start, start + b - a))
    intervals.sort()
    return _max_gap(intervals, total)


def _visits(schedule: Schedule, metric: Metric) -> tuple[int, list[int], list[dict]]:
    """(U, periods, visits) of the schedule: its _evaluation's time unit
    1/U, on the line times the site-denominator and pass-through factors
    (module docstring), each track's period, its loop's last time minus
    its first, and each track's _track_visits, all ints in that unit.
    The metric's memo keeps the last one under "visits", as _evaluation
    keeps its own; readers must not change the lists."""
    kept = metric._memo.get("visits")
    if kept is not None and kept[0] is schedule:
        return kept[1]
    unit, loops = _evaluation(schedule, metric)
    line = metric.variant == "line"
    if line:  # the site coordinates' denominators, then the pass-through factor
        m = lcm(unit, metric.axis()[0]) // unit
        m *= lcm(*(abs(x1 - x0) // gcd(x1 - x0, t1 - t0) for loop in loops
                   for (t0, x0), (t1, x1) in zip(loop, loop[1:]) if x1 != x0))
        unit *= m
        loops = [[(t * m, x * m) for t, x in loop] for loop in loops]
    near = _sites_near(loops, metric, unit)
    tol = floor(unit * VISIT_TOL)
    visits = (unit, [loop[-1][0] - loop[0][0] for loop in loops],
              [_track_visits(loop, line, near, tol) for loop in loops])
    metric._memo["visits"] = schedule, visits
    return visits


def max_weighted_latency(schedule: Schedule, instance: Instance) -> LatencyReport:
    """Exact per-site latency, with wraparound.

    Each site is analyzed over the least common period of the robots
    that actually visit it, so a site served by one robot never needs a
    common-period unroll.  Visits, gaps and periods are _visits' ints
    in the unit 1/U; each latency is gap/U and each weighted latency its
    product with the weight, both reduced on ints, and the running argmax
    compares them by cross-multiplication.  Each jointly
    served site's unroll, then their running total, must stay within
    DEFAULT_EVENT_CAP visit events, else PeriodOverflowError; every site
    is checked before any site is unrolled.
    """
    unit, periods, per_track = _visits(schedule, instance.metric)
    served_by: list[list] = [[] for _ in instance.sites]  # (period, visits), in track order
    for period, vis in zip(periods, per_track):
        for s, visits in vis.items():
            served_by[s].append((period, visits))
    joint_events, totals = 0, {}  # totals: each joint site's common period
    for s, served in enumerate(served_by):
        if not served:
            raise UnvisitedSiteError(s, _name(instance, s))
        # a site one robot serves repeats with its period; only joint sites unroll
        if len(served) == 1:
            events = len(served[0][1])
        else:
            total = totals[s] = lcm(*(period for period, _ in served))
            events = sum(total // period * len(visits) for period, visits in served)
            joint_events += events
        if events > DEFAULT_EVENT_CAP:
            raise PeriodOverflowError(
                f"site {s} needs {events} visit events over the common period; "
                f"cap is {DEFAULT_EVENT_CAP}"
            )
        if joint_events > DEFAULT_EVENT_CAP:
            raise PeriodOverflowError(f"jointly served sites up to site {s} need {joint_events} "
                                      f"visit events in total; cap is {DEFAULT_EVENT_CAP}")

    rows, new, weights = [], tuple.__new__, instance.weights
    best, best_num, best_den = 0, -1, 1
    for s, served in enumerate(served_by):
        if len(served) == 1:
            gap = _max_gap(served[0][1], served[0][0])
        else:
            gap = _joint_gap(served, totals[s])
        g = gcd(gap, unit)
        num, den = gap // g, unit // g
        weight = weights[s]
        wn, wd = weight.numerator, weight.denominator
        g1, g2 = gcd(num, wd), gcd(wn, den)  # cross-reduced, as Fraction products are
        wnum, wden = num // g1 * (wn // g2), den // g2 * (wd // g1)
        rows.append(new(SiteLatency, (s, weight, num, den, wnum, wden)))
        # strict: the first (smallest) site of the highest weighted latency
        if wnum * best_den > best_num * wden:
            best, best_num, best_den = s, wnum, wden
    return LatencyReport(tuple(rows), Fraction(best_num, best_den), best)


def _name(instance: Instance, site: int) -> str | None:
    return instance.names[site] if instance.names else None
