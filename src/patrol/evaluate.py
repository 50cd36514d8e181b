"""Speed validation and exact per-site latency measurement.

Visits are computed exactly: on line instances a robot moving through a
site's coordinate counts as a visit, and an interval during which a
robot rests at a site counts as continuous coverage.  On matrix and
Euclidean metrics, edges are abstract segments, so visits happen only
at waypoints that coincide with a site (within a 1e-9 tolerance that
guards float drift; exact data never needs it).

A leg costs O(log n + visits): line legs bisect the coordinates sorted
once per evaluation, and a waypoint site's co-location group (the sites
within the tolerance) is found once per evaluation, by one matrix row
scan or a bisection window on the first Euclidean coordinate.  A site
served by one robot takes the cyclic max gap of its in-order visits; a
jointly served site is unrolled over the common period, at absolute
times, in integers scaled by one denominator.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from .errors import (
    PeriodOverflowError,
    ScheduleFormatError,
    UnvisitedSiteError,
)
from .instance import Instance, Metric
from .rationals import format_fraction, lcm_fractions, to_fraction
from .schedule import CoordPos, EdgePos, Position, RobotTrack, RoundRobinTrack, Schedule, SitePos

VISIT_TOL = to_fraction("0.000000001")  # 1e-9, absolute, on coordinates/distances
SPEED_TOL = VISIT_TOL

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
        return (
            f"robot {self.robot} leg {self.leg}: distance {float(self.distance):g} "
            f"in time {float(self.duration):g} (excess {float(self.excess):g})"
        )


@dataclass(frozen=True)
class SiteLatency:
    site: int
    latency: Fraction
    weight: Fraction
    weighted: Fraction


@dataclass(frozen=True)
class LatencyReport:
    per_site: tuple[SiteLatency, ...]
    max_weighted: Fraction
    argmax_site: int

    def latency_of(self, site: int) -> Fraction:
        return self.per_site[site].latency

    def to_json_dict(self) -> dict:
        return {
            "max_weighted": format_fraction(self.max_weighted),
            "argmax_site": self.argmax_site,
            "per_site": [
                {
                    "site": s.site,
                    "latency": format_fraction(s.latency),
                    "weight": format_fraction(s.weight),
                    "weighted": format_fraction(s.weighted),
                }
                for s in self.per_site
            ],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["site", "latency", "weight", "weighted"])
        for s in self.per_site:
            writer.writerow(
                [s.site, float(s.latency), float(s.weight), float(s.weighted)]
            )
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


def validate_speed(schedule: Schedule, metric: Metric) -> list[SpeedViolation]:
    """Check every leg (and the wraparound leg) against unit speed."""
    _check_site_ids(schedule, metric.n)
    schedule = schedule.expanded(metric)
    violations = []
    for r, track in enumerate(schedule.robots):
        for leg_idx, (t0, p0, t1, p1) in enumerate(track.legs()):
            d = position_distance(p0, p1, metric)
            if d > (t1 - t0) + SPEED_TOL:
                violations.append(SpeedViolation(r, leg_idx, d, t1 - t0))
    return violations


def combined_period(
    schedule: Schedule, metric: Metric | None = None, event_cap: int = DEFAULT_EVENT_CAP
) -> Fraction:
    """Least common period of all robot tracks.

    Raises PeriodOverflowError when unrolling every track to the common
    period would exceed event_cap waypoint events.
    """
    if metric is not None:
        schedule = schedule.expanded(metric)
    if any(not isinstance(t, RobotTrack) for t in schedule.robots):
        raise ScheduleFormatError("symbolic tracks need a metric to expand")
    periods = [t.period for t in schedule.robots]
    total = lcm_fractions(periods)
    events = 0
    for track in schedule.robots:
        events += int(total / track.period) * max(len(track.waypoints), 1)
        if events > event_cap:
            raise PeriodOverflowError(
                f"common period {total} needs more than {event_cap} events"
            )
    return total


def _sites_near(schedule: Schedule, metric: Metric):
    """The visit lookup of one evaluation, built once for all its legs.

    Line metrics: site ids sorted by coordinate, with the sorted
    coordinates, for bisection.  Other metrics: the co-location group
    (sites within VISIT_TOL) of every site a waypoint names.
    """
    if metric.variant == "line":
        order = sorted(range(metric.n), key=metric.coords.__getitem__)
        return [metric.coords[s] for s in order], order
    named = {p.site for t in schedule.robots for _, p in t.waypoints if isinstance(p, SitePos)}
    if metric.variant == "matrix":
        return {w: [s for s, d in enumerate(metric.matrix[w]) if d <= VISIT_TOL] for w in named}
    # math.dist(w, s) <= 1e-9 puts s's first coordinate ([:1], empty in 0-d)
    # within 1e-9 (plus ulps) of w's; float rounding of c -/+ 2e-9 is monotone,
    # so the bisection window holds every such s and the predicate decides.
    order = sorted(range(metric.n), key=lambda s: metric.points[s][:1])
    keys = [metric.points[s][:1] for s in order]
    groups = {}
    for w in named:
        head = metric.points[w][:1]
        lo = bisect_left(keys, tuple(c - 2e-9 for c in head))
        hi = bisect_right(keys, tuple(c + 2e-9 for c in head))
        groups[w] = [s for s in order[lo:hi] if metric.distance(w, s) <= VISIT_TOL]
    return groups


def _track_visits(
    track: RobotTrack, metric: Metric, near
) -> dict[int, list[tuple[Fraction, Fraction]]]:
    """Visit intervals per visited site within one period of a single track.

    Instantaneous visits are zero-length intervals.  Each site's list is
    in time order within [t_first, t_first + period].  `near` is the
    evaluation's _sites_near lookup.
    """
    visits: dict[int, list[tuple[Fraction, Fraction]]] = {}
    line = metric.variant == "line"
    for t0, p0, t1, p1 in track.legs():
        if line:
            x0, x1 = _line_coord(p0, metric), _line_coord(p1, metric)
            lo, hi = min(x0, x1), max(x0, x1)
            keys, order = near
            for s in order[bisect_left(keys, lo - VISIT_TOL):bisect_right(keys, hi + VISIT_TOL)]:
                if x0 == x1:
                    visits.setdefault(s, []).append((t0, t1))
                else:
                    cc = min(max(metric.coords[s], lo), hi)
                    tc = t0 + (t1 - t0) * abs(cc - x0) / (hi - lo)
                    visits.setdefault(s, []).append((tc, tc))
        elif isinstance(p0, SitePos):
            span = (t0, t1) if p0 == p1 else (t0, t0)
            for s in near[p0.site]:
                visits.setdefault(s, []).append(span)
    # The end of each leg is the start of the next, so endpoint visits are
    # recorded once per leg start; the final wrap leg ends at t_first+period,
    # which is the first leg's start in the next period.
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


def _joint_gap(served: list[tuple[RobotTrack, list]], total: Fraction) -> Fraction:
    """Max gap of a site that several (track, visits) serve, unrolled over the
    common period `total` in integers scaled by one common denominator.  Each
    visit sits at its absolute time modulo its track's period, so the phase
    between tracks that start at different times counts."""
    den = lcm(*(t.denominator for track, visits in served
                for t in (track.period, *(t for visit in visits for t in visit))))
    span = int(total * den)
    intervals = []
    for track, visits in served:
        period = int(track.period * den)
        for a, b in visits:
            length = int((b - a) * den)
            for start in range(int(a * den) % period, span, period):
                if start + length > span:  # straddles the end: split it
                    intervals += [(start, span), (0, start + length - span)]
                else:
                    intervals.append((start, start + length))
    intervals.sort()
    return Fraction(_max_gap(intervals, span), den)


def max_weighted_latency(
    schedule: Schedule,
    instance: Instance,
    event_cap: int = DEFAULT_EVENT_CAP,
) -> LatencyReport:
    """Exact per-site latency, with wraparound.

    Each site is analyzed over the least common period of the robots
    that actually visit it, so a site served by one robot never needs a
    common-period unroll.  A jointly served site whose unroll would
    exceed event_cap raises PeriodOverflowError.
    """
    _check_site_ids(schedule, instance.n)
    schedule = schedule.expanded(instance.metric)
    if not schedule.robots:
        raise UnvisitedSiteError(0, _name(instance, 0))
    near = _sites_near(schedule, instance.metric)
    per_track = [_track_visits(t, instance.metric, near) for t in schedule.robots]

    latencies: list[Fraction] = []
    for s in instance.sites:
        served = [(track, vis[s]) for track, vis in zip(schedule.robots, per_track) if s in vis]
        if not served:
            raise UnvisitedSiteError(s, _name(instance, s))
        # a site served by one robot repeats with that robot's own period;
        # only jointly served sites need a common period unroll
        total = lcm_fractions(track.period for track, _ in served)
        events = sum(int(total / track.period) * len(visits) for track, visits in served)
        if events > event_cap:
            raise PeriodOverflowError(
                f"site {s} needs {events} visit events over the common period; "
                f"cap is {event_cap}"
            )
        if len(served) == 1:
            latencies.append(_max_gap(served[0][1], total))
        else:
            latencies.append(_joint_gap(served, total))

    rows = tuple(
        SiteLatency(s, lat, instance.weights[s], instance.weights[s] * lat)
        for s, lat in zip(instance.sites, latencies)
    )
    best = max(rows, key=lambda row: (row.weighted, -row.site))
    return LatencyReport(rows, best.weighted, best.site)


def _name(instance: Instance, site: int) -> Optional[str]:
    return instance.names[site] if instance.names else None
