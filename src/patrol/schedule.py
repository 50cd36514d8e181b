"""Periodic schedule representation and serialization.

A schedule is a list of robot tracks.  The common track form is a
period plus timed waypoints; between consecutive waypoints the robot
moves at constant speed along a single edge of the metric (or along the
line), or waits in place.  A track may instead be stored symbolically
as a round-robin walk over path pieces, which the evaluator expands.

Times and coordinates are exact rationals and serialize as decimal
strings where possible ("2.5") and as "p/q" otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from typing import Sequence, Union

from .errors import ResourceLimitError, ScheduleFormatError
from .instance import Metric
from .rationals import format_fraction, on_common_denominator, to_fraction

EXPAND_ROUND_CAP = 2_000_000  # rounds a round-robin track may take to close


@dataclass(frozen=True)
class SitePos:
    site: int


@dataclass(frozen=True)
class CoordPos:
    """A 1D coordinate (line instances only)."""

    x: Fraction


@dataclass(frozen=True)
class EdgePos:
    """A point along the metric edge (a, b), at `frac` of the way from a."""

    a: int
    b: int
    frac: Fraction


Position = Union[SitePos, CoordPos, EdgePos]


def normalize_position(pos: Position) -> Position:
    """pos with an edge fraction checked to lie in [0, 1]; an edge position
    at either end, or on an edge from a site to itself, reads as that site,
    and any other as EdgePos(a, b, frac) with a < b."""
    if isinstance(pos, EdgePos):
        if not 0 <= pos.frac <= 1:
            raise ScheduleFormatError(f"edge fraction out of range: {pos.frac}")
        if pos.frac == 0 or pos.a == pos.b:
            return SitePos(pos.a)
        if pos.frac == 1:
            return SitePos(pos.b)
        if pos.a > pos.b:
            return EdgePos(pos.b, pos.a, 1 - pos.frac)
    return pos


@dataclass(frozen=True)
class RobotTrack:
    """One robot's periodic motion: timed waypoints wrapped at `period`."""

    period: Fraction
    waypoints: tuple[tuple[Fraction, Position], ...]

    def __post_init__(self):
        if self.period <= 0:
            raise ScheduleFormatError("track period must be positive")
        if not self.waypoints:
            raise ScheduleFormatError("track needs at least one waypoint")
        times = [t for t, _ in self.waypoints]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ScheduleFormatError("waypoint times must be strictly increasing")
        if times[0] < 0:
            raise ScheduleFormatError("waypoint times must be nonnegative")
        if times[-1] - times[0] > self.period:
            raise ScheduleFormatError("waypoints span more than one period")

    def _loop(self) -> list[tuple[Fraction, Position]]:
        """The ends of the track's legs in order: its waypoints, then its
        first waypoint one period later, unless the last waypoint already
        closes the loop, as a full-period track's must."""
        (t_first, p_first), (t_last, p_last) = self.waypoints[0], self.waypoints[-1]
        if t_last - t_first < self.period:
            return [*self.waypoints, (t_first + self.period, p_first)]
        if p_last != p_first:
            raise ScheduleFormatError("full-period track must wrap to its start")
        return list(self.waypoints)

    def legs(self) -> list[tuple[Fraction, Position, Fraction, Position]]:
        """Consecutive (t0, p0, t1, p1) legs including the wraparound leg."""
        points = self._loop()
        return [a + b for a, b in zip(points, points[1:])]


@dataclass(frozen=True)
class RoundRobinTrack:
    """Symbolic track: cycle over trees, one path piece per tree per turn.

    trees[i] is the ordered tuple of path pieces for tree i (each piece a
    tuple of site ids).  The robot traverses the current piece of tree i,
    then moves to the start of tree (i+1)'s current piece; a tree's piece
    index advances each time that tree is visited.  Used when the fully
    expanded period would be unreasonably long to materialize eagerly.
    """

    trees: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if not self.trees:
            raise ScheduleFormatError("round-robin track needs at least one tree")
        if not all(self.trees):
            raise ScheduleFormatError("round-robin tree needs at least one path")
        if not all(all(paths) for paths in self.trees):
            raise ScheduleFormatError("round-robin path needs at least one site")

    def rounds_to_repeat(self) -> int:
        counts = [len(paths) for paths in self.trees]
        return len(self.trees) * lcm(*counts)

    def expand(self, metric: Metric) -> RobotTrack:
        rounds = self.rounds_to_repeat()
        if rounds > EXPAND_ROUND_CAP:
            raise ResourceLimitError(
                f"round-robin track needs {rounds} rounds to close; cap is {EXPAND_ROUND_CAP}"
            )
        return expand_round_robin(self.trees, metric)


Track = Union[RobotTrack, RoundRobinTrack]


@dataclass(frozen=True)
class Schedule:
    robots: tuple[Track, ...]

    def expanded(self, metric: Metric) -> "Schedule":
        return Schedule(
            tuple(
                r.expand(metric) if isinstance(r, RoundRobinTrack) else r
                for r in self.robots
            )
        )


def expand_round_robin(
    trees: Sequence[Sequence[Sequence[int]]], metric: Metric
) -> RobotTrack:
    """Materialize one full period of the round-robin walk.

    Round r traverses piece r // h (modulo its piece count) of tree r % h;
    after h * lcm(piece counts) rounds every piece index has wrapped, and
    the walk closes back at its first site."""
    h = len(trees)
    rounds = h * lcm(*(len(paths) for paths in trees))
    start = trees[0][0][0]
    walk = chain.from_iterable(trees[r % h][r // h % len(trees[r % h])] for r in range(rounds))
    moves, pos = [], start  # (positive step, site it ends at)
    for v in chain(walk, (start,)):
        step = metric.distance(pos, v)
        if step > 0:
            moves.append((step, v))
        pos = v
    first = (Fraction(0), SitePos(start))
    if not moves:
        return RobotTrack(Fraction(1), (first,))
    # the step times are summed as ints over the steps' common denominator
    M, steps = on_common_denominator([step for step, _ in moves])
    times = accumulate(steps)
    waypoints = [first] + [(Fraction(t, M), SitePos(v)) for t, (_, v) in zip(times, moves)]
    # the last waypoint is where the track wraps to its start
    return RobotTrack(waypoints[-1][0], tuple(waypoints[:-1]))


def stationary_track(pos: Position) -> RobotTrack:
    return RobotTrack(Fraction(1), ((Fraction(0), normalize_position(pos)),))


def zigzag_track(left: Fraction, right: Fraction) -> RobotTrack:
    """Sweep [left, right] back and forth at unit speed (line instances)."""
    if right < left:
        left, right = right, left
    span = right - left
    if span == 0:
        return stationary_track(CoordPos(left))
    return RobotTrack(
        2 * span,
        ((Fraction(0), CoordPos(left)), (span, CoordPos(right))),
    )


def loop_track(sites: Sequence[int], metric: Metric) -> RobotTrack:
    """Repeatedly traverse the closed tour site[0] -> ... -> site[-1] -> site[0]."""
    return expand_round_robin(((tuple(sites),),), metric)


# --- serialization ---------------------------------------------------------


def _site_from_json(value) -> int:
    """A site id, which JSON must spell as an integer: int() would read
    2.9 as site 2, true as site 1 and "1" as site 1."""
    if type(value) is not int:
        raise ScheduleFormatError(f"site id must be a JSON integer, got {json.dumps(value)}")
    return value


def _pos_from_json(doc: dict) -> Position:
    if "site" in doc:
        return SitePos(_site_from_json(doc["site"]))
    if "coord" in doc:
        return CoordPos(to_fraction(doc["coord"]))
    if "edge" in doc:
        a, b = (_site_from_json(v) for v in doc["edge"])
        return normalize_position(EdgePos(a, b, to_fraction(doc["frac"])))
    raise ScheduleFormatError(f"unknown position: {doc}")


def dump_schedule(schedule: Schedule) -> str:
    """The schedule document as json.dumps(doc, indent=2) writes it,
    written directly: its only strings are fixed keys and exact number
    texts (digits, "-", ".", "/"), none of which JSON escapes, so the
    json module's pure-Python indent encoder is not needed."""
    robots = []
    scales: dict = {}  # each denominator's decimal scale, computed once
    for track in schedule.robots:
        if isinstance(track, RoundRobinTrack):
            trees = ",\n".join(
                '        {\n          "paths": [\n'
                + ",\n".join("            [\n" + ",\n".join(f"              {v}" for v in path)
                             + "\n            ]" for path in paths)
                + "\n          ]\n        }"
                for paths in track.trees)
            robots.append(f'    {{\n      "kind": "round_robin",\n      "trees": [\n{trees}'
                          "\n      ]\n    }")
        else:
            waypoints = ",\n".join(
                f'        {{\n          "t": "{format_fraction(t, scales)}",\n          "pos": {{\n'
                f"{_pos_text(p, scales)}\n          }}\n        }}" for t, p in track.waypoints)
            robots.append(f'    {{\n      "period": "{format_fraction(track.period, scales)}",\n'
                          f'      "waypoints": [\n{waypoints}\n      ]\n    }}')
    if not robots:
        return '{\n  "robots": []\n}'
    return '{\n  "robots": [\n' + ",\n".join(robots) + "\n  ]\n}"


def _pos_text(pos: Position, scales: dict) -> str:
    """The members of a waypoint's "pos" object, at their indent."""
    if isinstance(pos, SitePos):
        return f'            "site": {pos.site}'
    if isinstance(pos, CoordPos):
        return f'            "coord": "{format_fraction(pos.x, scales)}"'
    frac = format_fraction(pos.frac, scales)
    return (f'            "edge": [\n              {pos.a},\n              {pos.b}\n            ],\n'
            f'            "frac": "{frac}"')


def load_schedule(data: bytes | str) -> Schedule:
    try:
        doc = json.loads(data)
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise ScheduleFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("robots"), list):
        raise ScheduleFormatError("schedule document must have a 'robots' list")
    tracks: list[Track] = []
    for robot in doc["robots"]:
        if not isinstance(robot, dict):
            raise ScheduleFormatError(f"malformed robot track: {robot!r}")
        try:
            if robot.get("kind") == "round_robin":
                tracks.append(
                    RoundRobinTrack(
                        tuple(
                            tuple(tuple(_site_from_json(v) for v in p) for p in tree["paths"])
                            for tree in robot["trees"]
                        )
                    )
                )
            else:
                waypoints = tuple(
                    (to_fraction(w["t"]), _pos_from_json(w["pos"]))
                    for w in robot["waypoints"]
                )
                tracks.append(RobotTrack(to_fraction(robot["period"]), waypoints))
        except ScheduleFormatError:
            raise
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise ScheduleFormatError(f"malformed robot track: {exc}") from exc
    return Schedule(tuple(tracks))
