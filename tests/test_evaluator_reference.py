"""max_weighted_latency against an independent, time-stepped simulator.

The simulator shares no code with patrol.evaluate: it samples every
robot's position on a fixed time grid and reads each site's latency off
the samples.  The strategies build line schedules on an integer grid
(integer coordinates, integer waits, moves at speed 1/s for s = 1, 2, 3),
so every visit, turn and wait boundary falls on an integer tick and
stepping at half ticks is exact: a moving robot is never on an integer
coordinate at a half tick, so a site occupied at a half tick is one a
robot is resting on.  The schedule given to the evaluator divides all
times by q, putting them on the grid 1/q, and names a waypoint as a site,
as a point on the edge between the outermost sites, or as a coordinate.
"""

from fractions import Fraction
from math import lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrol.errors import UnvisitedSiteError
from patrol.evaluate import max_weighted_latency
from patrol.instance import line_instance
from patrol.schedule import CoordPos, EdgePos, RobotTrack, Schedule, SitePos


@st.composite
def robot_plans(draw, coords):
    """(start tick, [(tick, x), ...], period in ticks) of one robot that
    starts at x0, waits or moves leg by leg, then returns to x0."""
    start = draw(st.integers(0, 5))
    x = draw(st.one_of(st.sampled_from(coords), st.integers(-1, 9)))
    points = [(start, x)]
    t = start
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            t += draw(st.integers(1, 3))  # wait in place
        else:
            target = draw(st.integers(-1, 9).filter(lambda v: v != x))
            t += abs(target - x) * draw(st.integers(1, 3))
            x = target
        points.append((t, x))
    back = abs(points[0][1] - x) * draw(st.integers(1, 3))
    if back == 0:
        back = draw(st.integers(0 if len(points) > 1 else 1, 2))
    if back == 0:
        # the last waypoint lies exactly at t_first + period
        return start, points, t - start
    return start, points, t + back - start


@st.composite
def line_schedules(draw):
    coords = draw(st.lists(st.integers(0, 8), min_size=1, max_size=5))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(coords), max_size=len(coords)))
    plans = draw(st.lists(robot_plans(coords), min_size=1, max_size=3))
    q = draw(st.integers(1, 3))
    as_site = draw(st.booleans())
    return coords, weights, plans, q, as_site


def named(coords, x):
    """Coordinate x as a site, else as a point on the edge between the
    outermost sites (named from its right end), else as a coordinate."""
    if x in coords:
        return SitePos(coords.index(x))
    lo, hi = coords.index(min(coords)), coords.index(max(coords))
    if coords[lo] < x < coords[hi]:
        return EdgePos(hi, lo, Fraction(coords[hi] - x, coords[hi] - coords[lo]))
    return CoordPos(Fraction(x))


def build(coords, weights, plans, q, as_site):
    inst = line_instance(coords, weights)
    tracks = []
    for _start, points, period in plans:
        waypoints = []
        for t, x in points:
            pos = named(coords, x) if as_site else CoordPos(Fraction(x))
            waypoints.append((Fraction(t, q), pos))
        tracks.append(RobotTrack(Fraction(period, q), tuple(waypoints)))
    return inst, Schedule(tuple(tracks))


def position(plan, tick2):
    """Exact position of a robot at half tick tick2 (time tick2 / 2)."""
    start, points, period = plan
    t = start + Fraction((tick2 - 2 * start) % (2 * period), 2)
    # t is now in [start, start + period): walk the legs, wrap leg last
    legs = list(zip(points, points[1:])) + [(points[-1], (start + period, points[0][1]))]
    for (t0, x0), (t1, x1) in legs:
        if t0 <= t <= t1:
            return x0 if t1 == t0 else x0 + (x1 - x0) * (t - t0) / (t1 - t0)
    raise AssertionError("time outside the period")


def simulated_latencies(coords, plans, q):
    """Per-site latency in evaluator time units, or the first unvisited site."""
    horizon = lcm(*(period for _, _, period in plans))
    ticks = range(2 * horizon)
    occupied = {c: [] for c in coords}
    for tick2 in ticks:
        here = {position(plan, tick2) for plan in plans}
        for c in occupied:
            if c in here:
                occupied[c].append(tick2)
    latencies = []
    for site, c in enumerate(coords):
        marks = occupied[c]
        if not marks:
            return site
        gap = 0
        for a, b in zip(marks, marks[1:] + [marks[0] + 2 * horizon]):
            if b - a > 1:  # b - a == 1 means a robot rests across the half tick
                gap = max(gap, b - a)
        latencies.append(Fraction(gap, 2 * q))
    return latencies


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line_schedules())
# a site shared by robots with periods 4 and 6 (and a turn on the site)
@example(([0, 2, 4], [1, 2, 1], [(0, [(0, 0), (2, 2)], 4), (1, [(1, 2), (3, 4)], 6)], 1, False))
# a site robots with different first waypoint times share: their phase counts
@example(
    ([3, 1], [1, 1], [(0, [(0, 3), (1, 3), (4, 0)], 7), (1, [(1, 1), (2, 1), (4, -1)], 7)], 1, False)
)
# a wait, a pass-through, an end position off every site, grid 1/3
@example(([0, 3, 3], [2, 1, 3], [(2, [(2, 0), (4, 0), (8, 4)], 10)], 3, True))
def test_evaluator_matches_time_stepped_simulation(case):
    coords, weights, plans, q, as_site = case
    inst, schedule = build(coords, weights, plans, q, as_site)
    expected = simulated_latencies(coords, plans, q)
    try:
        report = max_weighted_latency(schedule, inst)
    except UnvisitedSiteError as exc:
        assert exc.site == expected
        return
    assert [row.latency for row in report.per_site] == expected
    weighted = [w * lat for w, lat in zip(weights, expected)]
    assert report.max_weighted == max(weighted)
    assert report.argmax_site == weighted.index(max(weighted))
