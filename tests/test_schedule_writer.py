"""dump_schedule against json.dumps of the schedule's dict form.

dump_schedule writes the indent-2 text itself.  The reference below
keeps the dict form it used to hand to json.dumps(doc, indent=2), so any
byte the direct writer gets wrong (an indent, a separator, a quote, an
empty list) shows up here, on random schedules with every position kind,
round-robin tracks and no robots at all, and on solved ones.
"""

import json
from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from patrol.generate import generate_instance
from patrol.metric_scheduler import solve_metric
from patrol.rationals import format_fraction
from patrol.schedule import (
    CoordPos,
    EdgePos,
    RobotTrack,
    RoundRobinTrack,
    Schedule,
    SitePos,
    dump_schedule,
    load_schedule,
)
from patrol.time_window import solve_line_weighted


def reference_pos(pos) -> dict:
    if isinstance(pos, SitePos):
        return {"site": pos.site}
    if isinstance(pos, CoordPos):
        return {"coord": format_fraction(pos.x)}
    return {"edge": [pos.a, pos.b], "frac": format_fraction(pos.frac)}


def reference_dump(schedule: Schedule) -> str:
    robots = []
    for track in schedule.robots:
        if isinstance(track, RoundRobinTrack):
            robots.append({"kind": "round_robin",
                           "trees": [{"paths": [list(p) for p in paths]} for paths in track.trees]})
        else:
            robots.append({"period": format_fraction(track.period),
                           "waypoints": [{"t": format_fraction(t), "pos": reference_pos(p)}
                                         for t, p in track.waypoints]})
    return json.dumps({"robots": robots}, indent=2)


# negative, p/q, decimal and 17-digit numbers
numbers = st.builds(
    Fraction,
    st.one_of(st.integers(-20, 20), st.integers(-10**17, 10**17)),
    st.sampled_from([1, 2, 3, 7, 10, 16, 125, 10**17, 3 * 10**5]),
)
positives = numbers.map(abs).filter(bool)
sites = st.integers(0, 10**17)
positions = st.one_of(
    st.builds(SitePos, sites),
    st.builds(CoordPos, numbers),
    # normalized, so that the loader gives back the same position
    st.tuples(sites, sites, st.fractions(0, 1).filter(lambda f: 0 < f < 1))
    .filter(lambda e: e[0] < e[1]).map(lambda e: EdgePos(*e)),
)


@st.composite
def waypoint_tracks(draw):
    t = draw(numbers.map(abs))
    waypoints = []
    for pos in draw(st.lists(positions, min_size=1, max_size=4)):
        waypoints.append((t, pos))
        t += draw(positives)
    return RobotTrack(t - waypoints[0][0], tuple(waypoints))


round_robin_tracks = st.builds(
    RoundRobinTrack,
    st.lists(st.lists(st.lists(sites, min_size=1, max_size=3).map(tuple), min_size=1,
                      max_size=3).map(tuple), min_size=1, max_size=3).map(tuple),
)
schedules = st.lists(st.one_of(waypoint_tracks(), round_robin_tracks), max_size=3).map(
    lambda tracks: Schedule(tuple(tracks)))


@given(schedules)
@example(Schedule(()))
@example(Schedule((RobotTrack(Fraction(1), ((Fraction(0), EdgePos(0, 1, Fraction(1, 3))),)),)))
def test_writer_matches_json_dumps_indent_2(schedule):
    text = dump_schedule(schedule)
    assert text == reference_dump(schedule)
    assert load_schedule(text) == schedule


def test_writer_matches_json_dumps_on_solved_schedules():
    for seed in range(1, 6):
        line = generate_instance("line-weighted", 5, seed, wmax=2)
        euclidean = generate_instance("euclidean", 8, seed)
        for schedule in (solve_line_weighted(line, 2).schedule, solve_metric(euclidean, 2).schedule):
            assert dump_schedule(schedule) == reference_dump(schedule)
