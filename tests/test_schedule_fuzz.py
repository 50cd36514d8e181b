"""Fuzz the schedule loader and the evaluator behind it.

Random JSON-shaped schedule documents (round-robin tracks with trees and
paths of any length, empty ones included, waypoint tracks, and stray
JSON values in every slot) go through load_schedule, validate_speed and
max_weighted_latency, as `patrol evaluate` runs them.  Every failure must
be a PatrolError, which the CLI maps to an exit code with one message
line; anything else would reach the user as a traceback.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrol.errors import PatrolError
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import euclidean_instance, line_instance
from patrol.schedule import load_schedule

INSTANCES = (
    line_instance([0, 4, 4], [1, 2, 3]),
    euclidean_instance([(0, 0), (3, 4), (3, 0)], [1, 1, 2]),
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["site", "t", "pos", "paths", "kind"]), inner, max_size=3),
    max_leaves=6,
)

site_ids = st.one_of(st.integers(0, 2), st.integers(-1, 3))
bad_numbers = st.one_of(
    st.sampled_from(["1/0", "x", "", "-1", "NaN", "Infinity"]),
    st.floats(allow_nan=True, allow_infinity=True),
    json_values,
)
good_numbers = st.one_of(
    st.integers(0, 9), st.fractions(min_value=0, max_value=9, max_denominator=6).map(str)
)
good_positions = st.one_of(
    st.builds(lambda s: {"site": s}, site_ids),
    st.builds(lambda x: {"coord": x}, good_numbers),
    st.builds(
        lambda edge, frac: {"edge": edge, "frac": frac},
        st.lists(site_ids, min_size=2, max_size=2),
        st.fractions(min_value=0, max_value=1, max_denominator=4).map(str),
    ),
)
bad_positions = st.one_of(
    st.builds(lambda x: {"coord": x}, bad_numbers),
    st.builds(lambda s: {"site": s}, json_values),
    st.builds(lambda e, f: {"edge": e, "frac": f}, json_values, bad_numbers),
    json_values,
)


def mangled(good, bad, junk):
    """`good`, or with junk `bad` about one draw in four."""
    return st.one_of(good, good, good, bad) if junk else good


@st.composite
def waypoint_tracks(draw, junk):
    """Increasing times with steps long enough for most moves and a
    period that covers them; with junk, some values are not numbers."""
    t, waypoints = 0, []
    for _ in range(draw(st.integers(0, 4))):
        t += draw(st.integers(1, 6))
        stamp = draw(mangled(st.just(str(t)), bad_numbers, junk))
        waypoints.append({"t": stamp, "pos": draw(mangled(good_positions, bad_positions, junk))})
    period = str(t + draw(st.integers(0, 8)))
    period = draw(mangled(st.just(period), st.one_of(good_numbers, bad_numbers), junk))
    return {"period": period, "waypoints": waypoints}


def round_robin_tracks(junk):
    """Trees and paths of any length, empty ones included."""
    paths = st.one_of(
        st.lists(st.lists(mangled(site_ids, json_values, junk), max_size=3), max_size=3),
        st.permutations([[0, 1, 2], [0], [2, 1]]),  # every site, in pieces
    )
    trees = st.lists(mangled(st.builds(lambda p: {"paths": p}, paths), json_values, junk), max_size=3)
    return st.builds(lambda t: {"kind": "round_robin", "trees": t}, trees)


def documents(junk):
    track = st.one_of(waypoint_tracks(junk), round_robin_tracks(junk))
    robots = st.lists(mangled(track, json_values, junk), min_size=0 if junk else 1, max_size=3)
    return st.builds(lambda r: {"robots": r}, mangled(robots, json_values, junk))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(st.one_of(documents(False), documents(True)), st.sampled_from(INSTANCES))
@example({"robots": [{"kind": "round_robin", "trees": []}]}, INSTANCES[0])
@example({"robots": [{"trees": [{"paths": []}]}]}, INSTANCES[0])
@example({"robots": [{"kind": "round_robin", "trees": [{"paths": [[]]}]}]}, INSTANCES[0])
@example({"robots": [{"period": "1/0", "waypoints": []}]}, INSTANCES[0])
@example({"robots": [7]}, INSTANCES[0])
@example({"robots": 7}, INSTANCES[0])
def test_loader_and_evaluator_raise_only_patrol_errors(doc, instance):
    try:
        schedule = load_schedule(json.dumps(doc))
        if not validate_speed(schedule, instance.metric):
            max_weighted_latency(schedule, instance)
    except PatrolError:
        pass
