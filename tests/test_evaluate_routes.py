"""`patrol evaluate` against the library's public evaluator, and the
evaluation that the evaluator's public pair shares.

cli.cmd_evaluate, report.build_report and the time-window solve call
validate_speed and max_weighted_latency, as the bench and the tests do.
The command must print and return what the library returns on every kind
of schedule.  The pair reads each track's loop once: the metric's memo
keeps the last schedule's evaluation and visits for that schedule object
only, keeps nothing for a schedule that raises, and its visit lists are
not changed by any reader.
"""

import json
from fractions import Fraction

import pytest

from patrol.cli import EXIT_INVALID, EXIT_OK, main
from patrol.errors import ScheduleFormatError, UnvisitedSiteError
from patrol.evaluate import _visits, max_weighted_latency, validate_speed
from patrol.line_uniform import solve_line_uniform
from patrol.instance import (
    Metric,
    dump_instance,
    euclidean_instance,
    line_instance,
    load_instance,
    matrix_instance,
)
from patrol.schedule import (
    CoordPos,
    EdgePos,
    RobotTrack,
    RoundRobinTrack,
    Schedule,
    SitePos,
    dump_schedule,
    load_schedule,
    loop_track,
)


def track(period, *points):
    """RobotTrack from (time, position) pairs; bare numbers are coordinates."""
    return RobotTrack(Fraction(period), tuple(
        (Fraction(t), pos if isinstance(pos, (SitePos, EdgePos)) else CoordPos(Fraction(pos)))
        for t, pos in points))


def line_edges():
    inst = line_instance([0, 3, 10, Fraction(5, 2), 8], [1, 2, 3, 1, 2])
    quarter, back = EdgePos(0, 2, Fraction(1, 4)), EdgePos(1, 2, Fraction(5, 7))
    return inst, Schedule((
        track(20, (0, SitePos(0)), (Fraction(5, 2), quarter), (8, back), (10, SitePos(2))),
        track(13, (0, back), (2, back), (Fraction(15, 2), quarter)),
    ))


def matrix():
    inst = matrix_instance([[0, 2, 3, 4], [2, 0, 1, 3], [3, 1, 0, Fraction(5, 2)],
                            [4, 3, Fraction(5, 2), 0]], [1, 3, 2, Fraction(1, 2)])
    return inst, Schedule((
        loop_track([0, 1, 2, 3], inst.metric),
        track(7, (1, SitePos(1)), (2, SitePos(1)), (Fraction(5, 2), EdgePos(1, 2, Fraction(1, 2)))),
    ))


def euclidean():
    # site 3 is within 1e-9 of site 2, so it shares site 2's visits
    inst = euclidean_instance([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (3.0, 4.0 + 5e-10)],
                              [2, 1, 3, 1])
    return inst, Schedule((loop_track([0, 1, 2], inst.metric),
                           track(12, (1, SitePos(2)), (6, SitePos(2)))))


def round_robin():
    inst = euclidean_instance([(0.0, 0.0), (3.0, 0.0), (3.0, 4.0), (0.0, 4.0)], [1, 2, 1, 3])
    return inst, Schedule((RoundRobinTrack((((0, 1), (1,)), ((2,), (3, 2), (2, 3)))),
                           track(6, (0, SitePos(3)))))


def jointly_served():
    inst = line_instance(range(7), [1, 2, 1, 3, 1, 2, 1])
    return inst, Schedule((track(12, (0, 0), (6, 6)), track(6, (1, 2), (4, 5)),
                           track(Fraction(10, 3), (0, 3), (Fraction(5, 3), Fraction(14, 3)))))


def too_fast():
    inst = line_instance([0, 4, 7], [1, 1, 1])
    return inst, Schedule((track(2, (0, 0), (1, 7)), track(9, (0, 4), (1, 4), (2, 7))))


def unvisited():
    inst = line_instance([0, 4, 7], [1, 1, 1])
    return inst, Schedule((track(8, (0, 0), (4, 4)),))


@pytest.mark.parametrize("case, branch", [
    (line_edges, "measured"), (matrix, "measured"), (euclidean, "measured"),
    (round_robin, "measured"), (jointly_served, "measured"), (too_fast, "speed"),
    (unvisited, "unvisited"),
])
def test_cli_evaluate_matches_the_library(case, branch, tmp_path, capsys):
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "schedule.json"
    built_inst, built_schedule = case()
    inst_path.write_text(dump_instance(built_inst))
    sched_path.write_text(dump_schedule(built_schedule))
    # the library reads what the command reads
    inst, schedule = load_instance(inst_path.read_bytes()), load_schedule(sched_path.read_bytes())

    violations = validate_speed(schedule, inst.metric)
    if violations:
        got_branch = "speed"
        want = EXIT_INVALID, "", "".join(f"speed violation: {v}\n" for v in violations)
    else:
        try:
            doc = max_weighted_latency(schedule, inst).to_json_dict()
        except UnvisitedSiteError as exc:
            got_branch, want = "unvisited", (EXIT_INVALID, "", f"{exc}\n")
        else:
            got_branch, want = "measured", (EXIT_OK, json.dumps(doc, indent=2) + "\n", "")
    assert got_branch == branch
    code = main(["evaluate", "--instance", str(inst_path), "--schedule", str(sched_path)])
    assert (code, *capsys.readouterr()) == want


CASES = (line_edges, matrix, euclidean, round_robin, jointly_served, too_fast, unvisited)


def measure(schedule, inst):
    """(speed violations, latency rows or the UnvisitedSiteError's text)."""
    violations = validate_speed(schedule, inst.metric)
    try:
        return violations, max_weighted_latency(schedule, inst)
    except UnvisitedSiteError as exc:
        return violations, str(exc)


@pytest.fixture
def loop_calls(monkeypatch):
    """How many times RobotTrack._loop has run."""
    calls = []
    original = RobotTrack._loop

    def counted(track):
        calls.append(track)
        return original(track)

    monkeypatch.setattr(RobotTrack, "_loop", counted)
    return calls


@pytest.mark.parametrize("case", CASES)
def test_public_pair_reads_each_loop_once(case, loop_calls):
    inst, schedule = case()
    tracks = len(schedule.robots)
    measure(schedule, inst)
    assert len(loop_calls) == tracks
    measure(schedule, inst)  # again: both halves are found in the memo
    assert len(loop_calls) == tracks


@pytest.mark.parametrize("case", CASES)
def test_equal_but_distinct_objects_are_evaluated_again(case, loop_calls):
    inst, schedule = case()
    want = measure(schedule, inst)
    other_inst, other_schedule = case()
    assert other_schedule == schedule and other_schedule is not schedule
    assert other_inst.metric == inst.metric and other_inst.metric is not inst.metric
    for pair in ((other_schedule, inst), (schedule, other_inst), (other_schedule, other_inst)):
        before = len(loop_calls)
        assert measure(*pair) == want
        assert len(loop_calls) == before + len(schedule.robots)


def test_an_evaluation_that_raises_keeps_no_slot():
    inst = line_instance([0, 4, 7], [1, 1, 1])
    bad = Schedule((track(8, (0, SitePos(0)), (4, SitePos(3))),))
    for _ in range(2):
        with pytest.raises(ScheduleFormatError, match="site 3 is out of range"):
            validate_speed(bad, inst.metric)
        with pytest.raises(ScheduleFormatError, match="site 3 is out of range"):
            max_weighted_latency(bad, inst)
        assert "evaluation" not in inst.metric._memo and "visits" not in inst.metric._memo
    # a raise leaves the last good schedule's slots as they were
    zigzag = Schedule((track(14, (0, 0), (7, 7)),))
    max_weighted_latency(zigzag, inst)
    with pytest.raises(ScheduleFormatError):
        max_weighted_latency(bad, inst)
    assert inst.metric._memo["evaluation"][0] is zigzag and inst.metric._memo["visits"][0] is zigzag


def test_a_metric_keeps_one_schedule():
    inst, first = jointly_served()
    _, second = too_fast()
    measure(first, inst)
    validate_speed(second, inst.metric)
    memo = inst.metric._memo
    assert {key for key in memo if isinstance(key, str)} == {"axis", "evaluation", "visits"}
    assert memo["evaluation"][0] is second and memo["visits"][0] is first
    max_weighted_latency(second, inst)
    assert memo["evaluation"][0] is second and memo["visits"][0] is second


def test_a_line_uniform_solve_builds_its_axis_once(monkeypatch):
    """The evaluation of a line-uniform solve and its report read the one
    integer axis the metric keeps: its visit lookup and its unit."""
    inst = line_instance([Fraction(7, 3), 0, 5, Fraction(1, 2), 5, 9], [2] * 6)
    reads, builds, axis = [], [], Metric.axis

    def counted(metric):
        reads.append(metric)
        if "axis" not in metric._memo:
            builds.append(metric)
        return axis(metric)

    monkeypatch.setattr(Metric, "axis", counted)
    report = solve_line_uniform(inst, 2)
    report.to_json_dict(seconds=0.0)
    assert builds == [inst.metric] and len(reads) >= 2
    assert set(reads) == {inst.metric} and inst.metric._memo["axis"] == (
        6, (14, 0, 30, 3, 30, 54), (1, 3, 0, 2, 4, 5))


@pytest.mark.parametrize("case", CASES)
def test_readers_leave_the_shared_visits_alone(case):
    """Evaluating twice gives the rows of a fresh metric, and leaves the
    kept visits as they were."""
    inst, schedule = case()
    fresh_inst, fresh_schedule = case()
    want = measure(fresh_schedule, fresh_inst)
    got = measure(schedule, inst)
    kept = repr(_visits(schedule, inst.metric))
    assert measure(schedule, inst) == got == want
    assert repr(_visits(schedule, inst.metric)) == kept

