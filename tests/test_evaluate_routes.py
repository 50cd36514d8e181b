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

from patrol import evaluate
from patrol.cli import EXIT_INVALID, EXIT_OK, main
from patrol.errors import ScheduleFormatError, UnvisitedSiteError
from patrol.evaluate import _visits, max_weighted_latency, validate_speed
from patrol.line_uniform import solve_line_uniform
from patrol.instance import Metric, dump_instance, euclidean_instance, line_instance, load_instance
from patrol.schedule import RobotTrack, Schedule, SitePos, dump_schedule, load_schedule
from conftest import track
from scenarios import euclidean, jointly_served, line_edges, matrix, round_robin


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
def test_public_pair_reads_each_loop_once(case, loop_calls, monkeypatch):
    visits, track_visits = [], evaluate._track_visits
    monkeypatch.setattr(evaluate, "_track_visits",
                        lambda *args: visits.append(args) or track_visits(*args))
    inst, schedule = case()
    tracks = len(schedule.robots)
    measure(schedule, inst)
    assert len(loop_calls) == len(visits) == tracks
    measure(schedule, inst)  # again: both halves are found in the memo
    assert len(loop_calls) == len(visits) == tracks


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
    for site in (3, -1, 3):
        bad = Schedule((track(8, (0, SitePos(0)), (4, SitePos(site))),))
        with pytest.raises(ScheduleFormatError, match=rf"^site {site} is out of range 0\.\.2$"):
            validate_speed(bad, inst.metric)
        with pytest.raises(ScheduleFormatError, match=rf"^site {site} is out of range 0\.\.2$"):
            max_weighted_latency(bad, inst)
        assert "evaluation" not in inst.metric._memo and "visits" not in inst.metric._memo
    off_line = euclidean_instance([(0.0, 0.0), (1.0, 0.0)], [1, 1])
    for leg in (((0, SitePos(0)), (1, 1)), ((0, 1), (1, SitePos(0)))):
        with pytest.raises(ScheduleFormatError, match="coordinate positions require a line metric"):
            validate_speed(Schedule((track(2, *leg),)), off_line.metric)
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

