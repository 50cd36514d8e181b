"""`patrol evaluate` against the library's public evaluator.

cli.cmd_evaluate builds one _evaluation and reads it for both the speed
check and the visits; the bench and most tests call validate_speed and
max_weighted_latency, which build their own.  The two routes must print
and return the same thing on every kind of schedule.
"""

import json
from fractions import Fraction

import pytest

from patrol.cli import EXIT_INVALID, EXIT_OK, main
from patrol.errors import UnvisitedSiteError
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import (
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
