import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import patrol
from patrol.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL,
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    main,
)
from patrol.instance import dump_instance, line_instance, load_instance, matrix_instance
from patrol.rationals import to_fraction
from patrol.schedule import SitePos, load_schedule
from scenarios import cooperative_line_instance
from test_schedule_eval import NON_INTEGER_SITE_IDS, site_id_documents


def run(*argv):
    return main([str(a) for a in argv])


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("generate", "--kind", "euclidean", "--n", 6, "--seed", 9, "--out", a) == EXIT_OK
    assert run("generate", "--kind", "euclidean", "--n", 6, "--seed", 9, "--out", b) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_generate_ngon_square(tmp_path):
    out = tmp_path / "ngon.json"
    run("generate", "--kind", "ngon", "--n", 4, "--out", out)
    inst = load_instance(out.read_bytes())
    assert inst.n == 4
    for p in inst.metric.points:
        assert math.isclose(p[0] ** 2 + p[1] ** 2, 1.0, abs_tol=1e-9)


def test_generate_clustered_two_pairs(tmp_path):
    out = tmp_path / "cl.json"
    run("generate", "--kind", "clustered", "--n", 4, "--gap", 10, "--out", out)
    inst = load_instance(out.read_bytes())
    xs = sorted(p[0] for p in inst.metric.points)
    assert xs[1] - xs[0] < 1 and xs[2] - xs[1] > 5


def test_solve_then_evaluate_round_trip(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-uniform", "--n", 7, "--seed", 3, "--out", inst_path)
    sched_path, rep_path = tmp_path / "s.json", tmp_path / "r.json"
    assert (
        run(
            "solve", "--instance", inst_path, "--algo", "line-uniform", "--k", 2,
            "--out-schedule", sched_path, "--out-report", rep_path,
        )
        == EXIT_OK
    )
    report = json.loads(rep_path.read_text())
    eval_json = tmp_path / "lat.json"
    csv_path = tmp_path / "lat.csv"
    assert (
        run(
            "evaluate", "--instance", inst_path, "--schedule", sched_path,
            "--report", eval_json, "--csv", csv_path,
        )
        == EXIT_OK
    )
    measured = to_fraction(json.loads(eval_json.read_text())["max_weighted"])
    assert abs(measured - to_fraction(report["measured"])) <= Fraction(1, 10**9)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 7
    assert set(rows[0]) == {"site", "latency", "weight", "weighted"}


def test_solve_evaluate_round_trip_metric(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 7, "--seed", 5, "--out", inst_path)
    sched_path, rep_path = tmp_path / "s.json", tmp_path / "r.json"
    assert (
        run("solve", "--instance", inst_path, "--algo", "metric", "--k", 2,
            "--out-schedule", sched_path, "--out-report", rep_path)
        == EXIT_OK
    )
    eval_json = tmp_path / "lat.json"
    assert (
        run("evaluate", "--instance", inst_path, "--schedule", sched_path,
            "--report", eval_json)
        == EXIT_OK
    )
    measured = to_fraction(json.loads(eval_json.read_text())["max_weighted"])
    reported = to_fraction(json.loads(rep_path.read_text())["measured"])
    assert abs(measured - reported) <= Fraction(1, 10**9)


def test_solve_incompatible_algo_exit_2(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-weighted", "--n", 5, "--seed", 1, "--out", inst_path)
    code = run(
        "solve", "--instance", inst_path, "--algo", "line-uniform", "--k", 2,
        "--out-schedule", tmp_path / "s.json",
    )
    assert code == EXIT_INFEASIBLE
    code = run(
        "solve", "--instance", inst_path, "--algo", "line-single", "--k", 2,
        "--out-schedule", tmp_path / "s.json",
    )
    assert code == EXIT_INFEASIBLE


def test_evaluate_missing_site_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    sched_path.write_text(
        json.dumps(
            {
                "robots": [
                    {
                        "period": "2",
                        "waypoints": [
                            {"t": "0", "pos": {"coord": "3"}},
                            {"t": "1", "pos": {"coord": "4"}},
                        ],
                    }
                ]
            }
        )
    )
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
    assert "site 0" in capsys.readouterr().err


def test_evaluate_speed_violation_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    sched_path.write_text(
        json.dumps(
            {
                "robots": [
                    {
                        "period": "2",
                        "waypoints": [
                            {"t": "0", "pos": {"coord": "0"}},
                            {"t": "1", "pos": {"coord": "7"}},
                        ],
                    }
                ]
            }
        )
    )
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
    assert "speed violation" in capsys.readouterr().err


def test_evaluate_resource_cap_exit_4(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-uniform", "--n", 3, "--seed", 0, "--out", inst_path)
    sched_path = tmp_path / "s.json"
    trees = [{"paths": [[0]] * count} for count in (128, 243, 625, 343)]
    sched_path.write_text(json.dumps({"robots": [{"kind": "round_robin", "trees": trees}]}))
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_RESOURCE


def test_evaluate_event_budget_exit_4(tmp_path, capsys):
    # two zigzags over 40 jointly served sites, periods 78 and 78 * 100001/100000:
    # each site needs 400 002 visit events, all of them 16 M
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "s.json"
    inst_path.write_text(dump_instance(line_instance(range(40), [1] * 40)))
    robots = [
        {"period": period, "waypoints": [{"t": 0, "pos": {"coord": 0}},
                                         {"t": half, "pos": {"coord": 39}}]}
        for period, half in (("78", "39"), ("7800078/100000", "3900039/100000"))
    ]
    sched_path.write_text(json.dumps({"robots": robots}))
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_RESOURCE
    assert "visit events in total" in capsys.readouterr().err


def test_compare_table(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "clustered", "--n", 6, "--gap", 8, "--out", inst_path)
    csv_path = tmp_path / "cmp.csv"
    assert (
        run(
            "compare", "--instance", inst_path, "--k", 2,
            "--algos", "metric,baseline", "--csv", csv_path,
        )
        == EXIT_OK
    )
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert [r["algo"] for r in rows] == ["metric", "baseline"]
    for r in rows:
        assert float(r["ratio"]) >= 1.0
        assert float(r["seconds"]) >= 0.0


def test_solve_metric_enough_robots_zero(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 3, "--seed", 4, "--out", inst_path)
    rep_path = tmp_path / "r.json"
    assert (
        run("solve", "--instance", inst_path, "--algo", "metric", "--k", 3,
            "--out-report", rep_path)
        == EXIT_OK
    )
    assert to_fraction(json.loads(rep_path.read_text())["measured"]) == 0


def test_solve_baseline_on_walk_longer_than_four_msts(tmp_path):
    # valid within TRIANGLE_TOL: site 0 is within `hub` of all, the others
    # are 1e-10 apart, so the MST walk's shortcuts exceed 4|MST| (|MST| = 0
    # when hub = 0) and no tree-cover probe can cut it into two pieces
    for hub in ("0", "1e-12"):
        data = [["0" if i == j else hub if 0 in (i, j) else "1e-10" for j in range(5)]
                for i in range(5)]
        doc = {"kind": "general", "metric": {"type": "matrix", "data": data}, "weights": [1] * 5}
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(doc))
        sched_path, rep_path, eval_path = tmp_path / "s.json", tmp_path / "r.json", tmp_path / "e.json"
        assert (
            run("solve", "--instance", inst_path, "--algo", "baseline", "--k", 2,
                "--out-schedule", sched_path, "--out-report", rep_path)
            == EXIT_OK
        )
        assert run("evaluate", "--instance", inst_path, "--schedule", sched_path,
                   "--report", eval_path) == EXIT_OK
        measured = json.loads(eval_path.read_text())["max_weighted"]
        assert measured == json.loads(rep_path.read_text())["measured"]


def test_solve_line_weighted_reference_instance(tmp_path):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    rep_path = tmp_path / "r.json"
    assert (
        run("solve", "--instance", inst_path, "--algo", "line-weighted", "--k", 2,
            "--out-report", rep_path)
        == EXIT_OK
    )
    measured = to_fraction(json.loads(rep_path.read_text())["measured"])
    assert measured <= 120


def test_solve_line_weighted_past_oracle_site_budget(tmp_path):
    # 21 sites: the lower bound must not need the 20-site brute-force oracle
    inst_path, rep_path = tmp_path / "inst.json", tmp_path / "r.json"
    run("generate", "--kind", "line-weighted", "--n", 21, "--seed", 1, "--wmax", 1,
        "--out", inst_path)
    assert (
        run("solve", "--instance", inst_path, "--algo", "line-weighted", "--k", 1,
            "--out-report", rep_path)
        == EXIT_OK
    )
    report = json.loads(rep_path.read_text())
    assert 0 < to_fraction(report["lower_bound"]) <= to_fraction(report["measured"])


def test_threads_flag_does_not_change_output(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 8, "--seed", 2, "--out", inst_path)
    outs = []
    for threads in (1, 4):
        sched = tmp_path / f"s{threads}.json"
        run("solve", "--instance", inst_path, "--algo", "metric", "--k", 2,
            "--threads", threads, "--out-schedule", sched)
        outs.append(sched.read_bytes())
    assert outs[0] == outs[1]


def test_refine_flag_accepted(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 6, "--seed", 8, "--out", inst_path)
    rep_plain, rep_refined = tmp_path / "p.json", tmp_path / "q.json"
    run("solve", "--instance", inst_path, "--algo", "metric", "--k", 2,
        "--out-report", rep_plain)
    run("solve", "--instance", inst_path, "--algo", "metric", "--k", 2, "--refine",
        "--out-report", rep_refined)
    plain = to_fraction(json.loads(rep_plain.read_text())["L_accepted"])
    refined = to_fraction(json.loads(rep_refined.read_text())["L_accepted"])
    assert refined <= plain


def test_compare_line_algorithms(tmp_path):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-uniform", "--n", 5, "--seed", 12, "--out", inst_path)
    csv_path = tmp_path / "cmp.csv"
    assert (
        run(
            "compare", "--instance", inst_path, "--k", 2,
            "--algos", "line-uniform,line-weighted", "--csv", csv_path,
        )
        == EXIT_OK
    )
    rows = {r["algo"]: r for r in csv.DictReader(csv_path.read_text().splitlines())}
    assert float(rows["line-uniform"]["ratio"]) == 1.0
    exact = float(rows["line-uniform"]["measured"])
    approx = float(rows["line-weighted"]["measured"])
    assert exact <= approx <= 12 * exact + 1e-9


def test_nonpositive_k_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 5, "--seed", 1, "--out", inst_path)
    capsys.readouterr()
    for k in (0, -2):
        assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", k) == EXIT_INVALID
        assert run("compare", "--instance", inst_path, "--k", k, "--algos", "metric") == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [f"invalid input: --k must be at least 1, got {k}"] * 2


def test_nonfinite_euclidean_coordinates_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    for bad in ("NaN", "Infinity", "-Infinity"):
        inst_path.write_text(
            '{"metric": {"type": "euclidean", "data": [[0, 0], [1, %s]]}, "weights": [1, 1]}' % bad
        )
        assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", 1) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "invalid input: euclidean coordinates must be finite\n"


def write_site_schedule(path, *positions):
    path.write_text(
        json.dumps(
            {
                "robots": [
                    {
                        "period": "4",
                        "waypoints": [
                            {"t": str(t), "pos": pos} for t, pos in enumerate(positions)
                        ],
                    }
                ]
            }
        )
    )


def test_evaluate_out_of_range_site_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    cases = [
        ({"site": -1}, "site -1 is out of range 0..3"),
        ({"site": 4}, "site 4 is out of range 0..3"),
        ({"edge": [2, 9], "frac": "0.5"}, "site 9 is out of range 0..3"),
        ({"edge": [1, 2], "frac": "1.5"}, "edge fraction out of range: 3/2"),
        ({"edge": [2, 1], "frac": "1.5"}, "edge fraction out of range: 3/2"),
    ]
    for bad, message in cases:
        write_site_schedule(sched_path, {"site": 0}, bad)
        assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"


def test_evaluate_edge_from_a_site_to_itself_is_that_site(tmp_path, capsys):
    """A robot parked at {"edge": [1, 1], "frac": "0.5"}, distance 0 from
    site 1, stands on site 1: it loads as SitePos(1) and is measured as a
    robot parked at {"site": 1}."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(matrix_instance([[0, 1], [1, 0]], [1, 1])))
    sched_path = tmp_path / "s.json"
    outputs = []
    for parked in ({"site": 1}, {"edge": [1, 1], "frac": "0.5"}):
        text = json.dumps({"robots": [
            {"period": "2", "waypoints": [{"t": "0", "pos": {"site": 0}},
                                          {"t": "1", "pos": {"site": 1}}]},
            {"period": "1", "waypoints": [{"t": "0", "pos": parked}]},
        ]})
        assert load_schedule(text).robots[1].waypoints == ((0, SitePos(1)),)
        sched_path.write_text(text)
        assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert json.loads(outputs[0])["per_site"][1]["latency"] == "0"
    assert outputs[1] == outputs[0]


def test_evaluate_non_integer_site_ids_exit_3(tmp_path, capsys):
    """A site id spelled 2.9, true or "1" is refused, not read as another
    site and measured."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    for site in NON_INTEGER_SITE_IDS:
        for doc in site_id_documents(site):
            sched_path.write_text(json.dumps(doc))
            assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"invalid input: site id must be a JSON integer, got {json.dumps(site)}\n")


def test_unreadable_paths_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    write_site_schedule(sched_path, {"site": 0})
    missing = tmp_path / "missing.json"
    for argv in (
        ("evaluate", "--instance", missing, "--schedule", sched_path),
        ("evaluate", "--instance", inst_path, "--schedule", missing),
        ("evaluate", "--instance", inst_path, "--schedule", tmp_path),
        ("solve", "--instance", missing, "--algo", "metric", "--k", 1),
        ("compare", "--instance", missing, "--k", 1, "--algos", "metric"),
    ):
        assert run(*argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("invalid input: cannot read ")


def test_unwritable_output_paths_exit_3(tmp_path, capsys):
    """Every file a command writes: a path in a missing directory ends in
    one line and exit 3, as an unreadable input does."""
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "s.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    solve = ("solve", "--instance", inst_path, "--algo", "line-single", "--k", 1)
    assert run(*solve, "--out-schedule", sched_path) == EXIT_OK
    evaluate = ("evaluate", "--instance", inst_path, "--schedule", sched_path)
    nowhere = tmp_path / "missing" / "out"
    for argv in (
        ("generate", "--kind", "ngon", "--n", 4, "--out", nowhere),
        (*solve, "--out-schedule", nowhere),
        (*solve, "--out-report", nowhere),
        (*evaluate, "--csv", nowhere),
        (*evaluate, "--report", nowhere),
        ("compare", "--instance", inst_path, "--k", 1, "--algos", "line-single", "--csv", nowhere),
    ):
        capsys.readouterr()
        assert run(*argv) == EXIT_INVALID, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"invalid input: cannot write {nowhere}: ")


def test_bad_generate_arguments_exit_3(tmp_path, capsys):
    out = tmp_path / "inst.json"
    for argv, message in (
        (("--kind", "line-weighted", "--n", 5, "--wmax", 0), "wmax must be at least 1, got 0"),
        (("--kind", "euclidean", "--n", 5, "--wmax", -2), "wmax must be at least 1, got -2"),
        (("--kind", "clustered", "--n", 4, "--gap", "nan"), "gap must be a finite number, got nan"),
        (("--kind", "clustered", "--n", 4, "--gap", "inf"), "gap must be a finite number, got inf"),
    ):
        assert run("generate", *argv, "--out", out) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {message}\n"
        assert not out.exists()


def test_usage_errors_exit_3_without_traceback(tmp_path):
    """What the argument parser rejects exits 3, not argparse's 2, which
    here means infeasible: "-inf" reads as an option, not as --gap's value,
    and solve needs --instance."""
    src = str(Path(patrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = tmp_path / "inst.json"
    for argv, message in (
        (["generate", "--kind", "clustered", "--n", "4", "--gap", "-inf", "--out", str(out)],
         "patrol generate: error: argument --gap: expected one argument"),
        (["solve", "--algo", "metric", "--k", "2"],
         "patrol solve: error: the following arguments are required: --instance"),
    ):
        done = subprocess.run([sys.executable, "-m", "patrol.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        err = done.stderr.decode().splitlines()
        assert done.returncode == EXIT_INVALID
        assert done.stdout == b"" and "Traceback" not in done.stderr.decode()
        assert err[0].startswith("usage: ") and err[-1] == message
        assert not out.exists()


def test_doubling_without_feasible_budget_exit_4(tmp_path, capsys, monkeypatch):
    import patrol.metric_scheduler as metric_scheduler

    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "euclidean", "--n", 5, "--seed", 1, "--out", inst_path)
    capsys.readouterr()
    monkeypatch.setattr(metric_scheduler, "k_robot_assignment", lambda *args: None)
    assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", 1) == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "resource cap: doubling search found no feasible budget in 200 doublings\n"
    )


def test_failed_internal_check_exit_1_without_traceback(tmp_path, capsys, monkeypatch):
    """A solver's own check that fails (here: the accepted schedule's visit
    windows) ends the command with 1 and one line, as an uncaught
    exception would exit, but with no traceback."""
    import patrol.time_window as time_window

    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    monkeypatch.setattr(time_window, "_blocks_met", lambda *args: False)
    code = run("solve", "--instance", inst_path, "--algo", "line-weighted", "--k", 1)
    assert code == EXIT_INTERNAL == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: accepted schedule violates its visit windows\n"
    monkeypatch.setattr("patrol.cli.solve_line_weighted", _failing_assert)
    assert run("compare", "--instance", inst_path, "--k", 1,
               "--algos", "line-single,line-weighted") == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "internal error: assertion failed\n"


def _failing_assert(*args):
    raise AssertionError


def evaluate_round_robin_exit_3(tmp_path, capsys, robot, message):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path = tmp_path / "s.json"
    sched_path.write_text(json.dumps({"robots": [robot]}))
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"


def test_evaluate_round_robin_without_trees_exit_3(tmp_path, capsys):
    robot = {"kind": "round_robin", "trees": []}
    evaluate_round_robin_exit_3(tmp_path, capsys, robot, "round-robin track needs at least one tree")


def test_evaluate_round_robin_tree_without_paths_exit_3(tmp_path, capsys):
    robot = {"kind": "round_robin", "trees": [{"paths": [[0, 1]]}, {"paths": []}]}
    evaluate_round_robin_exit_3(tmp_path, capsys, robot, "round-robin tree needs at least one path")


def test_evaluate_round_robin_empty_path_exit_3(tmp_path, capsys):
    robot = {"kind": "round_robin", "trees": [{"paths": [[]]}]}
    evaluate_round_robin_exit_3(tmp_path, capsys, robot, "round-robin path needs at least one site")


def test_unparsable_instance_numbers_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    docs = {
        '{"metric": {"type": "line", "data": [0, "1/0"]}, "weights": [1, 1]}':
            "invalid input: malformed instance: Fraction(1, 0)\n",
        '{"metric": {"type": "line", "data": [0, "1e99999"]}, "weights": [1, 1]}':
            "invalid input: malformed instance: exponent out of range: '1e99999'\n",
        '{"metric": {"type": "euclidean", "data": [[1e308, 0], [-1e308, 0]]}, "weights": [1, 1]}':
            "invalid input: euclidean distances overflow a double\n",
    }
    for doc, message in docs.items():
        inst_path.write_text(doc)
        assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", 1) == EXIT_INVALID
        assert capsys.readouterr().err == message


def test_overlong_json_integer_exit_3(tmp_path, capsys):
    inst_path, sched_path = tmp_path / "inst.json", tmp_path / "s.json"
    huge = "1" + "0" * 5000  # beyond the digit limit of Python's int parser
    inst_path.write_text('{"metric": {"type": "line", "data": [0, %s]}, "weights": [1, 1]}' % huge)
    assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", 1) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input: invalid JSON: Exceeds the limit")
    inst_path.write_text(dump_instance(cooperative_line_instance()))
    sched_path.write_text('{"robots": [{"period": %s, "waypoints": []}]}' % huge)
    assert run("evaluate", "--instance", inst_path, "--schedule", sched_path) == EXIT_INVALID
    assert capsys.readouterr().err.startswith("invalid input: invalid JSON: Exceeds the limit")


def test_unbounded_candidate_count_exit_4(tmp_path, capsys):
    """Weights 1 and 1e-30 put 2^99 + 1 junction budgets on every site gap."""
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(
        '{"kind": "line", "metric": {"type": "line", "data": [0, 1, 2]},'
        ' "weights": [1, 1, "1e-30"]}'
    )
    code = run("solve", "--instance", inst_path, "--algo", "line-weighted", "--k", 1)
    assert code == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"resource cap: 2 gaps x {2**99 + 1} candidates exceed the state cap\n"
    )


def test_boolean_euclidean_coordinate_exit_3(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(
        '{"metric": {"type": "euclidean", "data": [[true, 0], [0, 1]]}, "weights": [1, 1]}'
    )
    assert run("solve", "--instance", inst_path, "--algo", "metric", "--k", 1) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err == "invalid input: euclidean coordinates must be numbers, not booleans\n"


def test_closed_stdout_ends_without_traceback(tmp_path):
    """Like `patrol solve ... | head -1`: the reader takes one line of a
    report far larger than a pipe buffer and closes."""
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-uniform", "--n", 3000, "--seed", 1, "--out", inst_path)
    src = str(Path(patrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = [sys.executable, "-m", "patrol.cli", "solve", "--instance", str(inst_path),
            "--algo", "line-uniform", "--k", "2"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == EXIT_BROKEN_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_malformed_oracle_budget_variable_leaves_commands_working(tmp_path):
    """Only the slotted-motion reference search reads
    PATROL_ORACLE_BUDGET_SECS, so a value that is not a number must not
    stop importing patrol, generating or solving."""
    inst_path = tmp_path / "inst.json"
    src = str(Path(patrol.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PATROL_ORACLE_BUDGET_SECS="abc")
    for argv in (
        ["generate", "--kind", "euclidean", "--n", "5", "--out", str(inst_path)],
        ["solve", "--instance", str(inst_path), "--algo", "metric", "--k", "2"],
    ):
        done = subprocess.run([sys.executable, "-m", "patrol.cli", *argv], env=env,
                              capture_output=True, timeout=60)
        assert done.returncode == EXIT_OK, done.stderr.decode()
        assert b"Traceback" not in done.stderr


def test_huge_k_trips_the_pair_cap_at_once(tmp_path, capsys):
    """A k past the pair cap's bit length trips line-weighted's level-0
    cap without raising the atom count to the k-th power, which took
    about 8 s per command at k = 10^7 (and needs about 430 MB at 10^9)."""
    inst_path = tmp_path / "inst.json"
    run("generate", "--kind", "line-weighted", "--n", 4, "--seed", 1, "--wmax", 2,
        "--out", inst_path)
    capsys.readouterr()
    started = time.perf_counter()
    for argv in (("solve", "--algo", "line-weighted"),
                 ("compare", "--algos", "line-weighted,metric")):
        assert run(*argv, "--instance", inst_path, "--k", 10**7) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"resource cap: 11^{10**7} atomic combinations exceed the pair cap\n")
    assert time.perf_counter() - started < 3


def test_numbers_past_the_writers_limits_exit_4(tmp_path, capsys):
    """A lower bound whose digits are past int()'s digit limit, and a
    ratio, a latency or a speed violation's distance past the double
    range, end in one resource-cap line and exit 4 from every command
    that writes them."""
    wide, far = tmp_path / "wide.json", tmp_path / "far.json"
    wide.write_text(json.dumps({"kind": "line", "metric": {"type": "line", "data": list(range(30))},
                                "weights": [1] + ["1e-4000"] * 29}))
    far.write_text(json.dumps({"kind": "line", "metric": {"type": "line", "data": [0, 1, 2]},
                               "weights": [1, "1e-4300", "1e-4300"]}))
    sched_path = tmp_path / "s.json"
    digits = "resource cap: a number over 4300 digits cannot be written\n"
    double = "resource cap: a number past the double range cannot be written\n"
    for argv, message in (
        (("solve", "--instance", wide, "--algo", "metric", "--k", 1), digits),
        (("compare", "--instance", wide, "--k", 1, "--algos", "metric"), double),
        (("solve", "--instance", far, "--algo", "metric", "--k", 1), double),
        (("compare", "--instance", far, "--k", 1, "--algos", "metric"), double),
    ):
        assert run(*argv) == EXIT_RESOURCE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message, argv
    # a latency past the double range, written exactly but not as a float
    long = tmp_path / "long.json"
    long.write_text(dump_instance(line_instance([0, Fraction(10**400)], [1, 1])))
    assert run("solve", "--instance", long, "--algo", "line-single", "--k", 1,
               "--out-schedule", sched_path) == EXIT_OK
    fast = tmp_path / "fast.json"
    write_site_schedule(fast, {"site": 0}, {"site": 1})
    for argv in (("evaluate", "--instance", long, "--schedule", sched_path,
                  "--csv", tmp_path / "lat.csv"),
                 ("compare", "--instance", long, "--k", 1, "--algos", "line-single"),
                 ("evaluate", "--instance", long, "--schedule", fast)):
        capsys.readouterr()
        assert run(*argv) == EXIT_RESOURCE, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == double, argv


def test_exit_4_leaves_no_earlier_output_file(tmp_path, capsys):
    """A command that ends in exit 4 on a number it cannot write writes no
    file at all, not even the ones whose text could be written."""
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"kind": "line", "metric": {"type": "line", "data": list(range(30))},
                                "weights": [1] + ["1e-4000"] * 29}))
    sched, report = tmp_path / "s.json", tmp_path / "r.json"
    assert run("solve", "--instance", wide, "--algo", "metric", "--k", 1,
               "--out-schedule", sched, "--out-report", report) == EXIT_RESOURCE
    assert not sched.exists() and not report.exists()
    # a latency past the double range: the JSON report is exact, the CSV is not
    long = tmp_path / "long.json"
    long.write_text(dump_instance(line_instance([0, Fraction(10**400)], [1, 1])))
    assert run("solve", "--instance", long, "--algo", "line-single", "--k", 1,
               "--out-schedule", sched) == EXIT_OK
    table = tmp_path / "t.csv"
    assert run("evaluate", "--instance", long, "--schedule", sched,
               "--report", report, "--csv", table) == EXIT_RESOURCE
    assert not report.exists() and not table.exists()
    assert capsys.readouterr().err.count("resource cap:") == 2
