"""A grammar fuzz of the command line: argument vectors drawn from the
parser's own actions, with edge values for every option, run in process.

Whatever the vector, the command must end with an exit code README lists
(0, 2, 3, 4, or 1 for a failed internal check) and never with an
uncaught exception, which outside the process is a traceback.
"""

import argparse
import random
import time

import pytest

from patrol.cli import ALGOS, EXIT_INTERNAL, build_parser, main

SEED = 20
RANDOM_VECTORS = 400
BUDGET_S = 20  # the whole fuzz takes about 1 s on 2 shared cores

INT_EDGES = [0, -1, 10**9, "nan", "", "1.5"]
FLOAT_EDGES = [0, -1, 10**9, "nan", "inf", "-inf", ""]


def subcommands(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(sub):
    return [a for a in sub._actions
            if a.option_strings and not isinstance(a, argparse._HelpAction)]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Instances with n <= 6 and schedules solved on them, plus the
    paths a reader or writer cannot use."""
    d = tmp_path_factory.mktemp("fuzz")
    made = {name: d / f"{name}.json" for name in ("line", "uniform", "euclid")}
    for name, kind, n in (("line", "line-weighted", 4), ("uniform", "line-uniform", 5),
                          ("euclid", "euclidean", 6)):
        assert main(["generate", "--kind", kind, "--n", str(n), "--seed", "1", "--wmax", "2",
                     "--out", str(made[name])]) == 0
    for name, algo in (("line", "line-weighted"), ("euclid", "metric")):
        made[name + "-schedule"] = d / f"{name}-schedule.json"
        assert main(["solve", "--instance", str(made[name]), "--algo", algo, "--k", "2",
                     "--out-schedule", str(made[name + "-schedule"])]) == 0
    made["missing"] = d / "missing.json"
    made["nowhere"] = d / "missing-dir" / "out.json"
    made["dir"] = d
    made["out"] = d / "out" / "written.json"
    made["out"].parent.mkdir()
    return made


def edge_values(action, files):
    """Every value the fuzz tries for one option."""
    if action.nargs == 0:
        return [None]  # a flag: present
    if action.choices:
        return list(action.choices) + ["bogus", ""]
    if action.type is int:
        # --n is the instance size: 10**9 asks for a billion-site file, a
        # request for work, not an edge of the grammar
        return [v for v in INT_EDGES if action.dest != "n" or v != 10**9] + [1, 2]
    if action.type is float:
        return FLOAT_EDGES + [1]
    paths = [files["missing"], files["nowhere"], files["dir"], ""]
    if action.dest == "instance":
        return [files["line"], files["uniform"], files["euclid"]] + paths
    if action.dest == "schedule":
        return [files["line-schedule"], files["euclid-schedule"]] + paths
    if action.dest == "algos":
        return ["metric,baseline", ",".join(ALGOS), "line-weighted", "", ",", "bogus", "-inf"]
    return [files["out"], files["nowhere"], files["dir"], ""]  # an output path


def valid(action, files):
    """A value with which the command can succeed."""
    return {"kind": "line-weighted", "n": 4, "seed": 1, "gap": 10, "wmax": 2,
            "instance": files["line"], "algo": "line-weighted", "k": 1, "refine": None,
            "threads": 1, "schedule": files["line-schedule"],
            "algos": "metric,baseline,line-weighted"}.get(action.dest, files["out"])


def argv_of(name, chosen):
    argv = [name]
    for action, value in chosen:
        argv.append(action.option_strings[0])
        if value is not None:
            argv.append(str(value))
    return argv


def vectors(files, rng):
    """Per subcommand: each option at each edge value with the required
    options valid, each required option left out, and an option given as
    the last token with no value; then random vectors, each option valid
    or at an edge, some with a stray token at the end."""
    for name, sub in subcommands(build_parser()).items():
        acts = options(sub)
        required = [a for a in acts if a.required]
        base = [(a, valid(a, files)) for a in required]
        for action in acts:
            for value in edge_values(action, files):
                yield argv_of(name, [(a, v) for a, v in base if a is not action]
                              + [(action, value)])
        for action in required:
            yield argv_of(name, [(a, v) for a, v in base if a is not action])
        for action in acts:
            if action.nargs != 0:
                yield argv_of(name, base) + [action.option_strings[0]]
    names = list(subcommands(build_parser()))
    for _ in range(RANDOM_VECTORS):
        name = rng.choice(names)
        chosen = [(a, valid(a, files) if rng.random() < 0.5 else rng.choice(edge_values(a, files)))
                  for a in options(subcommands(build_parser())[name])
                  if a.required or rng.random() < 0.5]
        yield argv_of(name, chosen) + rng.choice([[]] * 6 + [["-inf"], ["--bogus"]])


def run(argv, capsys):
    """(exit code, stderr) of one in-process command; a usage error or
    --help ends argparse with SystemExit."""
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


def test_cli_grammar_fuzz(files, capsys):
    started = time.perf_counter()
    seen_codes, seen_options, failures = set(), set(), []
    count = 0
    for argv in vectors(files, random.Random(SEED)):
        try:
            code, err = run(argv, capsys)
        except Exception as exc:  # what a user would see as a traceback
            failures.append((argv, f"{type(exc).__name__}: {exc}"[:200]))
            continue
        count += 1
        seen_codes.add(code)
        seen_options.update((argv[0], token) for token in argv if token.startswith("--"))
        if "Traceback" in err or code not in (0, 1, 2, 3, 4):
            failures.append((argv, code, err[-200:]))
        elif code == EXIT_INTERNAL and not err.startswith("internal error: "):
            failures.append((argv, code, err[-200:]))
    assert not failures, failures[:5]
    assert time.perf_counter() - started < BUDGET_S
    every = {(name, a.option_strings[0]) for name, sub in subcommands(build_parser()).items()
             for a in options(sub)}
    assert every <= seen_options and {0, 2, 3, 4} <= seen_codes, (every - seen_options, seen_codes)
    assert count > 500
