"""tests/tools/mutate.py on a toy checkout: one mutant killed, one that
survives and one that loops until the runner's timeout, printed in source
order, with the checkout's files left as they were."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

RUNNER = Path(__file__).resolve().parent / "tools" / "mutate.py"

# The loop sleeps, so its looping mutant leaves both cores to the two
# mutants that run beside it under the timeout.
TOY = '''import time


def settle(x, floor, step):
    while x > floor:
        time.sleep(0.01)
        x = clamp(x - step, floor)
    return x


def clamp(x, floor):
    return max(x, floor)


def describe(x):
    return "empty" if not x else "full"
'''

TESTS = '''from toy import settle


def test_steps_down_to_the_floor():
    assert settle(10, 3, 2) == 3


def test_never_goes_below_the_floor():
    assert settle(4, 3, 2) == 3
'''


def load_runner():
    spec = importlib.util.spec_from_file_location("mutate", RUNNER)
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    return runner


def test_only_keeps_the_ids_that_start_with_the_prefix():
    mutants = load_runner().mutants
    assert [(mid, line) for mid, line, _ in mutants(TOY, "toy")] == [
        ("toy:settle:cmp:0", 5), ("toy:clamp:minmax:0", 12), ("toy:describe:not:0", 16)]
    assert list(mutants(TOY, "toy", "toy:describe:")) == [
        ("toy:describe:not:0", 16, ast.unparse(ast.parse(TOY.replace("if not x", "if x"))))]
    assert list(mutants(TOY, "toy", "toy:clamp:cmp")) == []


def test_runner_reports_each_outcome_in_source_order(tmp_path):
    files = {"pyproject.toml": '[tool.pytest.ini_options]\npythonpath = ["src"]\n',
             "src/toy.py": TOY, "tests/test_toy.py": TESTS}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    # Only the plugin that reads --hypothesis-seed: the others would double
    # the start-up time of each of the four pytest runs.
    lean = dict(os.environ, PYTEST_DISABLE_PLUGIN_AUTOLOAD="1",
                PYTEST_ADDOPTS="-p _hypothesis_pytestplugin")
    done = subprocess.run([sys.executable, RUNNER, "--jobs", "2", "src/toy.py",
                           "tests/test_toy.py"], cwd=tmp_path, env=lean, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    # x >= floor never leaves the loop once x reaches the floor; min lets
    # settle(4, 3, 2) end below the floor
    assert done.stdout == ("timeout  toy:settle:cmp:0 line 5\n"
                           "killed   toy:clamp:minmax:0 line 12\n"
                           "survived toy:describe:not:0 line 16\n"
                           "3 mutants: 1 killed, 1 survived, 1 timeout\n")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
