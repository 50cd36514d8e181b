"""Mutation runner: which small faults in one module a test subset catches.

    python tests/tools/mutate.py [--only PREFIX] [--jobs N] MODULE TEST...

Run from the root of a checkout.  Inside every function of MODULE, each
mutant flips one comparison (< and <=, > and >=, == and !=), shifts one
int constant by +1 or -1, swaps min and max or and and or, or drops a
not.  Its id, module:function:kind:n with n counting that kind within the
function, is stable, so two runs compare as sets; --only runs the ids
that start with PREFIX.  Each mutant runs pytest -x on the TESTs with a
fixed hypothesis seed, in a fresh temporary copy of src/, tests/ and
pyproject.toml (whose pythonpath puts the rootdir's src/ first on
sys.path), under a timeout of 3x the unmutated run and at least 2 s
past it; --jobs runs N mutants at a time (more than the idle cores
slows each run toward that timeout).  One line per mutant, killed, survived or timeout, its id and
its line, is printed in source order, then the totals.  Nothing is
written into the checkout.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SWAPS = {"min": "max", "max": "min"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def kinds(node):
    """(kind, mutate) for each mutant of one node; mutate(node) returns the
    node that takes its place."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in FLIPS:
                yield "cmp", lambda n, i=i: n.ops.__setitem__(i, FLIPS[type(n.ops[i])]()) or n
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield "int+1", lambda n: ast.Constant(n.value + 1)
        yield "int-1", lambda n: ast.Constant(n.value - 1)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in SWAPS:
        yield "minmax", lambda n: setattr(n.func, "id", SWAPS[n.func.id]) or n
    elif isinstance(node, ast.BoolOp):
        yield "andor", lambda n: ast.BoolOp(ast.Or() if type(n.op) is ast.And else ast.And(),
                                            n.values)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not", lambda n: n.operand


class Mutate(ast.NodeTransformer):
    """One source-order walk over a tree.  It lists (function, kind, line)
    for every mutation point inside a function (methods as Class.method,
    nested functions as outer.inner) and rewrites point number target."""

    def __init__(self, target=None):
        self.target, self.points, self.prefix, self.func = target, [], "", None

    def visit(self, node):
        if isinstance(node, (*DEFS, ast.ClassDef)):
            outer = self.prefix, self.func
            name = self.prefix + node.name
            self.prefix, self.func = name + ".", name if isinstance(node, DEFS) else None
            self.generic_visit(node)
            self.prefix, self.func = outer
            return node
        if self.func is not None:
            line = getattr(node, "lineno", None)
            for kind, mutate in list(kinds(node)):
                if len(self.points) == self.target:
                    node = mutate(node)
                self.points.append((self.func, kind, line))
        return self.generic_visit(node)


def mutants(source, module, only=""):
    """Yield (id, line, mutated source) for every mutation point of source
    whose id starts with only."""
    walk = Mutate()
    walk.visit(ast.parse(source))
    seen = {}
    for i, (func, kind, line) in enumerate(walk.points):
        n = seen[func, kind] = seen.get((func, kind), -1) + 1
        mid = f"{module}:{func}:{kind}:{n}"
        if mid.startswith(only):
            yield mid, line, ast.unparse(Mutate(i).visit(ast.parse(source)))


def run(root, tests, timeout):
    """pytest's exit code on a copy of root, or None past the timeout."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *tests]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:  # past the timeout, or interrupted: stop pytest and what it started
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def copy(checkout, module, source):
    """A temporary copy of the checkout's src/, tests/ and pyproject.toml,
    with module's text replaced by source."""
    tmp = tempfile.TemporaryDirectory(prefix="mutate-")
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(checkout / name, Path(tmp.name) / name, ignore=skip)
    shutil.copy2(checkout / "pyproject.toml", tmp.name)
    (Path(tmp.name) / module).write_text(source)
    return tmp


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="the module to mutate, relative to the checkout")
    parser.add_argument("tests", nargs="+", help="the test files that should kill the mutants")
    parser.add_argument("--only", default="", help="run the mutants whose id starts with this")
    parser.add_argument("--jobs", type=int, default=1, help="mutants run at a time")
    args = parser.parse_args(argv)
    checkout = Path.cwd().resolve()
    if not Path(args.module).resolve().is_relative_to(checkout):  # copies write only inside
        parser.error(f"{args.module} is not inside the checkout {checkout}")
    module = Path(args.module).resolve().relative_to(checkout)
    source = (checkout / module).read_text()
    with copy(checkout, module, ast.unparse(ast.parse(source))) as tmp:  # as mutants are written
        start = time.perf_counter()
        if run(tmp, args.tests, None) != 0:
            sys.exit("the unmutated tests do not pass")
        took = time.perf_counter() - start
    timeout = max(3 * took, took + 2)  # a sub-second suite still gets room for a busy host

    def attempt(mutant):
        with copy(checkout, module, mutant[2]) as tmp:
            code = run(tmp, args.tests, timeout)
        return "timeout" if code is None else "survived" if code == 0 else "killed"

    totals = {"killed": 0, "survived": 0, "timeout": 0}
    found = list(mutants(source, module.stem, args.only))
    pool = ThreadPoolExecutor(args.jobs)
    try:
        for (mid, line, _), status in zip(found, pool.map(attempt, found)):
            totals[status] += 1
            print(f"{status:8} {mid} line {line}", flush=True)
    finally:  # interrupted: start no further mutant
        pool.shutdown(cancel_futures=True)
    print(f"{sum(totals.values())} mutants: " + ", ".join(f"{v} {k}" for k, v in totals.items()))


if __name__ == "__main__":
    main()
