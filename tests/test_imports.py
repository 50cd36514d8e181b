"""Every module of the package imports on its own, in a fresh interpreter.

The package's __init__ imports nothing, so a module loads only what it
imports itself: an import-order cycle between two modules shows up here
instead of hiding behind whichever module happened to load first.  No
test file imports another, so each one runs, or is deleted, alone.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import patrol

PACKAGE = Path(patrol.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def run_python(code):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)


def test_every_module_imports_alone():
    assert {"cli", "instance", "time_window"} <= set(MODULES)
    for name in MODULES:
        done = run_python(f"import patrol.{name}")
        assert done.returncode == 0, (name, done.stderr)


def test_instance_does_not_load_the_solvers():
    done = run_python("import sys, patrol.instance\n"
                      "print(' '.join(m for m in sys.modules if m.startswith('patrol.')))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "patrol.instance" in loaded
    solvers = {"evaluate", "line_uniform", "metric_core", "metric_scheduler", "oracles",
               "time_window"}
    assert not loaded & {"patrol." + name for name in solvers}


def test_no_test_file_imports_another():
    """What two test files share lives in conftest.py or scenarios.py."""
    tests = Path(__file__).resolve().parent
    for path in sorted(tests.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            assert not [n for n in names if n.split(".")[0].startswith("test_")], (path.name, names)
