"""Benchmark for the patrol solvers and evaluator.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` (nothing is installed).  One process runs one workload as a
closed loop with a single client: one operation at a time, no think
time, no threads.  The workload's fixed operation list (a "pass") runs
at least three times, and again while another pass still fits in
``--seconds``.  Outputs are checked after timing.

Times are load-corrected: the host's shared core slows pure-Python code
by up to 2x in bursts that last seconds, so every timed region is
bracketed by a fixed reference loop and its wall time is scaled by
REFERENCE_S over the reference's mean time.  An operation's time is the
median of its passes.  Raw wall times (fastest of the passes) are
printed too.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace
1`` alternates untraced and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object; the
lines before it are the raw per-operation record.  ``--record-digest``
runs one pass and stores its exact outputs in ``bench/digest.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DIGEST = BENCH_DIR / "digest.json"
SETUP_REPEATS = 7
MIN_PASSES = 3
# fastest time of reference_loop() on an idle core of the host the
# benchmark was sized on (2 vCPUs, Python 3.11.7): corrected times are in
# seconds of that host when nothing else runs
REFERENCE_S = 0.00125


def load_program():
    """Import patrol from the checkout's own sources, or refuse."""
    src = ROOT / "src"
    if not (src / "patrol" / "__init__.py").is_file():
        raise SystemExit(f"bench: no patrol sources under {src}")
    sys.path.insert(0, str(src))
    import patrol

    if Path(patrol.__file__).resolve().parent != src / "patrol":
        raise SystemExit(f"bench: imported patrol from {patrol.__file__}, not {src}")
    sys.path.insert(0, str(BENCH_DIR))


def reference_loop() -> float:
    """Seconds taken by a fixed loop of exact fraction sums (the kind of
    work the solvers do), with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def timed(fn):
    """(result or exception, load-corrected seconds, wall seconds) of fn()."""
    before = reference_loop()
    started = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # the CLI would exit non-zero; counted as failed
        result = exc
    wall = time.perf_counter() - started
    after = reference_loop()
    return result, wall * 2 * REFERENCE_S / (before + after), wall


def run_pass(ops, firsts, outputs, failures) -> list[tuple[float, float]]:
    """Run every operation once and return each one's (corrected, wall)
    seconds.  The first pass's results go to `firsts`; every pass appends
    each operation's exact outputs (None when it failed).  Each operation
    starts from a collected heap, as a fresh CLI process would."""
    times = []
    for i, op in enumerate(ops):
        gc.collect()
        result, corrected, wall = timed(op.run)
        times.append((corrected, wall))
        if len(firsts) == i:
            firsts.append(result)
        if isinstance(result, Exception) or result.code != 0:
            failures.setdefault(i, f"failed: {result!r:.200}")
            outputs[i].append(None)
        else:
            outputs[i].append(result.outputs)
    return times


def check_outputs(ops, firsts, outputs, failures) -> int:
    """Check each operation's first result; every later pass must repeat
    its outputs exactly.  Returns the number of failed executions."""
    failed = 0
    for i, op in enumerate(ops):
        if i not in failures:
            try:
                problems = op.check(firsts[i])
            except Exception as exc:  # a crashing check is a failed output
                problems = [f"check raised {exc!r:.200}"]
            if problems:
                failures[i] = "; ".join(problems[:3])
        for got in outputs[i]:
            if i in failures or got != firsts[i].outputs:
                failed += 1
                failures.setdefault(i, "output differs between passes")
    return failed


def _as_json(outputs) -> dict[str, list[str]]:
    return {k: list(v) for k, v in outputs.items()}


def digest_changes(workload: str, seed: int, ops, outputs) -> tuple[int, int]:
    """(outputs compared with the recorded digest, how many differ)."""
    recorded = {}
    if DIGEST.is_file():
        recorded = json.loads(DIGEST.read_text()).get(workload, {}).get(str(seed), {})
    checked = changed = 0
    for op, got in zip(ops, outputs):
        if op.label in recorded and got[0] is not None:
            checked += 1
            changed += _as_json(got[0]) != recorded[op.label]
    return checked, changed


def record_digest(workload: str, seed: int, ops, outputs):
    doc = json.loads(DIGEST.read_text()) if DIGEST.is_file() else {}
    doc.setdefault(workload, {})[str(seed)] = {
        op.label: _as_json(got[0]) for op, got in zip(ops, outputs)
    }
    DIGEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def ratio_gmean(firsts, solves: bool) -> float:
    """Geometric mean of exact measured/lower_bound over solver outputs.
    The evaluate workload has no solver; every output that passed its
    check matched the independent reference exactly, so its ratio is 1."""
    logs = []
    for first in firsts:
        if isinstance(first, Exception):
            continue
        if solves:
            logs.extend(math.log(r.ratio) for r in first.reports if r.ratio)
        elif first.latency is not None:
            logs.append(0.0)
    return math.exp(statistics.fmean(logs)) if logs else float("nan")


def src_lines() -> dict[str, int]:
    counts = {
        f"src_lines.{path.stem}": len(path.read_bytes().splitlines())
        for path in sorted((ROOT / "src" / "patrol").glob("*.py"))
    }
    counts["src_lines.total"] = sum(counts.values())
    return counts


def emit(spec_metrics, values: dict[str, float], result: dict):
    metrics = {}
    for m in spec_metrics:
        if m["name"] not in values:
            raise SystemExit(f"bench: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"metric {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    result["metrics"] = metrics
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digest", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    from layer_trace import LayerTrace
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}")
    workload = WORKLOADS[args.workload]

    setups = [timed(lambda: workload.setup(args.seed))
              for _ in range(1 if args.trace else SETUP_REPEATS)]
    if isinstance(setups[-1][0], Exception):
        raise SystemExit(f"bench: set-up failed: {setups[-1][0]!r}")
    ops = setups[-1][0]

    firsts: list = []  # each operation's first Result (or exception)
    outputs: list[list] = [[] for _ in ops]
    failures: dict[int, str] = {}
    passes: list[list[tuple[float, float]]] = []
    traced: list[list[tuple[float, float]]] = []
    trace = LayerTrace()
    min_passes = 1 if args.trace else MIN_PASSES  # a traced run needs no fastest-of
    began = time.perf_counter()
    while True:
        passes.append(run_pass(ops, firsts, outputs, failures))
        if args.trace:
            with trace.installed():
                traced.append(run_pass(ops, firsts, outputs, failures))
        if args.record_digest:
            break
        elapsed = time.perf_counter() - began
        if len(passes) >= min_passes and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break

    for i, op in enumerate(ops):
        print(f"op {i:3d} {op.label}: corrected/wall s "
              + " ".join(f"{p[i][0]:.4f}/{p[i][1]:.4f}" for p in passes))
    failed = check_outputs(ops, firsts, outputs, failures)
    for i, why in sorted(failures.items()):
        print(f"FAILED op {i} {ops[i].label}: {why}")
    checked, changed = digest_changes(args.workload, args.seed, ops, outputs)
    if args.record_digest:
        if failures:
            raise SystemExit("bench: not recording a digest with failed operations")
        record_digest(args.workload, args.seed, ops, outputs)
    attempted = sum(len(o) for o in outputs)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} ops, {attempted} executions, {failed} failed, "
          f"digest {checked} compared / {changed} changed")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}

    if not args.trace:
        best = [statistics.median(p[i][0] for p in passes) for i in range(len(ops))]
        best_wall = [min(p[i][1] for p in passes) for i in range(len(ops))]
        print(f"raw wall: ops_per_s {len(ops) / sum(best_wall):.6g}, "
              f"op_s.p50 {statistics.median(best_wall):.6g} s, setup_s "
              f"{statistics.median(s[2] for s in setups):.6g} s")
        print(f"op_s.p50 over {len(best)} operations, each the median of {len(passes)} passes")
        values = {
            "ops_per_s": len(ops) / sum(best),
            "op_s.p50": statistics.median(best),
            "setup_s": statistics.median(s[1] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ratio.gmean": ratio_gmean(firsts, workload.solves),
        }
        emit(spec["end_to_end"], values, result)
        return 0

    n = len(traced)
    values = {m["name"]: 0.0 for m in spec["per_layer"]}
    for key, seconds in trace.self_s.items():
        values[key + ".s"] = seconds / n
    for key, count in trace.counts.items():
        values[key] = count / n
    legs, pairs = trace.evaluator_work()
    values["evaluate.legs"] = legs / n
    values["evaluate.leg_site_pairs"] = pairs / n
    traced_wall = sum(t[1] for p in traced for t in p)
    values["unattributed.s"] = (traced_wall - trace.top_s) / n
    values["trace.overhead"] = (statistics.median(sum(t[0] for t in p) for p in traced)
                                / statistics.median(sum(t[0] for t in p) for p in passes))
    values["outputs.checked"] = checked
    values["outputs.changed"] = changed
    values.update(src_lines())
    shares = {key: trace.inclusive_s[key] / traced_wall for key in workload.target}
    print("target layer share of traced operation time: "
          + ", ".join(f"{k} {v:.3f}" for k, v in shares.items())
          + f" (total {sum(shares.values()):.3f})")
    for key in sorted(trace.inclusive_s):
        print(f"layer {key}: inclusive {trace.inclusive_s[key] / n:.4f} s, "
              f"self {trace.self_s[key] / n:.4f} s per pass")
    emit(spec["per_layer"], values, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
