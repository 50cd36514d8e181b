"""Command-line front end: generate, solve, evaluate, compare.

Exit codes: 0 success, 2 infeasible or incompatible input, 3 validation
failure (speed violation or unvisited site), 4 resource cap exceeded.
A reader that closes standard output early ends the command quietly with 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

from .errors import (
    IncompatibleAlgorithmError,
    InstanceError,
    PatrolError,
    PeriodOverflowError,
    ResourceLimitError,
    ScheduleFormatError,
    UnvisitedSiteError,
)
from .evaluate import max_weighted_latency, validate_speed
from .generate import KINDS, generate_instance
from .instance import Instance, dump_instance, load_instance
from .line_uniform import solve_line_single_weighted, solve_line_uniform
from .metric_scheduler import baseline_cover_schedule, solve_metric
from .report import SolveReport
from .schedule import dump_schedule, load_schedule
from .time_window import solve_line_weighted

ALGOS = ("metric", "baseline", "line-uniform", "line-single", "line-weighted")

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_INFEASIBLE = 2
EXIT_INVALID = 3
EXIT_RESOURCE = 4


def _read(path: str, error: type[PatrolError]) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_instance(path: str) -> Instance:
    return load_instance(_read(path, InstanceError))


def run_solver(instance: Instance, algo: str, k: int, refine: bool = False) -> SolveReport:
    if algo == "metric":
        return solve_metric(instance, k, refine=refine)
    if algo == "baseline":
        return baseline_cover_schedule(instance, k)
    if algo == "line-uniform":
        return solve_line_uniform(instance, k)
    if algo == "line-single":
        if k != 1:
            raise IncompatibleAlgorithmError("line-single schedules exactly one robot")
        return solve_line_single_weighted(instance)
    if algo == "line-weighted":
        return solve_line_weighted(instance, k)
    raise IncompatibleAlgorithmError(f"unknown algo {algo!r}; choose from {', '.join(ALGOS)}")


def cmd_generate(args) -> int:
    instance = generate_instance(args.kind, args.n, args.seed, gap=args.gap, wmax=args.wmax)
    Path(args.out).write_text(dump_instance(instance))
    print(f"wrote {args.out}: kind={args.kind} n={args.n} seed={args.seed}")
    return EXIT_OK


def cmd_solve(args) -> int:
    instance = _read_instance(args.instance)
    started = time.perf_counter()
    report = run_solver(instance, args.algo, args.k, refine=args.refine)
    elapsed = time.perf_counter() - started
    if args.out_schedule:
        Path(args.out_schedule).write_text(dump_schedule(report.schedule))
    doc = report.to_json_dict(seconds=elapsed)
    doc["config"] = {
        "instance": args.instance,
        "algo": args.algo,
        "k": args.k,
        "refine": args.refine,
        "threads": args.threads,
    }
    text = json.dumps(doc, indent=2)
    if args.out_report:
        Path(args.out_report).write_text(text)
    print(text)
    return EXIT_OK


def cmd_evaluate(args) -> int:
    instance = _read_instance(args.instance)
    schedule = load_schedule(_read(args.schedule, ScheduleFormatError))
    violations = validate_speed(schedule, instance.metric)
    if violations:
        for v in violations:
            print(f"speed violation: {v}", file=sys.stderr)
        return EXIT_INVALID
    try:
        latency = max_weighted_latency(schedule, instance)
    except UnvisitedSiteError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    doc = json.dumps(latency.to_json_dict(), indent=2)
    if args.report:
        Path(args.report).write_text(doc)
    if args.csv:
        Path(args.csv).write_text(latency.to_csv())
    print(doc)
    return EXIT_OK


def cmd_compare(args) -> int:
    instance = _read_instance(args.instance)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos:
        print("no algorithms given", file=sys.stderr)
        return EXIT_INFEASIBLE
    rows = []
    for algo in algos:
        started = time.perf_counter()
        report = run_solver(instance, algo, args.k)
        elapsed = time.perf_counter() - started
        ratio = report.ratio
        rows.append(
            [
                algo,
                float(report.measured_latency),
                float(report.lower_bound),
                "" if ratio is None else float(ratio),
                round(elapsed, 6),
            ]
        )
    header = ["algo", "measured", "lower_bound", "ratio", "seconds"]
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patrol",
        description="multi-robot patrol scheduling: solvers and exact evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a deterministic instance file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--gap", type=float, default=10.0, help="cluster gap (clustered)")
    gen.add_argument("--wmax", type=int, default=8, help="max integer weight")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve an instance and write schedule+report")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--algo", required=True, choices=ALGOS)
    solve.add_argument("--k", type=int, required=True)
    solve.add_argument("--refine", action="store_true",
                       help="bisect the final doubling interval; kept only if "
                            "its measured latency is no worse (metric)")
    solve.add_argument("--threads", type=int, default=1,
                       help="worker hint; results are identical for any value")
    solve.add_argument("--out-schedule")
    solve.add_argument("--out-report")
    solve.set_defaults(func=cmd_solve)

    ev = sub.add_parser("evaluate", help="validate a schedule and measure latencies")
    ev.add_argument("--instance", required=True)
    ev.add_argument("--schedule", required=True)
    ev.add_argument("--csv")
    ev.add_argument("--report")
    ev.set_defaults(func=cmd_evaluate)

    cmp_ = sub.add_parser("compare", help="run several algorithms, emit a CSV table")
    cmp_.add_argument("--instance", required=True)
    cmp_.add_argument("--k", type=int, required=True)
    cmp_.add_argument("--algos", required=True, help="comma-separated algorithm list")
    cmp_.add_argument("--csv")
    cmp_.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "k", 1) < 1:
        print(f"invalid input: --k must be at least 1, got {args.k}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except IncompatibleAlgorithmError as exc:
        print(f"incompatible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ResourceLimitError, PeriodOverflowError) as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InstanceError, ScheduleFormatError, UnvisitedSiteError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PatrolError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INFEASIBLE


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the final flush
        # at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
