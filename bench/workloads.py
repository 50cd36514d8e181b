"""The benchmark's workloads: inputs made from the seed, timed operations
and the checks run on their outputs after timing.

Every operation is the in-process equivalent of one ``patrol`` CLI
command: it parses the instance (and schedule) document, runs the
solver or evaluator, and builds the text the command would print.  It
excludes interpreter start-up.  Instance seed ``i`` of a grid becomes
``1000 * seed + i``, so different seeds share no instance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from patrol import cli, evaluate, fixtures, generate, instance as inst_mod, schedule as sched_mod
from patrol.errors import UnvisitedSiteError
from patrol.rationals import format_fraction

SEED_STRIDE = 1000


@dataclass
class Result:
    """What one operation produced."""

    code: int  # the exit code the CLI command would return
    text: str  # what the command would print
    outputs: dict[str, tuple[str, ...]]  # exact output strings, for the digest
    reports: tuple = ()  # SolveReports, for the checks
    schedule_text: Optional[str] = None  # a solve's dumped schedule
    latency: object = None  # an evaluate's LatencyReport


@dataclass
class Op:
    label: str
    run: Callable[[], Result]
    check: Callable[[Result], list[str]]  # problems found; empty when correct


@dataclass
class Workload:
    name: str
    setup: Callable[[int], list[Op]]
    solves: bool  # ratio.gmean is over solver outputs; evaluate has none
    target: tuple[str, ...]  # the layers it is meant to stress


def exact(report) -> tuple[str, str, str]:
    return (
        format_fraction(report.L_accepted),
        format_fraction(report.lower_bound),
        format_fraction(report.measured_latency),
    )


# --- operations ---------------------------------------------------------------


def solve_op(doc: bytes, algo: str, k: int) -> Result:
    """`patrol solve --algo ALGO --k K --out-schedule ...`"""
    instance = inst_mod.load_instance(doc)
    started = time.perf_counter()
    report = cli.run_solver(instance, algo, k)
    elapsed = time.perf_counter() - started
    schedule_text = sched_mod.dump_schedule(report.schedule)
    out = report.to_json_dict(seconds=elapsed)
    out["config"] = {"instance": "-", "algo": algo, "k": k, "refine": False, "threads": 1}
    return Result(0, json.dumps(out, indent=2), {algo: exact(report)}, (report,), schedule_text)


def compare_op(doc: bytes, algos: tuple[str, ...], k: int) -> Result:
    """`patrol compare --algos A,B --k K`"""
    instance = inst_mod.load_instance(doc)
    rows, reports = [], []
    for algo in algos:
        started = time.perf_counter()
        report = cli.run_solver(instance, algo, k)
        elapsed = time.perf_counter() - started
        ratio = report.ratio
        rows.append([algo, float(report.measured_latency), float(report.lower_bound),
                     "" if ratio is None else float(ratio), round(elapsed, 6)])
        reports.append(report)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["algo", "measured", "lower_bound", "ratio", "seconds"])
    writer.writerows(rows)
    return Result(0, buf.getvalue(), {r.algo: exact(r) for r in reports}, tuple(reports))


def evaluate_op(inst_doc: bytes, sched_doc: bytes) -> Result:
    """`patrol evaluate --instance ... --schedule ...`"""
    instance = inst_mod.load_instance(inst_doc)
    schedule = sched_mod.load_schedule(sched_doc)
    violations = evaluate.validate_speed(schedule, instance.metric)
    if violations:
        return Result(cli.EXIT_INVALID, str(violations[0]), {})
    try:
        latency = evaluate.max_weighted_latency(schedule, instance)
    except UnvisitedSiteError as exc:
        return Result(cli.EXIT_INVALID, str(exc), {})
    text = json.dumps(latency.to_json_dict(), indent=2)
    return Result(0, text, {"evaluate": (format_fraction(latency.max_weighted),)}, latency=latency)


# --- checks -------------------------------------------------------------------


def check_solves(instance, exact_optimum: bool = False) -> Callable[[Result], list[str]]:
    """Each schedule passes speed validation, re-evaluates to exactly the
    reported `measured`, and `lower_bound <= measured`; an exact solver
    also has `measured == lower_bound`."""

    def check(result: Result) -> list[str]:
        problems = []
        for report in result.reports:
            schedule = report.schedule
            if result.schedule_text is not None:
                schedule = sched_mod.load_schedule(result.schedule_text)
            if evaluate.validate_speed(schedule, instance.metric):
                problems.append(f"{report.algo}: schedule breaks the speed limit")
            remeasured = evaluate.max_weighted_latency(schedule, instance).max_weighted
            if remeasured != report.measured_latency:
                problems.append(f"{report.algo}: re-evaluated {remeasured} != measured")
            if report.lower_bound > report.measured_latency:
                problems.append(f"{report.algo}: lower_bound above measured")
            if exact_optimum and report.measured_latency != report.lower_bound:
                problems.append(f"{report.algo}: exact solver measured != lower_bound")
        return problems

    return check


def check_latencies(instance, expected: Callable[[], dict[int, Fraction]]):
    """Per-site latencies equal independently computed values."""

    def check(result: Result) -> list[str]:
        want = expected()
        got = result.latency
        problems = [
            f"site {s}: latency {got.latency_of(s)} != expected {want[s]}"
            for s in instance.sites if got.latency_of(s) != want[s]
        ]
        top = max(instance.weights[s] * want[s] for s in instance.sites)
        if got.max_weighted != top:
            problems.append(f"max_weighted {got.max_weighted} != expected {top}")
        return problems

    return check


# --- independent expected latencies for the evaluate workload -------------------


def _lcm(values) -> Fraction:
    # not patrol.rationals.lcm_fractions: the reference shares no code with
    # the evaluator it checks
    num, den = 1, 0
    for v in values:
        num = math.lcm(num, v.numerator)
        den = math.gcd(den, v.denominator)
    return Fraction(num, den)


def line_sweep_latency(c: Fraction, sweeps) -> Fraction:
    """Latency of coordinate c under robots (left, right, f) that each
    start at `left` at time 0, pass every point up to `right`, come
    straight back, and take f times as long as at unit speed.  One unit-speed robot gives the
    closed form 2 * max(c - left, right - c); several robots are merged
    over their common period."""
    holders = [(a, b, f) for a, b, f in sweeps if a <= c <= b]
    if len(holders) == 1 and holders[0][2] == 1:
        a, b, _ = holders[0]
        return 2 * max(c - a, b - c)
    periods = [2 * f * (b - a) for a, b, f in holders]
    total = _lcm(periods)
    times = []
    for (a, b, f), period in zip(holders, periods):
        for rep in range(int(total / period)):
            times.append(f * (c - a) + rep * period)
            times.append(f * (2 * b - a - c) + rep * period)
    times.sort()
    gaps = [y - x for x, y in zip(times, times[1:])]
    return max(gaps + [times[0] + total - times[-1]])


# --- workloads ------------------------------------------------------------------


def _doc(instance) -> bytes:
    return inst_mod.dump_instance(instance).encode()


def metric_euclid(seed: int) -> list[Op]:
    """compare --algos metric,baseline --k 2 on euclidean n=12 with uniform
    weights, grid seeds 1..14, plus two seed-free clustered n=24 instances:
    one with uniform weights and one with weights cycling 1..8, which
    brings in weight classes and the exact lower-bound covers."""
    cases = [(f"euclidean n=12 seed={s}", generate.generate_instance("euclidean", 12, s, wmax=1))
             for s in (SEED_STRIDE * seed + i for i in range(1, 15))]
    cases.append(("clustered n=24", generate.generate_instance("clustered", 24, 0)))
    cases.append(("clustered n=24 weights 1..8",
                  fixtures.clustered_instance(24, weights=[1 + i % 8 for i in range(24)])))
    return [
        Op(f"compare {label}",
           lambda doc=_doc(instance): compare_op(doc, ("metric", "baseline"), 2),
           check_solves(instance))
        for label, instance in cases
    ]


def line_dp(seed: int) -> list[Op]:
    """solve --algo line-weighted --k 1 on line-weighted wmax=2 n=5 grid
    seeds 1..60."""
    ops = []
    for i in range(1, 61):
        s = SEED_STRIDE * seed + i
        instance = generate.generate_instance("line-weighted", 5, s, wmax=2)
        doc = _doc(instance)
        ops.append(Op(f"solve line-weighted n=5 seed={s}",
                      lambda doc=doc: solve_op(doc, "line-weighted", 1),
                      check_solves(instance)))
    return ops


def line_uniform(seed: int) -> list[Op]:
    """solve --algo line-uniform --k 2 and --k 4 on line-uniform n=800
    grid seeds 1..2."""
    ops = []
    for i in range(1, 3):
        s = SEED_STRIDE * seed + i
        instance = generate.generate_instance("line-uniform", 800, s)
        doc = _doc(instance)
        for k in (2, 4):
            ops.append(Op(f"solve line-uniform n=800 k={k} seed={s}",
                          lambda doc=doc, k=k: solve_op(doc, "line-uniform", k),
                          check_solves(instance, exact_optimum=True)))
    return ops


def _disjoint_runs(order: list[int], key, parts: int) -> list[list[int]]:
    """Cut `order` into `parts` runs of about equal length, never between
    two sites with the same key, so each position has exactly one robot."""
    runs, start = [], 0
    for g in range(1, parts):
        cut = max(start + 1, len(order) * g // parts)
        while cut < len(order) and key(order[cut]) == key(order[cut - 1]):
            cut += 1
        runs.append(order[start:cut])
        start = cut
    runs.append(order[start:])
    return [r for r in runs if r]


def _euclid_loops(s: int):
    """euclidean n=160, four robots each looping its own 40 or so sites in
    position order; a position is visited once per period."""
    instance = generate.generate_instance("euclidean", 160, s)
    points = instance.metric.points
    order = sorted(instance.sites, key=lambda site: (points[site], site))
    groups = _disjoint_runs(order, points.__getitem__, 4)
    tracks = [sched_mod.loop_track(g, instance.metric) for g in groups]
    # one robot visits each position once per period: latency = its period
    return (f"euclidean n=160 4 loops seed={s}", instance, tracks,
            lambda: {site: track.period for g, track in zip(groups, tracks) for site in g})


def _line_chunks(s: int):
    """line n=240, four robots each looping a sorted chunk of 60 or so
    sites: the way back passes through every site of the chunk."""
    instance = generate.generate_instance("line-weighted", 240, s)
    coords = instance.metric.coords
    chunks = _disjoint_runs(instance.sorted_line_order(), coords.__getitem__, 4)
    tracks = [sched_mod.loop_track(c, instance.metric) for c in chunks]
    sweeps = [(coords[c[0]], coords[c[-1]], 1) for c in chunks]
    return (f"line n=240 4 chunk loops seed={s}", instance, tracks,
            lambda: {site: line_sweep_latency(coords[site], sweeps) for site in instance.sites})


def _line_joint(s: int):
    """line n=80, three robots sweeping every site with periods 2:3:5, so
    each site is served jointly over a common period."""
    instance = generate.generate_instance("line-weighted", 80, s)
    coords = instance.metric.coords
    base = sched_mod.loop_track(instance.sorted_line_order(), instance.metric)
    tracks = [
        sched_mod.RobotTrack(base.period * f, tuple((t * f, p) for t, p in base.waypoints))
        for f in (2, 3, 5)
    ]
    sweeps = [(min(coords), max(coords), f) for f in (2, 3, 5)]
    return (f"line n=80 3 robots 2:3:5 seed={s}", instance, tracks,
            lambda: {site: line_sweep_latency(coords[site], sweeps) for site in instance.sites})


def evaluate_schedules(seed: int) -> list[Op]:
    """evaluate of schedules built from loop_track / RobotTrack, six grid
    seeds (1..18) of each shape."""
    ops = []
    for i, build in enumerate((_euclid_loops, _line_chunks, _line_joint) * 6, start=1):
        label, instance, tracks, expected = build(SEED_STRIDE * seed + i)
        inst_doc = _doc(instance)
        sched_doc = sched_mod.dump_schedule(sched_mod.Schedule(tuple(tracks))).encode()
        ops.append(Op(f"evaluate {label}",
                      lambda i=inst_doc, d=sched_doc: evaluate_op(i, d),
                      check_latencies(instance, expected)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("metric-euclid", metric_euclid, True, ("metric_core.tree_cover",)),
        Workload("line-dp", line_dp, True, ("time_window.construct_schedule",)),
        Workload("evaluate", evaluate_schedules, False,
                 ("evaluate.validate_speed", "evaluate.max_weighted_latency")),
        Workload("line-uniform", line_uniform, True, ("line_uniform.min_interval_cover",)),
    )
}
