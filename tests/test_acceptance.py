"""Acceptance suite: one test per criterion, each printing a PASS line
with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from itertools import combinations
from math import ceil

from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import line_instance, round_weights_dyadic
from patrol.line_uniform import solve_line_single_weighted, solve_line_uniform, single_zigzag_value
from patrol.metric_core import mst, tree_cover
from patrol.metric_scheduler import k_robot_assignment, solve_metric_detailed
from patrol.oracles import exact_interval_cover, exact_tree_cover
from patrol.time_window import (
    candidate_window_lengths,
    construct_schedule,
    cyclify,
    solve_line_weighted,
    validate_standard,
)
from conftest import random_euclidean_instance, random_line_coords, random_line_instance
from scenarios import (
    alternate_pairing_schedule,
    cooperative_hand_schedule,
    cooperative_line_instance,
    disjoint_zigzag_schedule,
    square_two_robot_loop,
    unit_square_instance,
)

TOL = Fraction(1, 10**9)
BETA = 4


class stopwatch:
    def __init__(self, label, budget):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {verdict} ({elapsed:.2f}s, budget {self.budget}s)")
        assert elapsed < self.budget, f"{self.label} exceeded its runtime budget"
        return False


def test_criterion_1_four_site_regression():
    with stopwatch("1 four-site weighted-line regression", 1.0):
        inst = cooperative_line_instance()  # weights {1,4,4,1}, x=3
        hand = max_weighted_latency(cooperative_hand_schedule(), inst).max_weighted
        assert abs(hand - 10) <= TOL
        disjoint = max_weighted_latency(disjoint_zigzag_schedule(), inst).max_weighted
        assert abs(disjoint - 24) <= TOL  # 8x
        alt = max_weighted_latency(alternate_pairing_schedule(), inst).max_weighted
        assert abs(alt - 12) <= TOL  # max(4x, 2x+2)


def test_criterion_2_square_two_robots():
    with stopwatch("2 unit-square two-robot loop", 1.0):
        inst = unit_square_instance()
        sched = square_two_robot_loop()
        assert validate_speed(sched, inst.metric) == []
        report = max_weighted_latency(sched, inst)
        assert all(abs(s.latency - 2) <= TOL for s in report.per_site)
        assert abs(report.max_weighted - 2) <= TOL


def test_criterion_3_line_uniform_exactness():
    with stopwatch("3 1D uniform exactness, 200 seeds", 30.0):
        rng = random.Random(300)
        for _ in range(200):
            n = rng.randint(1, 12)
            k = rng.randint(1, 4)
            coords = random_line_coords(rng, n)
            w = rng.choice([1, 2, Fraction(1, 2)])
            inst = line_instance(coords, [w] * n)
            report = solve_line_uniform(inst, k)
            assert report.measured_latency == 2 * w * exact_interval_cover(coords, k)
        for _ in range(40):  # oracle vs exhaustive enumeration, n <= 10
            pts = random_line_coords(rng, rng.randint(1, 10))
            k = rng.randint(1, 4)
            best = None
            if k >= len(pts):
                best = Fraction(0)
            else:
                for cuts in combinations(range(1, len(pts)), k - 1):
                    bounds = [0, *cuts, len(pts)]
                    worst = max(pts[b - 1] - pts[a] for a, b in zip(bounds, bounds[1:]))
                    best = worst if best is None or worst < best else best
            assert exact_interval_cover(pts, k) == best


def test_criterion_4_tree_cover_ratio():
    with stopwatch("4 tree-cover ratio vs exact, 100 seeds", 60.0):
        rng = random.Random(400)
        for trial in range(100):
            n = rng.randint(1, 10)
            t = rng.randint(1, 3)
            inst = (
                random_euclidean_instance(rng, n)
                if trial % 2
                else random_line_instance(rng, n)
            )
            sites = list(inst.sites)
            cover = tree_cover(sites, inst.metric, t)
            assert cover.max_length <= 4 * exact_tree_cover(sites, inst.metric, t) + TOL
            if t == 1:
                assert cover.trees == (mst(sites, inst.metric),)


def test_criterion_5_metric_pipeline_guarantee():
    with stopwatch("5 metric pipeline bounds, 100 seeds", 120.0):
        rng = random.Random(500)
        for _ in range(100):
            n = rng.randint(1, 12)
            k = rng.randint(1, 3)
            inst = random_euclidean_instance(rng, n, wchoices=(1, 2, 3, 4))  # m <= 2
            report, details = solve_metric_detailed(inst, k)
            assert validate_speed(report.schedule, inst.metric) == []
            latencies = report.latency  # evaluator raises if any site unvisited
            if details.assignment is None:  # enough robots to park everywhere
                assert report.measured_latency == 0
                continue
            classes, _ = round_weights_dyadic(inst)
            L = report.L_accepted
            for plan in details.assignment.robots:
                h = len(plan.trees)
                delta = 2 * k * L / plan.depot_weight
                for tree in plan.trees:
                    pieces = max(ceil(2 * tree.total_length / delta), 1)
                    bound = h * pieces * 2 * delta
                    for v in tree.vertices:
                        assert latencies.latency_of(v) <= bound
            assert report.lower_bound > 0
            ratio = report.measured_latency / report.lower_bound
            assert ratio <= 8 * BETA * k**2 * (classes.m + 1)


def test_criterion_6_assignment_invariant_checks():
    with stopwatch("6 assignment invariants and doubling trail", 60.0):
        rng = random.Random(600)
        for _ in range(40):
            n = rng.randint(2, 10)
            k = rng.randint(1, 3)
            inst = random_euclidean_instance(rng, n, wchoices=(1, 2, 4))
            if inst.n <= k:
                continue
            report, details = solve_metric_detailed(inst, k)
            classes, _ = round_weights_dyadic(inst)
            assignment = details.assignment
            if assignment is None:  # coincident sites, robots parked
                continue
            L = assignment.L
            # ball constraint: peeled trees inside the depot ball, exactly
            for plan in assignment.robots:
                radius = k * 2**plan.depot_class * L
                for tree in plan.trees[1:]:
                    for v in tree.vertices:
                        assert inst.metric.distance(v, plan.depot_vertex) <= radius
            # depot separation: strictly more than k*L/w for the heavier depot
            for i, a in enumerate(assignment.robots):
                for b in assignment.robots[i + 1 :]:
                    j_heavy = min(a.depot_class, b.depot_class)
                    assert inst.metric.distance(
                        a.depot_vertex, b.depot_vertex
                    ) > k * 2**j_heavy * L
            # every infeasible budget is re-confirmed infeasible at half
            for probed, feasible in details.trail:
                if not feasible:
                    assert k_robot_assignment(classes, inst.metric, k, probed / 2) is None
            # feasibility is monotone along the doubling sequence and beyond
            answers = [ok for _, ok in details.trail]
            first_yes = answers.index(True)
            assert all(answers[first_yes:])
            for factor in (2, 4):
                assert k_robot_assignment(classes, inst.metric, k, factor * L) is not None


def test_criterion_7_time_window_dp():
    with stopwatch("7 time-window scheduling checks", 300.0):
        rng = random.Random(700)
        done = 0
        while done < 50:  # (a) yes-monotonicity along the full candidate list
            n = rng.randint(1, 3)
            coords = sorted(Fraction(rng.randint(0, 30), 2) for _ in range(n))
            weights = [rng.choice([1, 2]) for _ in range(n)]  # m <= 1
            k = rng.randint(1, 2)
            inst = line_instance(coords, weights)
            cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
            answers = [construct_schedule(inst, k, L) is not None for L in cands]
            if True in answers:
                first = answers.index(True)
                assert all(answers[first:])
            done += 1

        D = Fraction(7)  # (b) two-site uniform threshold at L = 3D
        two = line_instance([0, D], [1, 1])
        cands = [c for c in candidate_window_lengths(two, 1) if c > 0]
        yes = [L for L in cands if construct_schedule(two, 1, L) is not None]
        assert min(yes) == 3 * D

        for _ in range(10):  # (c) cyclified visit gaps within twice the window
            n = rng.randint(2, 3)
            coords = sorted(rng.randint(0, 12) for _ in range(n))
            weights = [rng.choice([1, 2, 4]) for _ in range(n)]
            inst = line_instance(coords, weights)
            k = rng.randint(1, 2)
            std = None
            for L in [c for c in candidate_window_lengths(inst, k) if c > 0]:
                std = construct_schedule(inst, k, L)
                if std is not None:
                    break
            assert std is not None and validate_standard(std, inst)
            sched = cyclify(std)
            _, rounded = round_weights_dyadic(inst)
            lat = max_weighted_latency(sched, inst)
            for s in inst.sites:
                assert lat.latency_of(s) <= 2 * std.window / rounded[s]

        # (d) full solve on the four-site instance: within 12x of optimum 10
        report = solve_line_weighted(cooperative_line_instance(), 2)
        assert 10 - TOL <= report.measured_latency <= 120 + TOL


def test_criterion_8_single_robot_zigzag_formula():
    with stopwatch("8 full-span zigzag closed form, 100 seeds", 10.0):
        rng = random.Random(800)
        for _ in range(100):
            inst = random_line_instance(rng, rng.randint(1, 10), uniform=False, wmax=8)
            report = solve_line_single_weighted(inst)
            assert abs(report.measured_latency - single_zigzag_value(inst)) <= TOL
