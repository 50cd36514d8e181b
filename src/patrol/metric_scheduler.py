"""Approximate k-robot scheduling in a general metric.

Pipeline: round the weights to powers of 1/2, guess a latency budget L,
build per-class tree covers, assign trees to robots around depot
vertices, and let each robot cycle round-robin over its trees in path
pieces.  If any stage fails the budget is doubled, and a failure at L
certifies that no schedule beats L, so the first accepted budget is
within a constant factor of optimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import ResourceLimitError
from .instance import Instance, Metric, WeightClasses, round_weights_dyadic
from .metric_core import TREE_COVER_BETA, Tree, mst, partition_tour, tree_cover, tree_to_tour
from .oracles import OracleBudget, exact_tree_cover
from .report import SolveReport, build_report
from .schedule import (
    RoundRobinTrack,
    Schedule,
    SitePos,
    Track,
    expand_round_robin,
    loop_track,
    stationary_track,
)

ROUND_CAP = 10**6  # rounds per robot beyond which tracks stay symbolic


@dataclass(frozen=True)
class RobotPlan:
    """Trees assigned to one robot; the depot tree comes first."""

    trees: tuple[Tree, ...]
    depot_vertex: int
    depot_class: int  # depot weight is 2 ** -depot_class (scaled, rounded)

    @property
    def depot_weight(self) -> Fraction:
        return Fraction(1, 2**self.depot_class)

    def sites(self) -> list[int]:
        out: list[int] = []
        for t in self.trees:
            out.extend(t.vertices)
        return sorted(out)


@dataclass(frozen=True)
class RobotAssignment:
    robots: tuple[RobotPlan, ...]
    k: int
    L: Fraction


@dataclass(frozen=True)
class MetricSolveDetails:
    """Inputs for invariant checks: the accepted assignment and the
    (L, accepted) trail of the doubling search."""

    assignment: Optional[RobotAssignment]
    trail: tuple[tuple[Fraction, bool], ...]
    classes: Optional[WeightClasses]


def k_robot_assignment(
    classes: WeightClasses, metric: Metric, k: int, L: Fraction
) -> Optional[RobotAssignment]:
    """Assign every site to a tree and every tree to a robot, or report
    that the budget L is too small (None).

    Per weight class j, the smallest t <= k whose t-tree cover has max
    length strictly below beta * 2^j * L is kept; classes are then walked
    in increasing j, each cover tree peeled into balls of radius
    k * 2^j' * L around existing depots, the remainder seeding a new
    depot on a free robot.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if L <= 0:
        raise ValueError("L must be positive")
    kept: list[tuple[int, tuple[Tree, ...]]] = []
    for j, members in classes.classes:
        threshold = TREE_COVER_BETA * 2**j * L
        chosen = None
        for t in range(1, k + 1):
            cover = tree_cover(members, metric, t)
            if cover.max_length < threshold:
                chosen = cover.trees
                break
        if chosen is None:
            return None
        kept.append((j, chosen))

    plans: list[dict] = []  # creation order; each: trees, depot, class
    free = k
    for j, trees in kept:
        for tree in trees:
            remaining = set(tree.vertices)
            for plan in plans:
                if not remaining:
                    break
                radius = k * 2 ** plan["class"] * L
                near = sorted(
                    v for v in remaining if metric.distance(v, plan["depot"]) <= radius
                )
                if near:
                    plan["trees"].append(mst(near, metric))
                    remaining -= set(near)
            if remaining:
                if free == 0:
                    return None
                free -= 1
                rest = sorted(remaining)
                plans.append({"trees": [mst(rest, metric)], "depot": rest[0], "class": j})
    return RobotAssignment(
        tuple(
            RobotPlan(tuple(p["trees"]), p["depot"], p["class"]) for p in plans
        ),
        k=k,
        L=L,
    )


def single_robot_schedule(
    plan: RobotPlan, metric: Metric, L: Fraction, k: int
) -> Track:
    """Round-robin track over the robot's trees.

    Each tree becomes an open tour (length <= 2|T|) split into paths of
    length <= delta = 2kL/w0; the robot traverses one path per tree per
    turn, moving directly between path endpoints.  The track repeats once
    every tree's path index wraps; if that takes more than ROUND_CAP
    rounds the symbolic form is returned instead.
    """
    delta = 2 * k * L / plan.depot_weight
    paths_per_tree = []
    for tree in plan.trees:
        tour = tree_to_tour(tree, min(tree.vertices), metric)
        pieces = partition_tour(tour, delta, metric)
        paths_per_tree.append(tuple(p.vertices for p in pieces))
    rounds = len(paths_per_tree) * lcm(*[len(p) for p in paths_per_tree])
    if rounds > ROUND_CAP:
        return RoundRobinTrack(tuple(paths_per_tree))
    return expand_round_robin(paths_per_tree, metric)


def _closest_positive_distance(instance: Instance) -> Optional[Fraction]:
    best: Optional[Fraction] = None
    for i in instance.sites:
        for j in range(i + 1, instance.n):
            d = instance.metric.distance(i, j)
            if d > 0 and (best is None or d < best):
                best = d
    return best


def _position_groups(instance: Instance) -> list[int]:
    """One representative site per group of coincident (distance-0) sites."""
    reps: list[int] = []
    for s in instance.sites:
        if not any(instance.metric.distance(s, r) == 0 for r in reps):
            reps.append(s)
    return reps


def solve_metric(
    instance: Instance, k: int, refine: bool = False
) -> SolveReport:
    report, _ = solve_metric_detailed(instance, k, refine=refine)
    return report


def solve_metric_detailed(
    instance: Instance, k: int, refine: bool = False
) -> tuple[SolveReport, MetricSolveDetails]:
    """Doubling search over L: start at the closest-pair distance and
    double until the assignment succeeds.  With refine=True the final
    doubling interval is bisected down to a factor-1.1 bracket, and the
    smallest accepted budget's schedule replaces the doubling answer
    only when its measured latency is no worse."""
    if k < 1:
        raise ValueError("k must be positive")
    groups = _position_groups(instance)
    if len(groups) <= k:
        # enough robots to park one at every distinct position
        tracks = tuple(stationary_track(SitePos(s)) for s in groups)
        report = build_report(
            Schedule(tracks),
            instance,
            algo="metric",
            k=k,
            L_accepted=Fraction(0),
            lower_bound=Fraction(0),
        )
        return report, MetricSolveDetails(None, (), None)

    classes, _rounded = round_weights_dyadic(instance)
    start = _closest_positive_distance(instance)
    assert start is not None  # more distinct positions than robots

    trail: list[tuple[Fraction, bool]] = []
    L = start
    assignment = None
    for _ in range(200):
        assignment = k_robot_assignment(classes, instance.metric, k, L)
        trail.append((L, assignment is not None))
        if assignment is not None:
            break
        L = 2 * L
    if assignment is None:
        raise ResourceLimitError("doubling search found no feasible budget in 200 doublings")

    lower_bound = lower_bound_metric(instance, k)

    def report_at(budget: Fraction, chosen: RobotAssignment) -> SolveReport:
        tracks = tuple(
            single_robot_schedule(plan, instance.metric, budget, k) for plan in chosen.robots
        )
        return build_report(
            Schedule(tracks), instance, algo="metric", k=k, L_accepted=budget,
            lower_bound=lower_bound,
        )

    report = report_at(L, assignment)
    if refine and len(trail) > 1:
        lo, hi, refined = L / 2, L, None
        while hi / lo > Fraction(11, 10):
            mid = (lo + hi) / 2
            cand = k_robot_assignment(classes, instance.metric, k, mid)
            trail.append((mid, cand is not None))
            if cand is None:
                lo = mid
            else:
                hi, refined = mid, cand
        if refined is not None:
            tighter = report_at(hi, refined)
            if tighter.measured_latency <= report.measured_latency:
                report, assignment = tighter, refined
    return report, MetricSolveDetails(assignment, tuple(trail), classes)


def lower_bound_metric(
    instance: Instance, k: int, budget: Optional[OracleBudget] = None
) -> Fraction:
    """Certified lower bound from min-max tree covers.

    Within any time window equal to the largest visit gap of a class, a
    schedule's robots trace k trees covering that class, so the class's
    k-tree-cover value bounds the gap from below; scaling by the class
    weight bounds the weighted latency.  The same argument over all
    sites at the smallest weight handles instances whose classes are
    individually coverable for free.  Small site sets use the exact
    cover, larger ones the approximate cover divided by its factor.
    """
    budget = budget or OracleBudget()
    if instance.n <= k:
        return Fraction(0)

    def cover_value(sites: Sequence[int]) -> Fraction:
        if len(sites) <= 10 and k <= budget.max_k:
            return exact_tree_cover(sites, instance.metric, k, budget)
        return tree_cover(sites, instance.metric, k).max_length / TREE_COVER_BETA

    classes, _ = round_weights_dyadic(instance)
    bounds = [
        classes.scale * Fraction(1, 2**j) * cover_value(members)
        for j, members in classes.classes
    ]
    bounds.append(min(instance.weights) * cover_value(list(instance.sites)))
    return max(bounds)


def baseline_cover_schedule(instance: Instance, k: int) -> SolveReport:
    """Cover-based baseline: k-tree cover, one closed tour per tree, one
    robot looping each tour.  Every covered site's latency is at most its
    tour length, which is at most twice its tree's length."""
    if k < 1:
        raise ValueError("k must be positive")
    cover = tree_cover(list(instance.sites), instance.metric, k)
    tracks = []
    for tree in cover.trees:
        tour = tree_to_tour(tree, min(tree.vertices), instance.metric)
        if len(tour.vertices) == 1:
            tracks.append(stationary_track(SitePos(tour.vertices[0])))
        else:
            tracks.append(loop_track(tour.vertices, instance.metric))
    return build_report(
        Schedule(tuple(tracks)),
        instance,
        algo="baseline",
        k=k,
        L_accepted=cover.max_length,
        lower_bound=lower_bound_metric(instance, k),
    )
