"""Metamorphic relations: symmetries of the problem that the outputs must
follow, checked without an oracle.

Relabelling the sites of an instance and of a schedule together is such
a symmetry for the evaluator: the speed violations stay the same, and
the per-site rows are the same rows, relabelled.  A schedule relabels
its SitePos ids, its EdgePos ends (swapped, with 1 - frac, where the
new ids come in the other order, since an EdgePos keeps a < b) and its
round-robin paths.  The schedules come from every solver that writes
them (metric, baseline, line-weighted, line-single) and by hand (edge
positions on the line and in a matrix, co-located Euclidean sites, a
round-robin track, jointly served sites), on line, matrix, Euclidean
and clustered instances.

The solvers themselves are not relabelling-invariant: the metric
solver's tree roots, tour starts and depots follow site ids, so its
accepted window and measured latency move under a relabelling.
"""

import random
from fractions import Fraction

import pytest

from conftest import random_matrix_instance
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.generate import generate_instance
from patrol.instance import euclidean_instance, line_instance, matrix_instance
from patrol.line_uniform import solve_line_single_weighted
from patrol.metric_scheduler import baseline_cover_schedule, solve_metric
from patrol.schedule import EdgePos, RobotTrack, RoundRobinTrack, Schedule, SitePos
from patrol.time_window import solve_line_weighted
from scenarios import euclidean, jointly_served, line_edges, matrix, round_robin


def relabel_instance(inst, perm):
    """The instance whose site perm[s] is inst's site s."""
    old = sorted(range(inst.n), key=perm.__getitem__)  # old[perm[s]] == s
    weights = [inst.weights[s] for s in old]
    metric = inst.metric
    if metric.variant == "line":
        return line_instance([metric.coords[s] for s in old], weights)
    if metric.variant == "matrix":
        return matrix_instance([[metric.matrix[s][t] for t in old] for s in old], weights)
    return euclidean_instance([metric.points[s] for s in old], weights)


def relabel_position(pos, perm):
    if isinstance(pos, SitePos):
        return SitePos(perm[pos.site])
    if isinstance(pos, EdgePos):
        a, b = perm[pos.a], perm[pos.b]
        return EdgePos(a, b, pos.frac) if a < b else EdgePos(b, a, 1 - pos.frac)
    return pos


def relabel_schedule(schedule, perm):
    tracks = []
    for track in schedule.robots:
        if isinstance(track, RoundRobinTrack):
            tracks.append(RoundRobinTrack(tuple(tuple(tuple(perm[v] for v in path)
                                                      for path in paths)
                                                for paths in track.trees)))
        else:
            tracks.append(RobotTrack(track.period, tuple(
                (t, relabel_position(pos, perm)) for t, pos in track.waypoints)))
    return Schedule(tuple(tracks))


def solver_cases():
    """(label, instance, schedule) from every solver that writes a schedule."""
    instances = [(f"euclidean n={n} seed={seed}", generate_instance("euclidean", n, seed))
                 for n in (6, 9) for seed in (1, 2, 3)]
    instances += [(f"clustered n={n}", generate_instance("clustered", n, 0)) for n in (8, 12)]
    lines = [(f"line n={n} seed={seed}", generate_instance("line-weighted", n, seed, wmax=4))
             for n in (4, 5) for seed in (1, 2)]
    instances += lines
    instances += [(f"matrix n=6 seed={seed}", random_matrix_instance(random.Random(seed), 6))
                  for seed in (1, 2)]
    for label, inst in instances:
        for k in (1, 2):
            yield f"{label} metric k={k}", inst, solve_metric(inst, k).schedule
            yield f"{label} baseline k={k}", inst, baseline_cover_schedule(inst, k).schedule
    for label, inst in lines:
        yield f"{label} line-single", inst, solve_line_single_weighted(inst).schedule
        for k in (1, 2):
            yield f"{label} line-weighted k={k}", inst, solve_line_weighted(inst, k).schedule


def edge_cases():
    """Hand-built schedules with EdgePos waypoints on the line and in a
    matrix, plus co-located, round-robin and jointly served ones."""
    yield "line edges", *line_edges()
    yield "matrix edges", *matrix()
    inst = matrix_instance([[0, 4, 6, 9], [4, 0, 2, 5], [6, 2, 0, 3], [9, 5, 3, 0]],
                           [2, 1, 3, Fraction(1, 2)])
    out, back = EdgePos(0, 3, Fraction(1, 3)), EdgePos(1, 2, Fraction(3, 4))
    yield "matrix edges, two robots", inst, Schedule((
        RobotTrack(Fraction(18), ((Fraction(0), SitePos(0)), (Fraction(3), out),
                                  (Fraction(9), SitePos(3)), (Fraction(12), SitePos(2)),
                                  (Fraction(18), SitePos(0)))),
        RobotTrack(Fraction(10), ((Fraction(0), SitePos(1)), (Fraction(3, 2), back),
                                  (Fraction(2), SitePos(2)), (Fraction(4), back))),
    ))
    yield "co-located euclidean", *euclidean()
    yield "round-robin", *round_robin()
    yield "jointly served", *jointly_served()


CASES = list(edge_cases()) + list(solver_cases())


def permutations(n):
    """A seeded shuffle and the reversal, which flips every EdgePos."""
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return [shuffled, list(range(n))[::-1]]


@pytest.mark.parametrize("label, inst, schedule", CASES, ids=[c[0] for c in CASES])
def test_relabelling_relabels_the_evaluators_rows(label, inst, schedule):
    want = max_weighted_latency(schedule, inst)
    violations = validate_speed(schedule, inst.metric)
    for perm in permutations(inst.n):
        relabelled_inst = relabel_instance(inst, perm)
        relabelled = relabel_schedule(schedule, perm)
        assert validate_speed(relabelled, relabelled_inst.metric) == violations
        got = max_weighted_latency(relabelled, relabelled_inst)
        assert [got.per_site[perm[s]] for s in range(inst.n)] == [
            row._replace(site=perm[row.site]) for row in want.per_site]
        assert got.max_weighted == want.max_weighted


def test_cases_cover_every_variant_and_edge_flips():
    variants = {inst.metric.variant for _, inst, _ in CASES}
    assert variants == {"line", "matrix", "euclidean"}
    assert len(CASES) >= 60
    flips = sum(isinstance(pos, EdgePos) and perm[pos.a] > perm[pos.b]
                for _, inst, schedule in CASES for perm in permutations(inst.n)
                for track in schedule.robots if isinstance(track, RobotTrack)
                for _, pos in track.waypoints)
    assert flips >= 4
