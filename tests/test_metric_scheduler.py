import random
from fractions import Fraction
from math import ceil

from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.fixtures import clustered_instance, ngon_instance
from patrol.generate import generate_instance
from patrol.instance import (
    Instance,
    line_instance,
    matrix_instance,
    round_weights_dyadic,
)
from patrol.metric_core import mst
from patrol.metric_scheduler import (
    RobotAssignment,
    baseline_cover_schedule,
    k_robot_assignment,
    lower_bound_metric,
    single_robot_schedule,
    solve_metric,
    solve_metric_detailed,
)
from patrol.rationals import format_fraction
from patrol.schedule import Schedule, dump_schedule
from conftest import random_euclidean_instance, random_matrix_instance

BETA = 4


def classes_of(inst: Instance):
    classes, _ = round_weights_dyadic(inst)
    return classes


def class_of(classes, site: int) -> int:
    for j, members in classes.classes:
        if site in members:
            return j
    raise KeyError(site)


def check_assignment_invariants(assignment: RobotAssignment, inst: Instance):
    """Partition, ball, tree-count and depot-separation conditions."""
    classes = classes_of(inst)
    metric = inst.metric
    k, L = assignment.k, assignment.L
    seen = []
    for plan in assignment.robots:
        assert len(plan.trees) <= k * (classes.m + 1)
        depot = plan.depot_vertex
        assert depot in plan.trees[0].vertices
        radius = k * 2**plan.depot_class * L
        for idx, tree in enumerate(plan.trees):
            seen.extend(tree.vertices)
            if idx > 0:  # peeled trees live inside the depot ball
                for v in tree.vertices:
                    assert metric.distance(v, depot) <= radius
        for tree in plan.trees:  # depot weight is maximal for the robot
            for v in tree.vertices:
                assert class_of(classes, v) >= plan.depot_class
    assert sorted(seen) == list(inst.sites)
    for i, a in enumerate(assignment.robots):
        for b in assignment.robots[i + 1 :]:
            j_heavy = min(a.depot_class, b.depot_class)
            separation = k * 2**j_heavy * L
            assert metric.distance(a.depot_vertex, b.depot_vertex) > separation


def test_assignment_two_far_clusters():
    inst = line_instance([0, "0.1", 10, "10.1"], [1, 1, 1, 1])
    assignment = k_robot_assignment(classes_of(inst), inst.metric, 2, Fraction(2, 5))
    assert assignment is not None
    assert len(assignment.robots) == 2
    assert [plan.depot_vertex for plan in assignment.robots] == [0, 2]
    assert all(len(plan.trees) == 1 for plan in assignment.robots)
    check_assignment_invariants(assignment, inst)


def test_assignment_single_site():
    inst = line_instance([5], [1])
    assignment = k_robot_assignment(classes_of(inst), inst.metric, 1, Fraction(1))
    assert assignment is not None
    assert len(assignment.robots) == 1
    assert assignment.robots[0].trees[0].vertices == (0,)


def test_assignment_too_many_far_sites_infeasible():
    n, k = 3, 2
    m = [[0 if i == j else 100 for j in range(n)] for i in range(n)]
    inst = matrix_instance(m, [1] * n)
    got = k_robot_assignment(classes_of(inst), inst.metric, k, Fraction(1, 10))
    assert got is None


def test_assignment_invariants_random():
    rng = random.Random(55)
    checked = 0
    for _ in range(60):
        build = random_euclidean_instance if rng.random() < 0.7 else random_matrix_instance
        inst = build(rng, rng.randint(2, 10))
        k = rng.randint(1, 3)
        L = Fraction(rng.randint(1, 60), 4)
        got = k_robot_assignment(classes_of(inst), inst.metric, k, L)
        if got is not None:
            check_assignment_invariants(got, inst)
            checked += 1
    assert checked > 10


def test_feasibility_monotone_under_doubling():
    rng = random.Random(59)
    for _ in range(25):
        inst = random_euclidean_instance(rng, rng.randint(2, 9))
        k = rng.randint(1, 3)
        classes = classes_of(inst)
        L = Fraction(rng.randint(1, 20), 16)
        results = []
        for _ in range(10):
            results.append(k_robot_assignment(classes, inst.metric, k, L) is not None)
            L *= 2
        first_yes = results.index(True) if True in results else len(results)
        assert all(results[first_yes:])  # once feasible, stays feasible


def test_single_robot_schedule_one_site():
    inst = line_instance([4], [1])
    assignment = k_robot_assignment(classes_of(inst), inst.metric, 1, Fraction(1))
    track = single_robot_schedule(assignment.robots[0], inst.metric, Fraction(1), 1)
    sched = Schedule((track,))
    assert validate_speed(sched, inst.metric) == []
    assert max_weighted_latency(sched, inst).max_weighted == 0


def test_single_robot_schedule_path_loop():
    inst = line_instance([0, 1, 2], [1, 1, 1])
    assignment = k_robot_assignment(classes_of(inst), inst.metric, 1, Fraction(10))
    track = single_robot_schedule(assignment.robots[0], inst.metric, Fraction(10), 1)
    rep = max_weighted_latency(Schedule((track,)), inst)
    tour_len = 2  # 0 -> 1 -> 2
    return_len = 2
    assert rep.max_weighted <= tour_len + return_len


def per_site_round_robin_bound(report, details, inst):
    """gap(site) <= h * ceil(2|T_i|/delta) * 2*delta for the site's tree."""
    k = report.k
    L = report.L_accepted
    lat = report.latency
    for plan in details.assignment.robots:
        h = len(plan.trees)
        delta = 2 * k * L / plan.depot_weight
        for tree in plan.trees:
            pieces = ceil(2 * tree.total_length / delta) if tree.total_length > 0 else 1
            bound = h * max(pieces, 1) * 2 * delta
            for v in tree.vertices:
                assert lat.latency_of(v) <= bound


def test_solve_metric_stationary_when_enough_robots():
    inst = line_instance([0, 5, 9], [1, 2, 3])
    rep = solve_metric(inst, 3)
    assert rep.measured_latency == 0
    assert all(s.latency == 0 for s in rep.latency.per_site)


def test_solve_metric_two_clusters():
    inst = clustered_instance(4, gap=10)
    rep, details = solve_metric_detailed(inst, 2)
    assert len(rep.schedule.robots) == 2
    cluster_mst = max(
        mst(list(tr.vertices), inst.metric).total_length
        for plan in details.assignment.robots
        for tr in plan.trees
    )
    assert rep.measured_latency <= 4 * cluster_mst
    check_assignment_invariants(details.assignment, inst)


def test_solve_metric_properties_random():
    rng = random.Random(61)
    for _ in range(30):
        inst = random_euclidean_instance(rng, rng.randint(2, 10))
        k = rng.randint(1, 3)
        rep, details = solve_metric_detailed(inst, k)
        assert validate_speed(rep.schedule, inst.metric) == []
        if inst.n <= k:
            assert rep.measured_latency == 0
            continue
        per_site_round_robin_bound(rep, details, inst)
        classes = classes_of(inst)
        limit = 8 * BETA * k**2 * (classes.m + 1)
        assert rep.lower_bound > 0
        assert rep.measured_latency / rep.lower_bound <= limit


def test_solve_metric_ratio_example_family():
    # n=8, k=2, two weight classes: the sharper 4*beta*k^2*(m+1) bound
    rng = random.Random(77)
    limit = 4 * BETA * 2**2 * 2
    for _ in range(100):
        inst = random_euclidean_instance(rng, 8, wchoices=(1, 2))
        rep = solve_metric(inst, 2)
        assert rep.measured_latency / rep.lower_bound <= limit


def test_solve_metric_refine_never_worse():
    rng = random.Random(67)
    for _ in range(8):
        inst = random_euclidean_instance(rng, rng.randint(3, 8))
        plain = solve_metric(inst, 2)
        refined = solve_metric(inst, 2, refine=True)
        assert refined.L_accepted <= plain.L_accepted


def test_refine_never_measures_worse():
    """A tighter accepted budget can still measure worse (euclidean seed 1,
    n=20, unit weights, k=2: 48.16 -> 78.78 when taken unconditionally);
    the refined schedule is then dropped for the doubling one."""
    inst = generate_instance("euclidean", 20, 1, wmax=1)
    plain = solve_metric(inst, 2)
    refined, details = solve_metric_detailed(inst, 2, refine=True)
    assert refined.measured_latency == plain.measured_latency
    assert refined.L_accepted == plain.L_accepted
    assert dump_schedule(refined.schedule) == dump_schedule(plain.schedule)
    assert len(details.trail) > len(solve_metric_detailed(inst, 2)[1].trail)
    rng = random.Random(67)
    for _ in range(8):
        inst = random_euclidean_instance(rng, rng.randint(3, 8))
        assert solve_metric(inst, 2, refine=True).measured_latency <= solve_metric(
            inst, 2
        ).measured_latency


def test_doubling_trail_reconfirms_infeasible_at_half():
    rng = random.Random(71)
    for _ in range(10):
        inst = random_euclidean_instance(rng, rng.randint(3, 9))
        k = rng.randint(1, 2)
        rep, details = solve_metric_detailed(inst, k)
        if details.assignment is None:
            continue
        classes = classes_of(inst)
        for L, feasible in details.trail:
            if not feasible:
                again = k_robot_assignment(classes, inst.metric, k, L / 2)
                assert again is None


def test_lower_bound_examples():
    assert lower_bound_metric(line_instance([3], [1]), 1) == 0
    two = line_instance([0, 7], [1, 1])
    assert lower_bound_metric(two, 1) == 7
    n, k = 4, 3
    m = [[0 if i == j else 5 for j in range(n)] for i in range(n)]
    far = matrix_instance(m, [1] * n)
    assert lower_bound_metric(far, k) >= 5


def test_lower_bound_never_exceeds_measured():
    rng = random.Random(73)
    for _ in range(20):
        inst = random_euclidean_instance(rng, rng.randint(2, 9))
        k = rng.randint(1, 3)
        rep = solve_metric(inst, k)
        assert rep.lower_bound <= rep.measured_latency or rep.measured_latency == 0


def test_baseline_one_site_per_robot():
    inst = line_instance([0, 5, 9], [1, 1, 1])
    rep = baseline_cover_schedule(inst, 3)
    assert rep.measured_latency == 0


def test_baseline_ngon_single_robot():
    inst = ngon_instance(6)
    rep = baseline_cover_schedule(inst, 1)
    tree = mst(list(inst.sites), inst.metric)
    assert rep.measured_latency <= 2 * tree.total_length
    assert validate_speed(rep.schedule, inst.metric) == []


def test_baseline_latency_within_tour_lengths():
    rng = random.Random(79)
    for _ in range(15):
        inst = random_euclidean_instance(rng, rng.randint(2, 9))
        k = rng.randint(1, 3)
        rep = baseline_cover_schedule(inst, k)
        from patrol.metric_core import tree_cover

        cover = tree_cover(list(inst.sites), inst.metric, k)
        for tree, track in zip(cover.trees, rep.schedule.robots):
            for v in tree.vertices:
                assert rep.latency.latency_of(v) <= max(2 * tree.total_length, 0)


def test_baseline_two_clusters_structure():
    inst = clustered_instance(4, gap=10)
    rep = baseline_cover_schedule(inst, 2)
    metric_rep = solve_metric(inst, 2)
    assert len(rep.schedule.robots) == len(metric_rep.schedule.robots) == 2


def test_solve_metric_rounds_weights_once(monkeypatch):
    import patrol.instance
    import patrol.metric_scheduler
    import patrol.time_window

    calls = []
    original = patrol.instance.round_weights_dyadic
    for module in (patrol.instance, patrol.metric_scheduler, patrol.time_window):
        if hasattr(module, "round_weights_dyadic"):
            monkeypatch.setattr(module, "round_weights_dyadic",
                                lambda inst: calls.append(inst) or original(inst))
    solve_metric(generate_instance("euclidean", 12, 1), 2)
    assert len(calls) == 1


def test_solve_metric_large_euclidean_pinned():
    # outputs of the Fraction-sorted Kruskal and tree-cover probes this
    # pipeline replaced, where this solve took about 10 s; now under 1 s
    rep = solve_metric(generate_instance("euclidean", 500, 1), 4)
    assert format_fraction(rep.L_accepted) == "20.479999999999563776"
    assert format_fraction(rep.lower_bound) == "86.10761747780660457"
    assert format_fraction(rep.measured_latency) == "3860.060341199393113384"
