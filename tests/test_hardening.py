"""Heavier randomized sweeps: realization validity at every accepted
window, serialization exactness end to end, adversarial cover geometry."""

import random
from fractions import Fraction

from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import (
    Instance,
    dump_instance,
    line_instance,
    load_instance,
    matrix_instance,
    round_weights_dyadic,
)
from patrol.metric_core import tree_cover
from patrol.oracles import exact_tree_cover
from patrol.schedule import RoundRobinTrack, dump_schedule, expand_round_robin, load_schedule
from patrol.time_window import (
    candidate_window_lengths,
    construct_schedule,
    cyclify,
    validate_standard,
)


def test_every_accepted_window_realizes_validly():
    rng = random.Random(211)
    checked = 0
    for _ in range(10):
        n = rng.randint(2, 3)
        coords = sorted(rng.sample(range(0, 15), n))
        weights = [rng.choice([1, 2, 4]) for _ in range(n)]
        inst = line_instance(coords, weights)
        k = rng.randint(1, 2)
        _, rounded = round_weights_dyadic(inst)
        for L in [c for c in candidate_window_lengths(inst, k) if c > 0]:
            std = construct_schedule(inst, k, L)
            if std is None:
                continue
            assert validate_standard(std, inst)
            sched = cyclify(std)
            assert validate_speed(sched, inst.metric) == []
            lat = max_weighted_latency(sched, inst)
            for s in inst.sites:
                assert lat.latency_of(s) <= 2 * L / rounded[s]
            checked += 1
    assert checked > 30


def test_schedule_serialization_preserves_measurement():
    # coordinates with denominators 3 and 7 force p/q serialization
    inst = line_instance([0, Fraction(7, 3), Fraction(22, 7), 6], [1, 2, 1, 1])
    from patrol.time_window import solve_line_weighted

    rep = solve_line_weighted(inst, 1)
    text = dump_schedule(rep.schedule)
    again = load_schedule(text)
    lat = max_weighted_latency(again, inst)
    assert lat.max_weighted == rep.measured_latency
    inst_again = load_instance(dump_instance(inst))
    assert inst_again.metric.coords == inst.metric.coords


def test_tree_cover_ratio_adversarial_stars():
    # hub-and-spoke matrices where naive longest-edge deletion overshoots
    for legs in (4, 6, 8):
        n = legs + 1
        m = [[0] * n for _ in range(n)]
        for i in range(1, n):
            m[0][i] = m[i][0] = 1
            for j in range(1, n):
                if i != j:
                    m[i][j] = 2
        inst = matrix_instance(m, [1] * n)
        for t in (2, 3):
            cover = tree_cover(list(range(n)), inst.metric, t)
            exact = exact_tree_cover(list(range(n)), inst.metric, t)
            assert cover.max_length <= 4 * exact


def test_tree_cover_ratio_larger_sweep():
    rng = random.Random(223)
    for _ in range(60):
        n = rng.randint(2, 12)
        t = rng.randint(1, 3)
        pts = [(rng.randrange(0, 101), rng.randrange(0, 101)) for _ in range(n)]
        matrix = [
            [Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in pts] for a in pts
        ]
        inst = matrix_instance(matrix, [1] * n)
        sites = list(inst.sites)
        cover = tree_cover(sites, inst.metric, t)
        assert cover.max_length <= 4 * exact_tree_cover(sites, inst.metric, t)


def test_accepted_window_is_minimal_candidate():
    rng = random.Random(227)
    from patrol.time_window import solve_line_weighted

    for _ in range(8):
        n = rng.randint(2, 3)
        coords = sorted(rng.sample(range(0, 12), n))
        weights = [rng.choice([1, 2]) for _ in range(n)]
        inst = line_instance(coords, weights)
        k = rng.randint(1, 2)
        rep = solve_line_weighted(inst, k)
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        at = cands.index(rep.L_accepted)
        if at > 0:
            assert construct_schedule(inst, k, cands[at - 1]) is None


def test_symbolic_track_measures_like_expanded():
    inst = line_instance([0, 1, 3, 8], [1, 1, 1, 1])
    trees = (((0, 1), (2,)), ((3,),))
    symbolic = RoundRobinTrack(trees)
    expanded = expand_round_robin(trees, inst.metric)
    from patrol.schedule import Schedule

    a = max_weighted_latency(Schedule((symbolic,)), inst)
    b = max_weighted_latency(Schedule((expanded,)), inst)
    assert [s.latency for s in a.per_site] == [s.latency for s in b.per_site]
