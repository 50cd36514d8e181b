"""Cross-module edge cases: duplicate sites, matrix pipelines, symbolic
round-robin fallback, resource caps."""

import json
import random
from fractions import Fraction

import pytest

import patrol.metric_scheduler as ms
import patrol.time_window as tw
from patrol.errors import InstanceError, ResourceLimitError
from patrol.evaluate import max_weighted_latency, validate_speed
from patrol.instance import (
    euclidean_instance,
    line_instance,
    load_instance,
    round_weights_dyadic,
)
from patrol.metric_scheduler import solve_metric, solve_metric_detailed
from patrol.schedule import RoundRobinTrack
from patrol.time_window import construct_schedule, solve_line_weighted
from conftest import random_matrix_instance


def test_duplicate_sites_distance_zero():
    inst = line_instance([2, 2, 5], [1, 1, 1])
    rep = solve_metric(inst, 2)
    assert rep.measured_latency == 0  # one robot per distinct position


def test_all_sites_coincide():
    inst = line_instance([3, 3, 3], [1, 2, 4])
    rep = solve_metric(inst, 1)
    assert rep.measured_latency == 0


def test_metric_solver_on_matrix_instance_exact():
    rng = random.Random(5)
    inst = random_matrix_instance(rng, 7)
    rep = solve_metric(inst, 2)
    assert validate_speed(rep.schedule, inst.metric) == []
    # matrix data is rational, so the measurement is exact
    assert rep.measured_latency.denominator >= 1
    again = max_weighted_latency(rep.schedule, inst)
    assert again.max_weighted == rep.measured_latency


def test_metric_solver_on_line_instance():
    inst = line_instance([0, 1, 9, 10], [1, 1, 1, 1])
    rep = solve_metric(inst, 2)
    assert validate_speed(rep.schedule, inst.metric) == []
    assert rep.measured_latency <= 8


def test_single_robot_schedule_symbolic_under_low_cap(monkeypatch):
    monkeypatch.setattr(ms, "ROUND_CAP", 1)
    inst = euclidean_instance([(0, 0), (1, 0), (0, 1), (4, 4)], [1, 1, 1, 1])
    rep, details = solve_metric_detailed(inst, 1)
    assert any(isinstance(t, RoundRobinTrack) for t in rep.schedule.robots)
    # the evaluator expanded the symbolic track to measure it
    assert rep.measured_latency > 0


def test_time_window_state_cap_raises(monkeypatch):
    monkeypatch.setattr(tw, "DEFAULT_PAIR_CAP", 10)
    inst = line_instance([0, 2, 5, 9], [1, 2, 4, 1])
    with pytest.raises(ResourceLimitError):
        solve_line_weighted(inst, 2)


def test_time_window_caps_admit_exactly_the_cap(monkeypatch):
    """A level may join exactly DEFAULT_PAIR_CAP pairs: the atoms' len^k
    at level 0, a level's len^2 above it; one pair fewer trips the cap.
    The candidate windows may number exactly DEFAULT_STATE_CAP."""
    L = Fraction(12)
    flat = line_instance([0, 2, 5], [1, 1, 1])
    atoms = len(tw._atom_ids(flat, L))
    for k in (1, 2):
        monkeypatch.setattr(tw, "DEFAULT_PAIR_CAP", atoms**k)
        tw._levels(flat, k, L)
        monkeypatch.setattr(tw, "DEFAULT_PAIR_CAP", atoms**k - 1)
        with pytest.raises(ResourceLimitError, match="atomic combinations"):
            tw._levels(flat, k, L)
    two_levels = line_instance([0, 2, 5], [1, 2, 1])
    pairs = len(tw._below(two_levels, 1, L)[0]) ** 2
    assert pairs - 1 > atoms
    monkeypatch.setattr(tw, "DEFAULT_PAIR_CAP", pairs)
    tw._levels(two_levels, 1, L)
    monkeypatch.setattr(tw, "DEFAULT_PAIR_CAP", pairs - 1)
    with pytest.raises(ResourceLimitError, match="concatenation pairs at level 1"):
        tw._levels(two_levels, 1, L)
    monkeypatch.setattr(tw, "DEFAULT_STATE_CAP", 3 * 3)  # 3 gaps, 2^1 + 1 budgets
    tw.candidate_window_lengths(two_levels, 1)
    monkeypatch.setattr(tw, "DEFAULT_STATE_CAP", 3 * 3 - 1)
    with pytest.raises(ResourceLimitError, match="^3 gaps x 3 candidates exceed the state cap$"):
        tw.candidate_window_lengths(two_levels, 1)


def test_time_window_k3_guarded_but_small_cases_work():
    inst = line_instance([0, 1], [1, 1])
    got = construct_schedule(inst, 3, Fraction(9))
    assert got is not None


def test_weight_scaling_reported_in_original_units():
    inst = line_instance([0, 10], [5, 5])  # max weight 5, scaled internally
    rep = solve_metric(inst, 1)
    assert rep.measured_latency == 5 * max(
        s.latency for s in rep.latency.per_site
    )


def test_names_round_trip_and_unvisited_message():
    doc = {
        "kind": "line",
        "metric": {"type": "line", "data": [0, 4]},
        "weights": [1, 1],
        "names": ["base", "relay"],
    }
    inst = load_instance(json.dumps(doc))
    assert inst.names == ("base", "relay")
    from patrol.errors import UnvisitedSiteError
    from patrol.schedule import CoordPos, Schedule, stationary_track

    sched = Schedule((stationary_track(CoordPos(Fraction(0))),))
    with pytest.raises(UnvisitedSiteError, match="relay"):
        max_weighted_latency(sched, inst)


def test_euclidean_dimension_mismatch_rejected():
    doc = {
        "kind": "general",
        "metric": {"type": "euclidean", "data": [[0, 0], [1]]},
        "weights": [1, 1],
    }
    with pytest.raises(InstanceError):
        load_instance(json.dumps(doc))


def test_rounding_scale_restores_original_weights():
    inst = line_instance([0, 1], ["0.6", "0.2"])
    classes, rounded = round_weights_dyadic(inst)
    assert classes.scale == Fraction(3, 5)
    # scaled weights in (0, 1], rounded up to powers of 1/2
    assert rounded == [Fraction(1), Fraction(1, 2)]
