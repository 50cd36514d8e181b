import json
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from patrol import evaluate
from patrol.errors import (
    PeriodOverflowError,
    ResourceLimitError,
    ScheduleFormatError,
    UnvisitedSiteError,
)
from patrol.evaluate import (
    DEFAULT_EVENT_CAP,
    max_weighted_latency,
    position_distance,
    validate_speed,
)
from patrol.instance import line_instance, matrix_instance
from patrol.schedule import (
    CoordPos,
    EdgePos,
    RobotTrack,
    RoundRobinTrack,
    Schedule,
    SitePos,
    dump_schedule,
    load_schedule,
    normalize_position,
    stationary_track,
    zigzag_track,
)
from conftest import track
from scenarios import (
    NON_INTEGER_SITE_IDS,
    site_id_documents,
    square_two_robot_loop,
    unit_square_instance,
)


def shift_track(track: RobotTrack, delta: Fraction) -> RobotTrack:
    """Rotate a track in time by delta (mod period)."""
    period = track.period
    delta = delta % period
    base = track.waypoints[0][0]
    shifted = sorted(((t - base + delta) % period, p) for t, p in track.waypoints)
    merged = []
    for t, p in shifted:
        if merged and merged[-1][0] == t:
            continue
        merged.append((t, p))
    return RobotTrack(period, tuple(merged))


def double_track(t: RobotTrack) -> RobotTrack:
    extra = tuple((tt + t.period, p) for tt, p in t.waypoints)
    return RobotTrack(2 * t.period, t.waypoints + extra)


def test_stationary_ok():
    inst = line_instance([0], [1])
    sched = Schedule((stationary_track(CoordPos(Fraction(0))),))
    assert validate_speed(sched, inst.metric) == []
    assert max_weighted_latency(sched, inst).max_weighted == 0


def test_speed_violation_reports_excess():
    inst = line_instance([0, 5], [1, 1])
    sched = Schedule((track(10, (0, 0), (4, 5)),))
    violations = validate_speed(sched, inst.metric)
    assert len(violations) == 1
    v = violations[0]
    assert (v.robot, v.leg) == (0, 0)
    assert v.excess == 1


def test_zigzag_ok_and_latency_formula():
    inst = line_instance([0, 4, 10], [1, 1, 1])
    sched = Schedule((zigzag_track(Fraction(0), Fraction(10)),))
    assert validate_speed(sched, inst.metric) == []
    rep = max_weighted_latency(sched, inst)
    assert rep.latency_of(1) == 12  # 2 * max(4, 6)
    assert rep.latency_of(0) == 20 and rep.latency_of(2) == 20


def test_square_two_robots_latency_two():
    inst = unit_square_instance()
    rep = max_weighted_latency(square_two_robot_loop(), inst)
    assert all(s.latency == 2 for s in rep.per_site)
    assert rep.max_weighted == 2


def test_unvisited_site_named():
    inst = line_instance([0, 5], [1, 1])
    sched = Schedule((stationary_track(CoordPos(Fraction(0))),))
    with pytest.raises(UnvisitedSiteError, match="site 1"):
        max_weighted_latency(sched, inst)


def test_resting_interval_counts_as_coverage():
    inst = line_instance([0, 2], [1, 1])
    # waits at site 1 during [2, 6], sweeps back and forth otherwise
    sched = Schedule((track(8, (0, 0), (2, 2), (6, 2)),))
    rep = max_weighted_latency(sched, inst)
    assert rep.latency_of(1) == 4  # unvisited only during [6,8]+[0,2]
    assert rep.latency_of(0) == 8


def test_pass_through_counts_on_line():
    inst = line_instance([0, 1, 2], [1, 1, 1])
    sched = Schedule((zigzag_track(Fraction(0), Fraction(2)),))
    rep = max_weighted_latency(sched, inst)
    assert rep.latency_of(1) == 2  # crossed mid-leg in both directions


def combined_period(schedule, metric=None, event_cap=DEFAULT_EVENT_CAP):
    """Least common period of all robot tracks; PeriodOverflowError when
    unrolling every track to it would exceed event_cap waypoint events.
    The lcm of positive rationals p_i/q_i is lcm(p_i) / gcd(q_i)."""
    if metric is not None:
        schedule = schedule.expanded(metric)
    if any(not isinstance(t, RobotTrack) for t in schedule.robots):
        raise ScheduleFormatError("symbolic tracks need a metric to expand")
    periods = [t.period for t in schedule.robots]
    total = Fraction(lcm(*(p.numerator for p in periods)), gcd(*(p.denominator for p in periods)))
    if sum(int(total / t.period) * len(t.waypoints) for t in schedule.robots) > event_cap:
        raise PeriodOverflowError(f"common period {total} needs more than {event_cap} events")
    return total


def test_combined_period_examples():
    m = line_instance([0, 1], [1, 1]).metric
    s46 = Schedule((track(4, (0, 0)), track(6, (0, 1))))
    assert combined_period(s46, m) == 12
    assert combined_period(Schedule((track(4, (0, 0)),)), m) == 4
    s22 = Schedule((track(2, (0, 0)), track(2, (0, 1))))
    assert combined_period(s22, m) == 2


def test_combined_period_cap():
    m = line_instance([0, 1], [1, 1]).metric
    sched = Schedule(
        (track(Fraction(1009, 1), (0, 0)), track(Fraction(1013, 997), (0, 1)))
    )
    with pytest.raises(PeriodOverflowError):
        combined_period(sched, m, event_cap=1000)


def test_shared_site_incommensurate_periods_over_cap(monkeypatch):
    inst = line_instance([0], [1])
    a = track(Fraction(1009), (0, 0), (1, 0))
    b = track(Fraction(1013, 997), (0, 0))
    monkeypatch.setattr(evaluate, "DEFAULT_EVENT_CAP", 100)
    with pytest.raises(PeriodOverflowError):
        max_weighted_latency(Schedule((a, b)), inst)


def budget_zigzags(q):
    """Two zigzags over sites 0..39 with periods 78 and 78(q+1)/q: every site
    is served jointly, with 4q + 2 visit events over its common period."""
    def zigzag(period):
        return track(period, (0, 0), (period / 2, 39))
    return line_instance(range(40), [1] * 40), Schedule((zigzag(78), zigzag(Fraction(78 * (q + 1), q))))


def test_event_budget_bounds_the_whole_evaluation():
    # 400 002 events per site pass the per-site cap, but 40 sites need 16 M;
    # the running total passes the default cap of 2 000 000 at site 4
    inst, sched = budget_zigzags(100_000)
    with pytest.raises(PeriodOverflowError) as err:
        max_weighted_latency(sched, inst)
    assert str(err.value) == (
        "jointly served sites up to site 4 need 2000010 visit events in total; cap is 2000000"
    )
    # under the cap the same shape measures: the fast zigzag's period bounds it
    inst, sched = budget_zigzags(2)
    assert max_weighted_latency(sched, inst).max_weighted <= 78


def test_event_budget_is_checked_before_any_unroll(monkeypatch):
    # site 4 breaks the running total; sites 0-3 must not be unrolled first
    unrolled = []
    monkeypatch.setattr(evaluate, "_joint_gap", lambda *args: unrolled.append(args))
    inst, sched = budget_zigzags(100_000)
    with pytest.raises(PeriodOverflowError):
        max_weighted_latency(sched, inst)
    assert not unrolled


def test_joint_site_keeps_phase_between_tracks():
    # both robots touch site 0 once per period 4; the second starts later
    inst = line_instance([0], [1])
    first = track(4, (0, 0), (2, 2))
    for start, latency in ((0, 4), (1, 3), (2, 2), (3, 3)):
        later = track(4, (start, 0), (start + 2, 2))
        rep = max_weighted_latency(Schedule((first, later)), inst)
        assert rep.latency_of(0) == latency


def test_time_shift_invariance():
    inst = line_instance([0, 3, 7], [1, 2, 1])
    base = zigzag_track(Fraction(0), Fraction(7))
    ref = max_weighted_latency(Schedule((base,)), inst)
    rng = random.Random(5)
    for _ in range(10):
        delta = Fraction(rng.randint(0, 139), 10)
        shifted = shift_track(base, delta)
        rep = max_weighted_latency(Schedule((shifted,)), inst)
        assert [s.latency for s in rep.per_site] == [s.latency for s in ref.per_site]


def test_self_concatenation_invariance():
    inst = line_instance([0, 3, 7], [1, 2, 1])
    base = zigzag_track(Fraction(0), Fraction(7))
    ref = max_weighted_latency(Schedule((base,)), inst)
    rep = max_weighted_latency(Schedule((double_track(base),)), inst)
    assert [s.latency for s in rep.per_site] == [s.latency for s in ref.per_site]


def test_crossing_robot_swap_equivalence():
    # two robots sweeping [0,3] in opposite phases vs. the swapped pair
    # that bounces at the meeting point 1.5
    inst = line_instance([0, 1, 2, 3], [1, 1, 1, 1])
    crossing = Schedule(
        (track(6, (0, 0), (3, 3)), track(6, (0, 3), (3, 0)))
    )
    bouncing = Schedule(
        (
            track(3, (0, 0), (Fraction(3, 2), Fraction(3, 2))),
            track(3, (0, 3), (Fraction(3, 2), Fraction(3, 2))),
        )
    )
    a = max_weighted_latency(crossing, inst)
    b = max_weighted_latency(bouncing, inst)
    assert [s.latency for s in a.per_site] == [s.latency for s in b.per_site]


def test_matrix_metric_visits_only_at_waypoints():
    m = [[0, 2, 2], [2, 0, 2], [2, 2, 0]]
    inst = matrix_instance(m, [1, 1, 1])
    sched = Schedule(
        (
            RobotTrack(
                Fraction(6),
                (
                    (Fraction(0), SitePos(0)),
                    (Fraction(2), SitePos(1)),
                    (Fraction(4), SitePos(2)),
                ),
            ),
        )
    )
    assert validate_speed(sched, inst.metric) == []
    rep = max_weighted_latency(sched, inst)
    assert all(s.latency == 6 for s in rep.per_site)


def test_edge_positions_distance_and_errors():
    m = [[0, 4, 4], [4, 0, 4], [4, 4, 0]]
    inst = matrix_instance(m, [1, 1, 1])
    mid = EdgePos(0, 1, Fraction(1, 4))
    assert position_distance(SitePos(0), mid, inst.metric) == 1
    assert position_distance(mid, SitePos(1), inst.metric) == 3
    assert position_distance(mid, EdgePos(0, 1, Fraction(3, 4)), inst.metric) == 2
    with pytest.raises(ScheduleFormatError):
        position_distance(mid, SitePos(2), inst.metric)
    with pytest.raises(ScheduleFormatError):
        position_distance(mid, EdgePos(1, 2, Fraction(1, 2)), inst.metric)


def test_schedule_json_round_trip():
    sched = Schedule(
        (
            RobotTrack(
                Fraction(25, 2),
                (
                    (Fraction(0), SitePos(3)),
                    (Fraction(5, 2), CoordPos(Fraction(4))),
                    (Fraction(10, 3), EdgePos(0, 1, Fraction(1, 3))),
                ),
            ),
            RoundRobinTrack((((0, 1), (2,)), ((3,),))),
        )
    )
    text = dump_schedule(sched)
    again = load_schedule(text)
    assert again == sched
    assert '"10/3"' in text  # non-decimal rationals serialize as p/q


def test_round_robin_expansion_and_cap():
    inst = line_instance([0, 1, 2], [1, 1, 1])
    rr = RoundRobinTrack((((0, 1),), ((2,),)))
    expanded = rr.expand(inst.metric)
    sched = Schedule((expanded,))
    assert validate_speed(sched, inst.metric) == []
    rep = max_weighted_latency(sched, inst)
    assert rep.max_weighted > 0
    huge = RoundRobinTrack(
        tuple(tuple((0,) for _ in range(count)) for count in (128, 243, 625, 343))
    )
    with pytest.raises(ResourceLimitError):
        huge.expand(inst.metric)


def test_track_validation_errors():
    with pytest.raises(ScheduleFormatError):
        RobotTrack(Fraction(1), ())
    with pytest.raises(ScheduleFormatError):
        RobotTrack(Fraction(2), ((Fraction(1), CoordPos(Fraction(0))), (Fraction(1), CoordPos(Fraction(1)))))
    with pytest.raises(ScheduleFormatError):
        RobotTrack(Fraction(1), ((Fraction(0), CoordPos(Fraction(0))), (Fraction(2), CoordPos(Fraction(0)))))


# JSON spellings of a site id that int() used to coerce (2.9 to 2, true
# to 1, "1" to 1), and two it rejected with a different message
def test_site_ids_must_be_json_integers():
    for site in NON_INTEGER_SITE_IDS:
        for doc in site_id_documents(site):
            with pytest.raises(ScheduleFormatError) as err:
                load_schedule(json.dumps(doc))
            assert str(err.value) == f"site id must be a JSON integer, got {json.dumps(site)}"
    for doc in site_id_documents(1):
        load_schedule(json.dumps(doc))


def test_edge_fraction_range_checked_in_either_direction():
    for a, b in ((1, 2), (2, 1)):
        for frac in ("1.5", "-1/2", "2"):
            doc = {"robots": [{"period": "4", "waypoints": [
                {"t": "0", "pos": {"edge": [a, b], "frac": frac}}]}]}
            with pytest.raises(ScheduleFormatError) as err:
                load_schedule(json.dumps(doc))
            assert str(err.value) == f"edge fraction out of range: {Fraction(frac)}"
        with pytest.raises(ScheduleFormatError):
            normalize_position(EdgePos(a, b, Fraction(3, 2)))
    assert normalize_position(EdgePos(2, 1, Fraction(1, 4))) == EdgePos(1, 2, Fraction(3, 4))
    assert normalize_position(EdgePos(2, 1, Fraction(1))) == SitePos(1)
    assert normalize_position(EdgePos(2, 1, Fraction(0))) == SitePos(2)
