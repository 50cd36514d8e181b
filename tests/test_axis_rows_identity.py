"""The integer line axis, and the visits the evaluator reads from it.

Before the axis, each reader of a line metric took the lcm of the
coordinate denominators and scaled and sorted the coordinates itself.
The axis is held to that rule here; the per-site latency loop that reads
it is held to the original evaluator in test_evaluator_identity.py.
"""

import random
from fractions import Fraction
from math import lcm

from patrol import evaluate
from patrol.evaluate import max_weighted_latency
from patrol.instance import Metric, line_instance
from patrol.schedule import RobotTrack, Schedule, SitePos
from patrol.time_window import _summary_pool, solve_line_weighted


# --- the axis -------------------------------------------------------------------


def test_axis_is_the_lcm_scale_and_stable_sort():
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 30)
        pool = [Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4, 7, 10, 12, 100)))
                for _ in range(rng.randint(1, n))]
        coords = tuple(rng.choice(pool) for _ in range(n))
        metric = Metric("line", coords=coords)
        D = lcm(*(c.denominator for c in coords))
        X = tuple(c.numerator * (D // c.denominator) for c in coords)
        order = tuple(sorted(range(n), key=lambda i: (coords[i], i)))
        axis = metric.axis()
        assert axis == (D, X, order) and all(type(x) is int for x in axis[1])
        assert metric.axis() is axis and metric._memo["axis"] is axis
        assert line_instance(coords, [1] * n).sorted_line_order() == list(order)


def test_a_line_instance_holds_one_axis():
    """The time-window solve keeps no integer coordinates of its own: its
    summary pool reads the metric's axis, and keeps no tie-key tables."""
    inst = line_instance([Fraction(1, 3), 2, 2, Fraction(5, 7), Fraction(9, 2)], [1, 2, 1, 4, 2])
    solve_line_weighted(inst, 2)
    pool = _summary_pool(inst)
    D, X, _ = inst.metric.axis()
    assert pool.X is X and pool.D == D
    assert not hasattr(pool, "low") and not hasattr(pool, "high")


def test_waypoint_visits_are_recorded_by_both_legs_on_the_line():
    """A site at a waypoint between two line legs gets that instant from
    each leg, and the loop's first point gets t_first + period too; the
    gap is unchanged."""
    inst = line_instance([0, 1, 2, 3], [1] * 4)
    loop = RobotTrack(Fraction(6), tuple((Fraction(i), SitePos(i)) for i in range(4)))
    unit, periods, (visits,) = evaluate._visits(Schedule((loop,)), inst.metric)
    assert (unit, periods) == (1, [6])
    assert visits == {0: [(0, 0), (6, 6)], 1: [(1, 1), (1, 1), (5, 5)],
                      2: [(2, 2), (2, 2), (4, 4)], 3: [(3, 3), (3, 3)]}
    assert [row.latency for row in max_weighted_latency(Schedule((loop,)), inst).per_site] == [
        6, 4, 4, 6]
