"""Shared helpers for the test suite: seeded random instances and
schedules, small builders and evaluation shortcuts.  No test file imports
another; what two of them share lives here or in scenarios.py."""

from __future__ import annotations

import random
from fractions import Fraction

from patrol.instance import (
    Instance,
    euclidean_instance,
    line_instance,
    matrix_instance,
    round_weights_dyadic,
)
from patrol.schedule import CoordPos, EdgePos, RobotTrack, Schedule, SitePos
from patrol.time_window import _realize, _summary_pool, candidate_window_lengths


def random_line_coords(rng: random.Random, n: int, hi: int = 2000) -> list[Fraction]:
    return sorted(Fraction(rng.randrange(0, hi + 1), 100) for _ in range(n))


def random_line_instance(
    rng: random.Random, n: int, uniform: bool = True, wmax: int = 4
) -> Instance:
    coords = random_line_coords(rng, n)
    if uniform:
        weights = [1] * n
    else:
        weights = [rng.randint(1, wmax) for _ in range(n)]
    return line_instance(coords, weights)


def random_euclidean_instance(
    rng: random.Random, n: int, wchoices=(1, 2, 3, 4)
) -> Instance:
    pts = [
        (rng.randrange(0, 1001) / 100, rng.randrange(0, 1001) / 100) for _ in range(n)
    ]
    weights = [rng.choice(wchoices) for _ in range(n)]
    return euclidean_instance(pts, weights)


def random_matrix_instance(rng: random.Random, n: int, wchoices=(1, 2)) -> Instance:
    # random points on a grid keep the matrix consistent with a metric
    pts = [(rng.randrange(0, 101), rng.randrange(0, 101)) for _ in range(n)]
    matrix = [
        [Fraction(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in pts] for a in pts
    ]
    weights = [rng.choice(wchoices) for _ in range(n)]
    return matrix_instance(matrix, weights)


def realize_node(node, instance: Instance, L: Fraction):
    """Replay any time-window DP node into explicit motion."""
    return _realize(node, instance, L)


def node_reps(node, instance: Instance):
    """A time-window DP node's AtomicReps, read from its pool ids."""
    pool = _summary_pool(instance).pool
    return tuple(pool[i] for i in node.ids)


def tolerance_matrix() -> Instance:
    """Valid within TRIANGLE_TOL: d(0,2) = 1 > d(0,1) + d(1,2) = 1 - 1e-10."""
    near = Fraction("0.9999999999")
    return matrix_instance([[0, 0, 1], [0, 0, near], [1, near, 0]], [1, 1, 1])


# doubles around the edges of the format: subnormals, -0.0, values that
# absorb a 1e-9 offset (1e15 +- 1e-9 == 1e15) or a 5e-324 one
EXTREME = (0.0, -0.0, 5e-324, 1e-323, 1e-300, 2e-300, 1e-300 + 5e-324, 3e-12, 6e-12,
           1.0, 1e15, 1e15 + 1e-9, 1e15 - 1e-9, 1e15 + 0.125, 1e15 + 0.25)


def extreme_instances():
    """Euclidean instances on EXTREME coordinates, -0.0 and coincident
    points among them."""
    rng = random.Random(324)
    yield euclidean_instance([(x,) for x in EXTREME], [1] * len(EXTREME))
    yield euclidean_instance([(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (5e-324, 0.0),
                              (0.0, 5e-324), (5e-324, 5e-324)], [1] * 7)
    for _ in range(8):
        n, dim = rng.randint(2, 10), rng.randint(1, 3)
        pts = [tuple(rng.choice(EXTREME) for _ in range(dim)) for _ in range(n)]
        yield euclidean_instance(pts, [rng.randint(1, 4) for _ in range(n)])


# --- time-window sweeps -------------------------------------------------------


def line_sweep(seed, count, n_max, wmax):
    """Seeded line instances: n in 1..n_max, coordinates on a small grid
    (so duplicates are common) over one denominator of 1, 2, 3, 7, 100."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, n_max)
        den = rng.choice((1, 2, 3, 7, 100))
        coords = [Fraction(rng.randint(0, 9), den) for _ in range(n)]
        yield line_instance(coords, [rng.randint(1, wmax) for _ in range(n)])


def rank_cases():
    """k=1 up to n=6 with weights to 4, k=2 up to n=4 with weights to 2,
    k=3 up to n=3 with weights to 2; at each k some instance has
    coincident sites and some has more than one weight level."""
    cases = [(inst, 1) for inst in line_sweep(30, 30, 6, 4)]
    cases += [(inst, 2) for inst in line_sweep(33, 12, 4, 2)]
    cases += [(inst, 3) for inst in line_sweep(32, 5, 3, 2)]
    for k in (1, 2, 3):
        assert any(len(set(inst.metric.coords)) < inst.n for inst, kk in cases if kk == k)
        assert any(round_weights_dyadic(inst)[0].m for inst, kk in cases if kk == k)
    return cases


def rank_probes():
    """(instance, k, L) at about four candidate windows per rank case."""
    for inst, k in rank_cases():
        cands = [c for c in candidate_window_lengths(inst, k) if c > 0]
        for L in cands[:: max(1, len(cands) // 4)]:
            yield inst, k, L


# --- schedules ------------------------------------------------------------------

TOL = Fraction(1, 10**9)


def track(period, *points) -> RobotTrack:
    """RobotTrack from (time, position) pairs; bare numbers are coordinates."""
    return RobotTrack(Fraction(period), tuple(
        (Fraction(t), pos if isinstance(pos, (SitePos, EdgePos)) else CoordPos(Fraction(pos)))
        for t, pos in points))


def zigzag(left, right, period_scale, shift=0) -> RobotTrack:
    span = Fraction(right - left) * period_scale
    return track(2 * span, (shift, left), (shift + span, right))


def reference_line_coord(pos, metric):
    """A position's coordinate on a line metric, read on Fractions."""
    if isinstance(pos, CoordPos):
        return pos.x
    if isinstance(pos, SitePos):
        return metric.coords[pos.site]
    a, b = metric.coords[pos.a], metric.coords[pos.b]
    return a + pos.frac * (b - a)


PERIODS = [Fraction(p) for p in (1, 2, 3, 5, 6, 10, "1/2", "1/3", "5/2")]


def random_track(rng, positions) -> RobotTrack:
    """A track over `positions` (a callable drawing one) with waits,
    pass-throughs and, sometimes, a last waypoint at t_first + period."""
    period = rng.choice(PERIODS)
    q = rng.randint(1, 6)
    base = Fraction(rng.randint(0, 7), rng.randint(1, 3))
    steps = sorted(rng.sample(range(q + 1), rng.randint(1, q + 1)))
    waypoints, last = [], None
    for i in steps:
        pos = last if last is not None and rng.random() < 0.3 else positions()
        waypoints.append((base + period * i / q, pos))
        last = pos
    if steps[-1] == q and steps[0] == 0 and rng.random() < 0.7:
        # full-period track: it must wrap to its start
        waypoints[-1] = (waypoints[-1][0], waypoints[0][1])
    return RobotTrack(period, tuple(waypoints))


def site_sweep(rng, n) -> RobotTrack:
    """A track visiting every site of an n-site instance in random order,
    so that most generated schedules measure rather than raise."""
    order = rng.sample(range(n), n)
    period = rng.choice(PERIODS)
    return RobotTrack(period, tuple((period * i / n, SitePos(s)) for i, s in enumerate(order)))


def random_tracks(rng, n, positions) -> Schedule:
    drawn = [random_track(rng, positions) for _ in range(rng.randint(1, 3))]
    return Schedule(tuple(drawn + [site_sweep(rng, n)] if rng.random() < 0.6 else drawn))


def line_cases(rng):
    """60 seeded line schedules: site, edge and coordinate positions, some
    a tolerance off a site."""
    for _ in range(60):
        n = rng.randint(1, 9)
        coords = [Fraction(rng.randint(0, 12), rng.choice((1, 2, 4))) for _ in range(n)]
        inst = line_instance(coords, [rng.randint(1, 4) for _ in range(n)])

        def positions():
            kind = rng.random()
            if kind < 0.4:
                return SitePos(rng.randrange(n))
            if kind < 0.6 and n > 1:
                a, b = sorted(rng.sample(range(n), 2))
                return EdgePos(a, b, Fraction(rng.randint(1, 3), 4))
            c = rng.choice(coords) if rng.random() < 0.5 else Fraction(rng.randint(-2, 14), 2)
            return CoordPos(c + rng.choice((0, 0, TOL, -TOL, 2 * TOL, TOL / 2)))

        yield random_tracks(rng, n, positions), inst


def euclidean_cases(rng):
    """40 seeded Euclidean schedules over points a tolerance apart."""
    for _ in range(40):
        count = rng.randint(1, 4)
        base = [(rng.randint(0, 4) * 1.5, rng.randint(0, 4) * 0.5) for _ in range(count)]
        if rng.random() < 0.3:
            base = [(x + 1e6, y) for x, y in base]
        pts = list(base)
        for x, y in base:
            for off in (5e-10, 1e-9, 1.5e-9, 3e-9):
                dx, dy = rng.choice(((off, 0), (-off, 0), (0, off), (off * 0.7, off * 0.7)))
                if rng.random() < 0.5:
                    pts.append((x + dx, y + dy))
        rng.shuffle(pts)
        n = len(pts)
        inst = euclidean_instance(pts, [rng.randint(1, 3) for _ in range(n)])

        def positions():
            if n > 1 and rng.random() < 0.2:
                a, b = sorted(rng.sample(range(n), 2))
                return EdgePos(a, b, Fraction(1, 2))
            return SitePos(rng.randrange(n))

        yield random_tracks(rng, n, positions), inst


def matrix_cases(rng):
    """40 seeded matrix schedules with zero and near-zero distances."""
    for _ in range(40):
        # points on a small grid, some repeated or a tolerance apart, give
        # zero and near-zero off-diagonal entries of a valid metric
        count = rng.randint(1, 6)
        pts = [(Fraction(rng.randint(0, 3)), Fraction(rng.randint(0, 3))) for _ in range(count)]
        pts += [(x + rng.choice((0, TOL, 2 * TOL)), y) for x, y in pts if rng.random() < 0.5]
        n = len(pts)
        matrix = [[abs(a[0] - b[0]) + abs(a[1] - b[1]) for b in pts] for a in pts]
        inst = matrix_instance(matrix, [rng.randint(1, 3) for _ in range(n)])

        def positions():
            if n > 1 and rng.random() < 0.2:
                a, b = sorted(rng.sample(range(n), 2))
                return EdgePos(a, b, Fraction(1, 3))
            return SitePos(rng.randrange(n))

        yield random_tracks(rng, n, positions), inst
