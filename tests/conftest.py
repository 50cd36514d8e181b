"""Shared helpers for the test suite: seeded random instances and small
evaluation shortcuts."""

from __future__ import annotations

import random
from fractions import Fraction

from patrol.instance import Instance, euclidean_instance, line_instance, matrix_instance
from patrol.time_window import _realize, _summary_pool


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
