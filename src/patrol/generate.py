"""Deterministic instance generation for the CLI and benchmarks."""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InstanceError
from .fixtures import clustered_instance, ngon_instance
from .instance import Instance, euclidean_instance, line_instance
from .rationals import to_fraction

KINDS = ("line-uniform", "line-weighted", "euclidean", "clustered", "ngon")


def generate_instance(
    kind: str, n: int, seed: int, gap=10, wmax: int = 8
) -> Instance:
    """Build the instance determined by (kind, n, seed).

    Coordinates land on a 0.01 grid so all data is exact; weights are
    integers in [1, wmax].  gap must be finite, whatever the kind.
    """
    if n < 1:
        raise InstanceError("n must be at least 1")
    if wmax < 1:
        raise InstanceError(f"wmax must be at least 1, got {wmax}")
    try:
        gap = to_fraction(gap)
    except ValueError:
        raise InstanceError(f"gap must be a finite number, got {gap!r}") from None
    rng = random.Random(seed)
    if kind == "line-uniform":
        coords = sorted(Fraction(rng.randrange(0, 10001), 100) for _ in range(n))
        return line_instance(coords, [1] * n)
    if kind == "line-weighted":
        coords = sorted(Fraction(rng.randrange(0, 10001), 100) for _ in range(n))
        weights = [rng.randint(1, wmax) for _ in range(n)]
        return line_instance(coords, weights)
    if kind == "euclidean":
        pts = [
            (rng.randrange(0, 1001) / 100, rng.randrange(0, 1001) / 100)
            for _ in range(n)
        ]
        weights = [rng.randint(1, wmax) for _ in range(n)] if wmax > 1 else [1] * n
        return euclidean_instance(pts, weights)
    if kind == "clustered":
        return clustered_instance(n, gap=gap)
    if kind == "ngon":
        return ngon_instance(n)
    raise InstanceError(f"unknown kind {kind!r}; choose one of {', '.join(KINDS)}")
