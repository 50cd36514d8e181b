"""Generated instance shapes that are not random draws: the `ngon` and
`clustered` kinds of `patrol generate`."""

from __future__ import annotations

import math

from .instance import Instance, euclidean_instance
from .rationals import to_fraction


def ngon_instance(n: int) -> Instance:
    """n sites evenly placed on a unit circle, uniform weights."""
    pts = [
        (math.cos(2 * math.pi * i / n), math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]
    return euclidean_instance(pts, [1] * n)


def clustered_instance(n: int, gap=10, weights=None) -> Instance:
    """Two tight clusters of n/2 sites each, 0.1 apart within a cluster
    and `gap` apart."""
    gap, spread = to_fraction(gap), to_fraction("0.1")
    half = n // 2
    pts = [(float(i * spread), 0.0) for i in range(half)]
    pts += [(float(gap + i * spread), 0.0) for i in range(n - half)]
    return euclidean_instance(pts, weights if weights is not None else [1] * n)
