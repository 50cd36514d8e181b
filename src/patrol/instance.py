"""Problem instances: sites with a metric and positive weights.

An instance holds n sites (indexed 0..n-1), a metric (distance matrix,
Euclidean points, or 1D coordinates) and one positive weight per site.
Weight normalization and dyadic rounding live here as well, since every
weighted solver starts from the same rounded weight classes.

All objects are immutable after construction (the private memos of a
Metric and an Instance aside) and safe to share between threads or
workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InstanceError
from .rationals import float_to_fraction, format_fraction, on_common_denominator, to_fraction

TRIANGLE_TOL = 1e-9
_METRIC_DATA = {"line": "coords", "matrix": "matrix", "euclidean": "points"}


@dataclass(frozen=True)
class Metric:
    """Distance oracle over the sites.

    variant: "line" (data = n coordinates), "matrix" (data = row-major
    n x n entries), or "euclidean" (data = n points in R^d).  Line and
    matrix data are exact Fractions; a Euclidean distance is the double
    from math.dist read through its shortest decimal repr (not its exact
    binary value).  _memo keeps what solvers derive
    from the metric alone: each Euclidean distance, converted once and
    kept under the int i * n + j for its pair i <= j; metric_core.mst per
    (sorted sites, "mst"); metric_core.tree_cover per (sorted sites, t);
    a line's integer axis, axis(), under "axis";
    and the last schedule measured on it, as (schedule, result) under
    "evaluation" and "visits" (evaluate._evaluation and _visits), found
    again only for that same schedule object.  Threads that race on a slot
    only recompute.  It takes no part in equality, hashing or repr.  A
    Metric validates itself when built, its variant and that variant's
    data field first.
    """

    variant: str
    coords: tuple[Fraction, ...] | None = None
    matrix: tuple[tuple[Fraction, ...], ...] | None = None
    points: tuple[tuple[float, ...], ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.validate()

    @property
    def n(self) -> int:
        if self.variant == "line":
            return len(self.coords)
        if self.variant == "matrix":
            return len(self.matrix)
        return len(self.points)

    def distance(self, i: int, j: int) -> Fraction:
        if self.variant == "line":
            return abs(self.coords[i] - self.coords[j])
        if self.variant == "matrix":
            return self.matrix[i][j]
        points = self.points
        pair = i * len(points) + j if i <= j else j * len(points) + i
        d = self._memo.get(pair)
        if d is None:  # setdefault: threads racing here all get one object
            d = self._memo.setdefault(pair, float_to_fraction(math.dist(points[i], points[j])))
        return d

    def axis(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(D, X, order) of a line metric, built once: D is the lcm of the
        coordinate denominators, X[i] = coords[i] * D as an int, and order
        the site ids sorted by X, ties by id: the line's one integer table."""
        axis = self._memo.get("axis")
        if axis is None:
            D, X = on_common_denominator(self.coords)
            order = tuple(sorted(range(len(X)), key=X.__getitem__))
            axis = self._memo.setdefault("axis", (D, tuple(X), order))
        return axis

    def validate(self) -> None:
        data = _METRIC_DATA.get(self.variant)
        if data is None:
            raise InstanceError(f"unknown metric type: {self.variant}")
        if getattr(self, data) is None:
            raise InstanceError(f"a {self.variant} metric needs its {data}")
        n = self.n
        if n < 1:
            raise InstanceError("metric must cover at least one site")
        if self.variant == "euclidean":
            if any(len(p) != len(self.points[0]) for p in self.points):
                raise InstanceError("euclidean points must share one dimension")
            if not all(math.isfinite(c) for p in self.points for c in p):
                raise InstanceError("euclidean coordinates must be finite")
            # no two points are further apart than the bounding box's corners
            lo = [min(axis) for axis in zip(*self.points)]
            hi = [max(axis) for axis in zip(*self.points)]
            if math.isinf(math.dist(lo, hi)):
                raise InstanceError("euclidean distances overflow a double")
        if self.variant != "matrix":
            return
        if any(len(row) != n for row in self.matrix):
            raise InstanceError("distance matrix must be square")
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise InstanceError(f"d({i},{i}) must be 0")
            for j in range(n):
                if self.matrix[i][j] < 0:
                    raise InstanceError(f"d({i},{j}) is negative")
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise InstanceError(f"asymmetric matrix: d({i},{j}) != d({j},{i})")
        # Triangle inequality, checked to a small absolute tolerance.
        tol = to_fraction(repr(TRIANGLE_TOL))
        for i in range(n):
            for j in range(n):
                for via in range(n):
                    if self.matrix[i][j] > self.matrix[i][via] + self.matrix[via][j] + tol:
                        raise InstanceError(
                            f"triangle inequality violated on ({i},{via},{j})"
                        )


@dataclass(frozen=True)
class Instance:
    """A patrol-scheduling problem instance.

    _memo keeps what solvers derive from the whole instance: the weight
    classes of weight_classes() under "dyadic", shared by the time-window
    solver, the metric solver and its lower bound, the time-window
    summary pool (its atomic table included) under "summaries", and
    lower_bound_metric's bound for k under ("lower_bound", k); it takes
    no part in equality, hashing or repr.
    """

    metric: Metric
    weights: tuple[Fraction, ...]
    kind: str = "general"
    names: Optional[tuple[str, ...]] = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.metric.n
        if len(self.weights) != n:
            raise InstanceError("one weight per site required")
        if any(w.numerator <= 0 for w in self.weights):  # Fractions keep den > 0
            raise InstanceError("weights must be positive")
        if self.kind not in ("general", "line"):
            raise InstanceError(f"unknown instance kind: {self.kind}")
        if self.kind == "line" and self.metric.variant != "line":
            raise InstanceError("line instances need 1D coordinates")
        if self.names is not None and len(self.names) != n:
            raise InstanceError("one name per site required")

    @property
    def n(self) -> int:
        return self.metric.n

    @property
    def sites(self) -> range:
        return range(self.n)

    def is_line(self) -> bool:
        return self.kind == "line"

    def uniform_weight(self) -> Optional[Fraction]:
        """The common weight if all sites share one, else None."""
        first = self.weights[0]
        key = first.numerator, first.denominator  # Fractions are in lowest terms
        return first if all((w.numerator, w.denominator) == key for w in self.weights) else None

    def sorted_line_order(self) -> list[int]:
        """Site indices sorted by coordinate (ties by index)."""
        if not self.is_line():
            raise InstanceError("not a line instance")
        return list(self.metric.axis()[2])


@dataclass(frozen=True)
class WeightClasses:
    """Sites grouped by rounded dyadic weight.

    classes maps exponent j to the (non-empty) list of sites whose
    scaled weight rounded up to 2^-j; m is the largest exponent used.
    Empty intermediate classes are simply absent.
    """

    m: int
    classes: tuple[tuple[int, tuple[int, ...]], ...]
    scale: Fraction  # original max weight; scaled weight = original / scale


def round_weights_dyadic(instance: Instance) -> tuple[WeightClasses, list[Fraction]]:
    """Scale weights to max 1 and round each up to the next power of 1/2.

    Returns the weight classes and the per-site rounded (scaled) weight
    w' with w <= w' < 2w.  Rounding already-dyadic normalized weights is
    the identity.
    """
    scale = max(instance.weights)
    exponents: list[int] = []
    for w in instance.weights:
        # the largest j with p << j <= q, for p / q = w / scale <= 1 on ints
        p, q = w.numerator * scale.denominator, w.denominator * scale.numerator
        j = q.bit_length() - p.bit_length()
        if p << j > q:
            j -= 1
        exponents.append(j)
    rounded = [Fraction(1, 1 << j) for j in exponents]
    m = max(exponents)
    grouped: dict[int, list[int]] = {}
    for site, j in enumerate(exponents):
        grouped.setdefault(j, []).append(site)
    classes = tuple((j, tuple(grouped[j])) for j in sorted(grouped))
    return WeightClasses(m=m, classes=classes, scale=scale), rounded


def weight_classes(instance: Instance) -> WeightClasses:
    """round_weights_dyadic's classes, kept in the instance's memo so a
    solve rounds its weights once."""
    classes = instance._memo.get("dyadic")
    if classes is None:
        classes = instance._memo.setdefault("dyadic", round_weights_dyadic(instance)[0])
    return classes


def load_instance(data: bytes | str) -> Instance:
    """Parse and validate an instance document.

    Format: {"kind": "general"|"line",
             "metric": {"type": "matrix"|"euclidean"|"line", "data": ...},
             "weights": [...], "names": [...optional...]}
    Matrix data is row-major n x n; line data is n reals; euclidean data
    is n arrays of d reals.  Numbers may be given as decimal strings;
    each distinct string is parsed once per document.
    """
    try:
        doc = json.loads(data)
    except ValueError as exc:  # also bad UTF-8 and over-long integer literals
        raise InstanceError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    parsed: dict[str, Fraction] = {}

    def number(x) -> Fraction:
        # a text that fails is never stored, so it raises where it first
        # occurs; other JSON values keep their own to_fraction paths
        if not isinstance(x, str):
            return to_fraction(x)
        f = parsed.get(x)
        if f is None:
            f = parsed[x] = to_fraction(x)
        return f

    try:
        kind = doc.get("kind", "general")
        metric_doc = doc["metric"]
        mtype = metric_doc["type"]
        payload = metric_doc["data"]
        if mtype == "line":
            fields = {"coords": tuple(number(x) for x in payload)}
        elif mtype == "matrix":
            fields = {"matrix": tuple(tuple(number(x) for x in row) for row in payload)}
        elif mtype == "euclidean":
            fields = {"points": _points(payload)}
        else:
            raise InstanceError(f"unknown metric type: {mtype}")
        weights = tuple(number(w) for w in doc["weights"])
        names = tuple(str(x) for x in doc["names"]) if "names" in doc else None
    except InstanceError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InstanceError(f"malformed instance: {exc}") from exc
    return Instance(metric=Metric(mtype, **fields), weights=weights, kind=kind, names=names)


def dump_instance(instance: Instance) -> str:
    """Serialize an instance to the JSON format accepted by load_instance."""
    m = instance.metric
    if m.variant == "line":
        data = [format_fraction(c) for c in m.coords]
    elif m.variant == "matrix":
        data = [[format_fraction(x) for x in row] for row in m.matrix]
    else:
        data = [list(p) for p in m.points]
    doc = {
        "kind": instance.kind,
        "metric": {"type": m.variant, "data": data},
        "weights": [format_fraction(w) for w in instance.weights],
    }
    if instance.names is not None:
        doc["names"] = list(instance.names)
    return json.dumps(doc, indent=2, sort_keys=True)


def line_instance(coords: Sequence, weights: Sequence) -> Instance:
    """Convenience constructor for 1D instances."""
    return Instance(
        metric=Metric("line", coords=tuple(to_fraction(c) for c in coords)),
        weights=tuple(to_fraction(w) for w in weights),
        kind="line",
    )


def matrix_instance(matrix: Sequence[Sequence], weights: Sequence) -> Instance:
    metric = Metric(
        "matrix", matrix=tuple(tuple(to_fraction(x) for x in row) for row in matrix)
    )
    return Instance(metric=metric, weights=tuple(to_fraction(w) for w in weights))


def _points(points: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], ...]:
    """Euclidean points as floats; booleans are not numbers, as in to_fraction."""
    if any(isinstance(c, bool) for p in points for c in p):
        raise InstanceError("euclidean coordinates must be numbers, not booleans")
    return tuple(tuple(float(c) for c in p) for p in points)


def euclidean_instance(points: Sequence[Sequence[float]], weights: Sequence) -> Instance:
    metric = Metric("euclidean", points=_points(points))
    return Instance(metric=metric, weights=tuple(to_fraction(w) for w in weights))
