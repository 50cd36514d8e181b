"""Fuzz the instance loader and a small solve behind it.

Random JSON-shaped instance documents (line, matrix and Euclidean
metrics of any shape, numbers as JSON numbers, decimal and rational
strings, and stray JSON values in every slot) go through load_instance,
Metric.validate and a one-robot solve, as `patrol solve` runs them.
Every failure must be a PatrolError, which the CLI maps to an exit code
with one message line; anything else would reach the user as a
traceback.

Valid weights stay within a ratio of about 50: the weighted line
solver's candidate list grows in proportion to the weight ratio, which
is a cost, not an input error.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patrol.cli import run_solver
from patrol.errors import PatrolError
from patrol.instance import load_instance

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["type", "data", "kind", "weights"]), inner, max_size=3),
    max_leaves=6,
)
bad_numbers = st.one_of(
    st.sampled_from(["1/0", "0/0", "1e99999", "-1e99999", "1e-99999", "1e", "x", "", "NaN",
                     "Infinity", "-1", "0", 10**400]),
    st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    json_values,
)
good_numbers = st.one_of(
    st.integers(1, 9),
    st.fractions(min_value=1, max_value=9, max_denominator=6).map(str),
    st.sampled_from(["2.5", "0.01", "1e1", "3/7", "7E-1"]),
)
coordinates = st.one_of(
    good_numbers,
    st.integers(-9, 0),
    st.floats(allow_nan=False, allow_infinity=False),  # huge ones included
)


def mangled(good, bad, junk):
    """`good`, or with junk `bad` about one draw in four."""
    return st.one_of(good, good, good, bad) if junk else good


@st.composite
def documents(draw, junk):
    n = draw(st.integers(0 if junk else 1, 4))
    number = mangled(coordinates, bad_numbers, junk)
    mtype = draw(st.sampled_from(["line", "matrix", "euclidean"]))
    if mtype == "line":
        data = [draw(number) for _ in range(n)]
    elif mtype == "euclidean":
        dim = draw(st.integers(0 if junk else 1, 3))
        data = [[draw(number) for _ in range(dim)] for _ in range(n)]
    else:  # distances of points on a line, so most matrices are metrics
        xs = [draw(st.integers(0, 9)) for _ in range(n)]
        data = [[draw(mangled(st.just(abs(a - b)), bad_numbers, junk)) for b in xs] for a in xs]
    data = draw(mangled(st.just(data), json_values, junk))
    weights = [draw(mangled(good_numbers, bad_numbers, junk)) for _ in range(n)]
    weights = draw(mangled(st.just(weights), json_values, junk))
    kind = "line" if mtype == "line" and draw(st.booleans()) else "general"
    doc = {"kind": draw(mangled(st.just(kind), json_values, junk)),
           "metric": draw(mangled(st.just({"type": mtype, "data": data}), json_values, junk)),
           "weights": weights}
    if draw(st.booleans()):
        doc["names"] = draw(mangled(st.just([f"s{i}" for i in range(n)]), json_values, junk))
    if junk and draw(st.integers(0, 5)) == 0:
        doc = draw(st.sampled_from([list(doc.values()), None, 3, "doc"]))
    return doc


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(documents(False), documents(True)))
@example({"metric": {"type": "line", "data": [0, "1/0"]}, "weights": [1, 1]})
@example({"metric": {"type": "line", "data": [0, "1e99999"]}, "weights": [1, 1]})
@example({"metric": {"type": "line", "data": [0, 1]}, "weights": [1, "1e-99999"]})
@example({"metric": {"type": "euclidean", "data": [[1e308, 0], [-1e308, 0]]}, "weights": [1, 1]})
@example({"metric": {"type": "euclidean", "data": [[10**400, 0]]}, "weights": [1]})
@example([{"type": "line", "data": [0]}])
def test_loader_and_solver_raise_only_patrol_errors(doc):
    text = json.dumps(doc)
    try:
        instance = load_instance(text)
        instance.metric.validate()
        run_solver(instance, "line-weighted" if instance.is_line() else "metric", 1)
    except PatrolError:
        pass
