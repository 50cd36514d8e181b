import json
import math
import random
import time
from fractions import Fraction

import pytest

from patrol import instance as instance_mod
from patrol.errors import InstanceError
from patrol.instance import (
    Metric,
    dump_instance,
    euclidean_instance,
    line_instance,
    load_instance,
    round_weights_dyadic,
)
from patrol.rationals import to_fraction
from conftest import random_euclidean_instance, random_line_instance


def doc(metric_type, data, weights, kind="general", **extra):
    body = {"kind": kind, "metric": {"type": metric_type, "data": data}, "weights": weights}
    body.update(extra)
    return json.dumps(body)


def test_load_line_instance():
    inst = load_instance(doc("line", [0, 3, 4, 7], [1, 4, 4, 1], kind="line"))
    assert inst.kind == "line"
    assert inst.n == 4
    assert inst.metric.distance(0, 3) == 7
    assert inst.weights == (1, 4, 4, 1)


def test_load_single_site():
    inst = load_instance(doc("line", [5], [1], kind="line"))
    assert inst.n == 1


def test_metric_without_sites_rejected_when_built():
    """A Metric validates itself, so no constructor builds a 0-site one."""
    for build in (lambda: line_instance([], []), lambda: Metric("line", coords=())):
        with pytest.raises(InstanceError, match="at least one site"):
            build()


def test_metric_variant_and_its_data_checked_first():
    """An unknown variant is not measured as Euclidean, and a known one
    without its data field is an InstanceError, not a TypeError."""
    with pytest.raises(InstanceError, match="unknown metric type: bogus"):
        Metric("bogus", points=((0.0,), (3.0,)))
    for variant, data in (("line", "coords"), ("matrix", "matrix"), ("euclidean", "points")):
        with pytest.raises(InstanceError, match=f"a {variant} metric needs its {data}"):
            Metric(variant)
    with pytest.raises(InstanceError, match="needs its coords"):
        Metric("line", points=((0.0,), (3.0,)))


def test_load_asymmetric_matrix_rejected():
    with pytest.raises(InstanceError, match="asymmetric"):
        load_instance(doc("matrix", [[0, 1], [2, 0]], [1, 1]))


def test_load_triangle_violation_rejected():
    m = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    with pytest.raises(InstanceError, match="triangle"):
        load_instance(doc("matrix", m, [1, 1, 1]))


def test_load_nonpositive_weight_rejected():
    with pytest.raises(InstanceError):
        load_instance(doc("line", [0, 1], [1, 0], kind="line"))


def test_load_parse_error():
    with pytest.raises(InstanceError, match="JSON"):
        load_instance(b"{not json")


def test_load_decimal_strings_exact():
    inst = load_instance(doc("line", ["0.1", "0.3"], ["2.5", 1], kind="line"))
    assert inst.metric.coords == (Fraction(1, 10), Fraction(3, 10))
    assert inst.weights[0] == Fraction(5, 2)


def test_each_distinct_number_text_is_parsed_once(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return to_fraction(value)

    monkeypatch.setattr(instance_mod, "to_fraction", counted)
    inst = load_instance(doc("line", ["0", "1.5", 3, "1.5", "0"], ["1"] * 4 + [2], kind="line"))
    assert inst.metric.coords == (0, Fraction(3, 2), 3, Fraction(3, 2), 0)
    assert inst.weights == (1, 1, 1, 1, 2)
    assert sorted(calls, key=repr) == sorted(["0", "1.5", 3, "1", 2], key=repr)
    calls.clear()
    load_instance(doc("matrix", [["0", "1/2"], ["1/2", "0"]], ["1/2", "1/2"]))
    assert calls.count("0") == calls.count("1/2") == 1


def test_repeated_invalid_number_text_fails_as_at_its_first_occurrence():
    for text in ("abc", "1/0", "--1", "1e", "١٢x"):
        try:
            to_fraction(text)
        except (ValueError, ArithmeticError) as exc:
            want = f"malformed instance: {exc}"
        for body in (doc("line", [0, text, text], [1, 1, 1], kind="line"),
                     doc("line", [0, 1, 2], [text] * 3, kind="line"),
                     doc("matrix", [["0", text], [text, "0"]], [1, 1])):
            with pytest.raises(InstanceError) as raised:
                load_instance(body)
            assert str(raised.value) == want, body


def test_number_spellings_keep_their_own_paths():
    inst = load_instance(doc("line", [0, 1, 2, 3], ["1", 1, 1.0, "1.0"], kind="line"))
    assert inst.weights == (1, 1, 1, 1)
    assert all(type(w) is Fraction for w in inst.weights)
    for weights in ([True, True], ["1", True], [1, None]):
        with pytest.raises(InstanceError, match="not a number"):
            load_instance(doc("line", [0, 1], weights, kind="line"))


def test_repeated_huge_exponent_fails_at_once():
    started = time.perf_counter()
    with pytest.raises(InstanceError, match="exponent out of range"):
        load_instance(doc("line", list(range(800)), ["1e10000000"] * 800, kind="line"))
    with pytest.raises(InstanceError, match="exponent out of range"):
        load_instance(doc("line", ["1e10000000"] * 800, [1] * 800, kind="line"))
    assert time.perf_counter() - started < 0.5


def test_dump_load_round_trip():
    rng = random.Random(7)
    for build in (random_line_instance, random_euclidean_instance):
        inst = build(rng, 5)
        again = load_instance(dump_instance(inst))
        assert again.weights == inst.weights
        assert again.kind == inst.kind
        for i in range(5):
            for j in range(5):
                assert abs(again.metric.distance(i, j) - inst.metric.distance(i, j)) == 0


def test_line_kind_requires_line_metric():
    with pytest.raises(InstanceError):
        load_instance(doc("matrix", [[0, 1], [1, 0]], [1, 1], kind="line"))


def test_sorted_line_order_with_ties():
    inst = line_instance([5, 0, 5, 2], [1, 1, 1, 1])
    assert inst.sorted_line_order() == [1, 3, 0, 2]  # ties keep index order
    with pytest.raises(InstanceError):
        load_instance(doc("matrix", [[0, 1], [1, 0]], [1, 1])).sorted_line_order()


# --- dyadic rounding --------------------------------------------------------


def test_rounding_example_mixed():
    inst = line_instance([0, 1, 2], ["0.9", "0.3", "0.24"])
    classes, rounded = round_weights_dyadic(inst)
    assert rounded == [Fraction(1), Fraction(1, 2), Fraction(1, 2)]
    assert classes.m == 1
    assert classes.classes == ((0, (0,)), (1, (1, 2)))
    assert classes.scale == Fraction(9, 10)


def test_rounding_uniform_weights():
    inst = line_instance([0, 1, 2], [3, 3, 3])
    classes, rounded = round_weights_dyadic(inst)
    assert classes.m == 0
    assert rounded == [1, 1, 1]


def test_rounding_already_dyadic_with_empty_class():
    inst = line_instance([0, 1], [1, "0.25"])
    classes, rounded = round_weights_dyadic(inst)
    assert rounded == [Fraction(1), Fraction(1, 4)]
    assert classes.m == 2
    assert [j for j, _ in classes.classes] == [0, 2]  # class 1 is empty and absent


def test_rounding_bounds_and_partition():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 12)
        weights = [Fraction(rng.randint(1, 1000), rng.randint(1, 100)) for _ in range(n)]
        inst = line_instance(sorted(Fraction(i) for i in range(n)), weights)
        classes, rounded = round_weights_dyadic(inst)
        scale = classes.scale
        seen = []
        for w, w2 in zip(inst.weights, rounded):
            scaled = w / scale
            assert scaled <= w2 < 2 * scaled
        for j, members in classes.classes:
            assert members  # listed classes are non-empty
            for s in members:
                assert rounded[s] == Fraction(1, 2**j)
            seen.extend(members)
        assert sorted(seen) == list(range(n))
        assert max(rounded) == 1


def test_rounding_idempotent():
    inst = line_instance([0, 1, 2], [1, "0.5", "0.125"])
    _, rounded = round_weights_dyadic(inst)
    again_inst = line_instance([0, 1, 2], rounded)
    _, rounded2 = round_weights_dyadic(again_inst)
    assert rounded2 == rounded


def reference_exponent(scaled):
    """The original rounding: the first j with 1/2^(j+1) below scaled."""
    j = 0
    while Fraction(1, 2 ** (j + 1)) >= scaled:
        j += 1
    return j


def test_rounding_matches_the_halving_loop():
    """Random weights and every exact power of two with its neighbours
    round to the exponents of the original halving loop."""
    rng = random.Random(41)
    weights = [Fraction(rng.randint(1, 2 ** rng.randint(1, 60)),
                        rng.randint(1, 2 ** rng.randint(1, 60))) for _ in range(10000)]
    weights += [Fraction(1, 2**j) + d for j in range(80)
                for d in (0, Fraction(1, 2**90), -Fraction(1, 2**90))]
    weights += [Fraction(2**j) for j in range(80)]
    for chunk in range(0, len(weights), 500):
        group = weights[chunk:chunk + 500]
        classes, rounded = round_weights_dyadic(line_instance(range(len(group)), group))
        scale = max(group)
        want = [reference_exponent(w / scale) for w in group]
        assert rounded == [Fraction(1, 2**j) for j in want]
        assert classes.m == max(want)


def test_rounding_tiny_weights_is_fast():
    """1e-4000 is 13,287 halvings below 1; the halving loop took 0.3 s per
    site to count them."""
    inst = load_instance(doc("line", list(range(100)), [1] + ["1e-4000"] * 99, kind="line"))
    started = time.perf_counter()
    classes, rounded = round_weights_dyadic(inst)
    assert time.perf_counter() - started < 1
    assert classes.m == 13287 and rounded[1] == Fraction(1, 2**13287)



@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "nan", "-inf"])
def test_nonfinite_euclidean_coordinates_rejected(bad):
    with pytest.raises(InstanceError, match="finite"):
        load_instance(doc("euclidean", [[0, 0], [1, bad]], [1, 1]))
    with pytest.raises(InstanceError, match="finite"):
        euclidean_instance([(0, 0), (1, float(bad))], [1, 1])


def test_euclidean_points_must_share_dimension():
    with pytest.raises(InstanceError, match="dimension"):
        load_instance(doc("euclidean", [[0, 0], [1, 2, 3]], [1, 1]))
    with pytest.raises(InstanceError, match="dimension"):
        euclidean_instance([(0, 0), (1,)], [1, 1])


def test_boolean_euclidean_coordinates_rejected():
    with pytest.raises(InstanceError, match="booleans"):
        load_instance(doc("euclidean", [[True, 0], [0, 1]], [1, 1]))
    with pytest.raises(InstanceError, match="booleans"):
        euclidean_instance([(0, False), (0, 1)], [1, 1])
