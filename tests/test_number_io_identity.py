"""patrol.rationals reads and writes numbers on integers; these tests pin
it to frozen copies of the Fraction(str) reader and the division-loop
writer it replaced, and to Fraction(text) on the running interpreter:
the same Fraction or the same exception type and message, input by
input.  format_ratio, the writer on the two ints of a ratio in lowest
terms, is pinned to format_fraction of the same Fraction, with and
without a table of decimal scales shared across writes, as the batch
writers keep one for each call."""

import json
import math
import random
import struct
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patrol.errors import ResourceLimitError
from patrol.instance import Metric, dump_instance, line_instance, matrix_instance
from patrol.rationals import (
    decimal_scale,
    float_to_fraction,
    format_fraction,
    format_ratio,
    to_fraction,
)

LIMIT = sys.int_info.default_max_str_digits


def frozen_to_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError(f"exponent out of range: {value!r}")
        return Fraction(text)
    raise ValueError(f"not a number: {value!r}")


def frozen_format_fraction(value):
    f = frozen_to_fraction(value)
    den = f.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{f.numerator}/{f.denominator}"
    shift = max(twos, fives)
    scaled = f.numerator * 10**shift // f.denominator
    if shift == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def outcome(fn, value):
    """("ok", result, its type) or (exception type, message)."""
    try:
        result = fn(value)
    except Exception as exc:  # the exception itself is what is compared
        return type(exc), str(exc)
    return "ok", result, type(result)


def random_floats(rng, count):
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
           1e-308, 1.7976931348623157e308, 2.0**53, 2.0**53 + 2, 1e16, 1e22, 0.1, 1e-5]
    while len(out) < count:
        pick = rng.randrange(5)
        if pick == 0:  # any bit pattern: subnormals, huge, tiny, inf and nan
            out.append(struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0])
        elif pick == 1:
            out.append(math.ldexp(rng.random(), rng.randint(-1075, 1024)) * rng.choice((1, -1)))
        elif pick == 2:  # integers at and past 2**53
            out.append(float(rng.randrange(2**53, 2**70)) * rng.choice((1, -1)))
        elif pick == 3:
            a = [rng.uniform(-1000, 1000) for _ in range(rng.randint(1, 3))]
            b = [rng.uniform(-1000, 1000) for _ in a]
            out.append(math.dist(a, b))
        else:
            out.append(rng.uniform(-10, 10) * 10.0 ** rng.randint(-20, 20))
    return out


def test_floats_read_and_write_as_before():
    rng = random.Random(12)
    floats = random_floats(rng, 100_000) + [math.inf, -math.inf, math.nan]
    for x in floats:
        got = outcome(to_fraction, x)
        assert got == outcome(frozen_to_fraction, x), x  # that is, Fraction(repr(x))
        if got[0] == "ok":
            assert outcome(to_fraction, repr(x)) == got
            assert format_fraction(got[1]) == frozen_format_fraction(got[1]), x


def test_float_subclass_reads_through_its_repr():
    class Tagged(float):
        def __repr__(self):
            return f"Tagged({float(self)!r})"

    assert outcome(to_fraction, Tagged(2.5)) == outcome(frozen_to_fraction, Tagged(2.5))
    assert outcome(float_to_fraction, Tagged(2.5)) == outcome(Fraction, "Tagged(2.5)")


def test_metric_distance_reads_the_dist_repr():
    rng = random.Random(3)
    points = tuple((rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(30))
    metric = Metric("euclidean", points=points)
    for i in range(30):
        for j in range(30):
            assert metric.distance(i, j) == Fraction(repr(math.dist(points[i], points[j])))


def decimal_strings(rng):
    """Every form Fraction(str) accepts, and near misses it rejects."""
    out = ["0", "-0", "+0", "-0.0", "5.", ".5", "-.5", "+.5e-3", "+5.e3", "007.50",
           " 2.5 ", "\t-1.25\n", "1e5", "1e+05", "1e-05", "1E5", "2.5E-3", "1_000.5",
           "1_000", "1.2_5", "1__0", "5/2", " -10 / 4 ", "3/0", "1/-3", "1.5/2",
           "--1", "+-1", "1e", "e5", ".", "-", "+", ".e5", "1.2.3", "1e5e3", "1 e5", "1e 5", "1e+ 5",
           "1 000", "0x10", "nan", "inf", "-inf", "١٢", "١٢.٥", "²", "1.٥", "",
           " ", "1e1_0", "1e+", "1e-", "1.5e+-3", " 5", "5 ",
           "1" * 3000 + "." + "2" * 3000, "-" + "9" * 4300 + "." + "9" * 4300,
           "1" * (LIMIT + 1), "0." + "3" * (LIMIT + 1), "1" * (LIMIT + 1) + ".5",
           f"1e{LIMIT}", f"-2.5e-{LIMIT}", f"1e{LIMIT + 1}", f"1e-{LIMIT + 1}",
           "1E+10000000", "1e1_000_000", "1e" + "1" * (LIMIT + 1)]
    for _ in range(3000):
        whole = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 25)))
        frac = "".join(rng.choice("0123456789") for _ in range(rng.randint(0, 25)))
        text = rng.choice(("", "-", "+")) + whole
        if frac or rng.random() < 0.3:
            text += "." + frac
        if rng.random() < 0.5:
            text += rng.choice("eE") + rng.choice(("", "-", "+")) + str(rng.randint(0, 400))
        out.append(text)
    return out


def test_strings_read_as_before():
    for text in decimal_strings(random.Random(8)):
        got = outcome(to_fraction, text)
        assert got == outcome(frozen_to_fraction, text), text
        # the frozen reader hands everything but "p/q" to Fraction once the
        # exponent passes its range check
        _, e, exponent = text.strip().lower().partition("e")
        if "/" not in text and (not e or outcome(int, exponent)[0] == "ok"):
            if not e or abs(int(exponent)) <= LIMIT:
                assert got == outcome(Fraction, text.strip()), text


def test_rejected_inputs_raise_as_before():
    for value in ("--1", "1e", ".", "١٢x", True, False, None, [1], 1j, b"1",
                  f"1e{LIMIT + 1}", "1e99999999999", "3/0", "nan", math.nan, math.inf):
        got = outcome(to_fraction, value)
        assert got[0] != "ok", value
        assert got == outcome(frozen_to_fraction, value), value
        assert outcome(format_fraction, value) == outcome(frozen_format_fraction, value)


def test_other_types_read_as_before():
    for value in (0, -7, 10**40, Fraction(-3, 8), Fraction(10**30, 7)):
        assert outcome(to_fraction, value) == outcome(frozen_to_fraction, value)
        assert format_fraction(value) == frozen_format_fraction(value)


def test_format_round_trip_over_denominators():
    rng = random.Random(4)
    dens = [2**a * 5**b for a in range(0, 70, 3) for b in range(0, 70, 4)]
    dens += [3, 6, 7, 12, 15, 2**10 * 3, 5**9 * 7, 2**31 - 1, 10**20 + 1, 5**2000, 2**3000]
    dens += [5**b for b in range(1, 400)] + [2 * 5**b for b in range(1, 400, 7)]
    for den in dens:
        for num in (1, -1, 3, -7, den - 1, den + 1, rng.randrange(1, 10**25), -(10**30) - 3):
            value = Fraction(num, den)
            text = format_fraction(value)
            assert text == frozen_format_fraction(value), value
            assert to_fraction(text) == value
    # the writer finds b from the bit length of 5^b; 1/5^b has b decimals
    for b in range(400, 14_000, 97):
        assert format_fraction(Fraction(-1, 5**b)) == "-0." + str(2**b).rjust(b, "0")


# denominators 2^a * 5^b (decimals) and any other positive int ("p/q")
decimal_dens = st.builds(lambda a, b: 2**a * 5**b, st.integers(0, 80), st.integers(0, 80))
ratio_dens = st.one_of(decimal_dens, st.integers(1, 10**30), decimal_dens.map(lambda d: 3 * d))
SHARED_SCALES: dict = {}  # one table of decimal scales for every example


@given(st.integers(-(10**40), 10**40), ratio_dens)
@example(0, 1)
@example(0, 7)
@example(-1, 1)
@example(-3, 8)
@example(7, 10**20)
@example(-22, 7)
@example(5, 2**200)
def test_format_ratio_is_format_fraction_on_lowest_terms(num, den):
    value = Fraction(num, den)
    num, den = value.numerator, value.denominator
    assert format_ratio(num, den) == format_fraction(value) == frozen_format_fraction(value)
    # most examples meet a den that an earlier one put in the shared table
    want = frozen_format_fraction(value)
    assert format_ratio(num, den, SHARED_SCALES) == format_fraction(value, SHARED_SCALES) == want
    assert den == 1 or SHARED_SCALES[den] == decimal_scale(den)


def test_a_shared_scale_table_writes_the_same_texts():
    scales = {}
    ratios = [(1, 8), (3, 8), (-5, 8), (9, 20), (7, 1), (-7, 1), (0, 1), (-9, 20), (1, 3),
              (-2, 3), (1, 3), (5, 2**200), (-1, 5**90), (3, 5**90 * 7), (10**40 + 1, 2**70)]
    for num, den in ratios * 2:
        want = frozen_format_fraction(Fraction(num, den))
        assert format_ratio(num, den, scales) == want, (num, den)
        assert format_fraction(Fraction(num, den), scales) == want, (num, den)
    assert scales == {den: decimal_scale(den) for _, den in ratios if den != 1}
    for den, scale in scales.items():
        # 2^a * 5^b divides 10^max(a, b), and max(a, b) < den.bit_length()
        if 10 ** den.bit_length() % den:
            assert scale is None, den
        else:  # den * factor is the least power of ten den divides
            shift, factor = scale
            assert den * factor == 10**shift and (shift == 0 or 10 ** (shift - 1) % den), den


def test_format_ratio_past_the_digit_limit_raises_like_format_fraction():
    digits = sys.get_int_max_str_digits()
    scales = {}
    for value in (Fraction(10**digits), Fraction(-(10**digits) - 1, 2),
                  Fraction(1, 2**(3 * digits)), Fraction(10**digits + 1, 3),
                  Fraction(-(10**digits) - 3, 2), Fraction(10**digits + 1, 9)):
        for write in (lambda: format_fraction(value),
                      lambda: format_ratio(value.numerator, value.denominator),
                      lambda: format_fraction(value, scales),
                      lambda: format_ratio(value.numerator, value.denominator, scales)):
            with pytest.raises(ResourceLimitError, match=f"over {digits} digits"):
                write()


def test_dump_instance_writes_json_dumps_of_the_number_texts():
    """dump_instance keeps one table of decimal scales for its call; its
    bytes are json.dumps of each number's own text."""
    rng = random.Random(37)
    tiny = Fraction(1, 10**4000)
    values = [Fraction(rng.randint(-10**6, 10**6), rng.choice((1, 3, 7, 8, 20, 125, 10**9)))
              for _ in range(400)] + [tiny, -tiny, 1 + tiny, Fraction(-22, 7), Fraction(0)] * 20
    for trial in range(30):
        n = rng.randint(1, 7)
        weights = [abs(rng.choice(values)) or tiny for _ in range(n)]
        if trial % 2:
            coords = [rng.choice(values) for _ in range(n)]
            instance, data = line_instance(coords, weights), coords
        else:  # off-diagonal entries in [1, 2] keep the triangle inequality
            upper = {(i, j): 1 + abs(rng.choice(values)) % 1 for i in range(n) for j in range(i + 1, n)}
            data = [[0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
            instance = matrix_instance(data, weights)
        texts = ([frozen_format_fraction(c) for c in data] if trial % 2
                 else [[frozen_format_fraction(x) for x in row] for row in data])
        doc = {"kind": instance.kind, "metric": {"type": instance.metric.variant, "data": texts},
               "weights": [frozen_format_fraction(w) for w in weights]}
        assert dump_instance(instance) == json.dumps(doc, indent=2, sort_keys=True), trial
