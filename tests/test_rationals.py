import sys
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from patrol.rationals import format_fraction, on_common_denominator, to_fraction


def lcm_fractions(values):
    """Least common multiple of positive rationals.

    lcm(p1/q1, p2/q2) = lcm(p1, p2) / gcd(q1, q2); this is the smallest
    positive rational that is an integer multiple of every input.
    """
    num = 1
    den = 0
    for v in values:
        f = Fraction(v)
        if f <= 0:
            raise ValueError("lcm requires positive values")
        num = num * f.numerator // gcd(num, f.numerator)
        den = gcd(den, f.denominator)
    if den == 0:
        raise ValueError("lcm of empty sequence")
    return Fraction(num, den)


def test_parse_forms():
    assert to_fraction("2.5") == Fraction(5, 2)
    assert to_fraction("5/2") == Fraction(5, 2)
    assert to_fraction(" -0.125 ") == Fraction(-1, 8)
    assert to_fraction(3) == 3
    assert to_fraction(2.5) == Fraction(5, 2)  # via repr, not binary expansion
    assert to_fraction(Fraction(7, 3)) == Fraction(7, 3)


def test_parse_rejects_non_numbers():
    with pytest.raises(ValueError):
        to_fraction(True)
    with pytest.raises(ValueError):
        to_fraction(None)


def test_format_decimal_when_possible():
    assert format_fraction(Fraction(5, 2)) == "2.5"
    assert format_fraction(Fraction(1, 8)) == "0.125"
    assert format_fraction(Fraction(3, 5)) == "0.6"
    assert format_fraction(Fraction(-7, 4)) == "-1.75"
    assert format_fraction(Fraction(12)) == "12"
    assert format_fraction(Fraction(0)) == "0"


def test_format_fraction_when_not_decimal():
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(-10, 7)) == "-10/7"


def test_round_trip():
    values = [Fraction(3, 7), Fraction(22, 10), Fraction(-9, 20), Fraction(10**12, 3)]
    for v in values:
        assert to_fraction(format_fraction(v)) == v


def test_lcm_fractions():
    assert lcm_fractions([Fraction(4), Fraction(6)]) == 12
    assert lcm_fractions([Fraction(1, 2), Fraction(1, 3)]) == 1
    assert lcm_fractions([Fraction(3, 2), Fraction(2)]) == 6
    with pytest.raises(ValueError):
        lcm_fractions([])
    with pytest.raises(ValueError):
        lcm_fractions([Fraction(0)])


def test_parse_bounds_decimal_exponent():
    limit = sys.int_info.default_max_str_digits
    assert to_fraction(f"1e{limit}") == 10**limit
    assert to_fraction(f"2.5E-{limit}") == Fraction(5, 2 * 10**limit)
    for text in (f"1e{limit + 1}", f"-1e-{limit + 1}", "1E+10000000", "1e1_000_000"):
        with pytest.raises(ValueError, match="exponent out of range"):
            to_fraction(text)


numbers = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
    st.builds(Fraction, st.integers(-(10**9), 10**9), st.sampled_from((2, 3, 5, 7, 11, 13, 97))),
)


@given(st.lists(numbers, max_size=12))
@example([])
@example([3, -4, 0])
@example([Fraction(-1, 2), Fraction(2, 3), Fraction(-4, 5), Fraction(6, 7), Fraction(1, 11)])
@example([Fraction(1, 6), Fraction(1, 6), Fraction(-5, 4), 7])
def test_on_common_denominator_is_the_lcm_scale(values):
    """M is the lcm of the values' denominators (1 for none), and each int
    over M is its value, in input order, with int inputs read as n/1."""
    M, ints = on_common_denominator(iter(values))
    assert M == lcm(*(Fraction(v).denominator for v in values))
    assert all(type(i) is int for i in ints)
    assert [Fraction(i, M) for i in ints] == [Fraction(v) for v in values]
