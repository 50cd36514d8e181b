"""Exact rational parsing, formatting, the one exact-to-integer scaling
rule (on_common_denominator), and the one bisection for the smallest
integer a monotone test accepts.

All times and 1D coordinates in this package are `fractions.Fraction`
values so that visit times, periods and latencies come out exact on
instances given with decimal data.  Euclidean distances are IEEE
doubles converted like any float, through their shortest decimal repr:
a distance computed as the double nearest 0.1 becomes exactly 1/10,
not that double's exact binary value.

Numbers are read and written on integers.  A plain ASCII decimal
[-+]digits[.digits][e[-+]digits] (every float repr and every number
format_fraction writes) is read as its integer digits times a power of
ten; any other text goes to Fraction(text), so each Python version keeps
its own rules and error messages for those.  A decimal is written by
scaling the numerator to the denominator's power of ten (format_ratio
takes the two ints of a ratio already in lowest terms), and a number
past int()'s digit limit or the double range raises ResourceLimitError.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isfinite, lcm, log2
from typing import Callable, Iterable, Optional, Union

from .errors import ResourceLimitError

Real = Union[int, float, str, Fraction]

_LOG2_5 = log2(5)


def to_fraction(value: Real) -> Fraction:
    """Convert a JSON-ish number to an exact Fraction.

    Accepted forms: int, Fraction, decimal strings ("2.5"), rational
    strings ("5/2") and floats (converted via their shortest decimal
    repr, so a JSON literal 2.5 parses to exactly 5/2).  A decimal
    exponent may not exceed sys.int_info.default_max_str_digits in
    magnitude, the digit limit int() already puts on strings: "1e10000000"
    would otherwise take seconds to expand.  That check comes first; a
    plain ASCII decimal is then read on integers, with its whole and
    fractional digits converted separately as Fraction(text) does, and
    every other string (inner spaces, "_", "E", non-ASCII digits, ...)
    is Fraction(text)'s to accept or reject.
    """
    # strings first: a Fraction check on anything else goes through ABCMeta
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Fraction(int(num), int(den))
        _, e, exponent = text.lower().partition("e")
        if e and abs(int(exponent)) > sys.int_info.default_max_str_digits:
            raise ValueError(f"exponent out of range: {value!r}")
        f = _plain_decimal(text)
        return Fraction(text) if f is None else f
    if isinstance(value, float):
        return float_to_fraction(value)
    if isinstance(value, bool):
        raise ValueError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise ValueError(f"not a number: {value!r}")


def float_to_fraction(value: float) -> Fraction:
    """A float as the exact value of its shortest repr ("0.1" -> 1/10).
    inf, nan and float subclasses go to Fraction(repr(value))."""
    text = repr(value)
    if type(value) is not float or not isfinite(value):
        return Fraction(text)
    mantissa, _, exponent = text.partition("e")
    whole, _, frac = mantissa.partition(".")
    # [-]digits[.digits][e[-+]digits] with at most 17 significant digits,
    # so one int() over whole + frac is far inside int()'s digit limit
    return _times_ten(int(whole + frac), int(exponent or 0) - len(frac))


def _plain_decimal(text: str) -> Optional[Fraction]:
    """[-+]digits[.digits][e[-+]digits] in ASCII, with a digit before or
    after the dot, as num * 10**shift; None for any other text."""
    if not text.isascii():
        return None
    mantissa, e, exponent = text.partition("e")
    whole, _, frac = mantissa.partition(".")
    sign = whole[:1]
    if sign == "-" or sign == "+":
        whole = whole[1:]
    if not (whole + frac).isdigit():  # also rejects "." and ""
        return None
    if e and not (exponent[1:] if exponent[:1] in ("-", "+") else exponent).isdigit():
        return None
    num = int(whole or "0") * 10 ** len(frac) + int(frac or "0")
    if sign == "-":
        num = -num
    return _times_ten(num, (int(exponent) if e else 0) - len(frac))


def _times_ten(num: int, shift: int) -> Fraction:
    return Fraction(num * 10**shift) if shift >= 0 else Fraction(num, 10**-shift)


def format_fraction(value: Real) -> str:
    """Render a Fraction exactly: a decimal string when the denominator
    is of the form 2^a*5^b, otherwise "p/q"."""
    f = value if type(value) is Fraction else to_fraction(value)
    return format_ratio(f.numerator, f.denominator)


def format_ratio(num: int, den: int) -> str:
    """format_fraction of num/den, given in lowest terms with den > 0."""
    try:
        if den == 1:
            return str(num)
        twos = (den & -den).bit_length() - 1
        odd = den >> twos
        # 5^b has floor(b*log2(5)) + 1 bits, so b is the floor of bits/log2(5)
        fives = int(odd.bit_length() / _LOG2_5)
        if 5**fives != odd:
            return f"{num}/{den}"
        # num / den = num * 5^(shift-fives) * 2^(shift-twos) / 10^shift, and
        # the last of its shift decimals is not 0: num is prime to den
        shift = max(twos, fives)
        digits = str(abs(num) * (5 ** (shift - fives) << (shift - twos))).rjust(shift + 1, "0")
    except ValueError:  # only str(int) raises it: past the digit limit
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"a number over {limit} digits cannot be written") from None
    return f"{'-' if num < 0 else ''}{digits[:-shift]}.{digits[-shift:]}"


def to_float(value: Fraction) -> float:
    """float(value), or ResourceLimitError past the double range."""
    try:
        return float(value)
    except OverflowError:
        raise ResourceLimitError("a number past the double range cannot be written") from None


def on_common_denominator(values: Iterable[Union[int, Fraction]]) -> tuple[int, list[int]]:
    """(M, ints): M the lcm of the values' distinct denominators (1 for no
    values) and each value times M, an int, in input order.  Each value,
    an int or a Fraction, is read once, through as_integer_ratio."""
    pairs = [v.as_integer_ratio() for v in values]
    M = lcm(*{den for _, den in pairs})
    return M, [num * (M // den) for num, den in pairs]


def smallest_accepted(lo: int, hi: int, probe: Callable) -> tuple:
    """(i, probe(i)) for the smallest i in [lo, hi] that a monotone probe
    accepts, by bisection at (lo + hi) // 2.  Any result but None accepts.
    hi is assumed accepted and probed only when every other probe rejects,
    so at most ceil(log2(hi - lo + 1)) + 1 probes run."""
    best = None
    while lo < hi:
        mid = (lo + hi) // 2
        got = probe(mid)
        if got is None:
            lo = mid + 1
        else:
            hi, best = mid, got
    return hi, probe(hi) if best is None else best
