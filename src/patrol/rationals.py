"""Exact rational parsing, formatting, period arithmetic, and the one
bisection for the smallest integer a monotone test accepts.

All times and 1D coordinates in this package are `fractions.Fraction`
values so that visit times, periods and latencies come out exact on
instances given with decimal data.  Euclidean distances are IEEE
doubles converted like any float, through their shortest decimal repr:
a distance computed as the double nearest 0.1 becomes exactly 1/10,
not that double's exact binary value.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Callable, Iterable, Union

Real = Union[int, float, str, Fraction]


def to_fraction(value: Real) -> Fraction:
    """Convert a JSON-ish number to an exact Fraction.

    Accepted forms: int, Fraction, decimal strings ("2.5"), rational
    strings ("5/2") and floats (converted via their shortest decimal
    repr, so a JSON literal 2.5 parses to exactly 5/2).  A decimal
    exponent may not exceed sys.int_info.default_max_str_digits in
    magnitude, the digit limit int() already puts on strings: "1e10000000"
    would otherwise take seconds to expand.
    """
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


def format_fraction(value: Real) -> str:
    """Render a Fraction exactly: a decimal string when the denominator
    is of the form 2^a*5^b, otherwise "p/q"."""
    f = to_fraction(value)
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


def lcm_fractions(values: Iterable[Fraction]) -> Fraction:
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
