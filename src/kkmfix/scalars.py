"""Scalar layer: exact Q(sqrt 2) numbers, class tags, text forms, pickers.

The arithmetic is the pure-Python kernel ``kkmfix._qcore_py``;
``KERNEL`` names it.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction

from kkmfix._qcore_py import SQRT2, QuadExt

KERNEL = "pure"

__all__ = [
    "KERNEL",
    "QuadExt",
    "SQRT2",
    "ClassTag",
    "as_scalar",
    "class_of",
    "dist",
    "format_scalar",
    "irrational_between",
    "parse_scalar",
    "simplest_rational_between",
]


class ClassTag(Enum):
    """Membership class of a scalar: rational or irrational."""

    RATIONAL = "rational"
    IRRATIONAL = "irrational"

    def __str__(self) -> str:
        return self.value


def as_scalar(x) -> QuadExt:
    """Coerce an int, Fraction, or QuadExt to QuadExt."""
    if isinstance(x, QuadExt):
        return x
    return QuadExt(x)


def class_of(x) -> ClassTag:
    return ClassTag.RATIONAL if as_scalar(x).is_rational else ClassTag.IRRATIONAL


def dist(x, y) -> QuadExt:
    """Absolute-value metric on the line."""
    return abs(as_scalar(x) - as_scalar(y))


_RAT = r"-?\d+(?:/\d+)?"
_URAT = r"\d+(?:/\d+)?"
_SCALAR_RE = re.compile(
    rf"(?:(?P<a>{_RAT})\s*(?P<op>[+-])\s*(?:(?P<bu>{_URAT})\s*\*\s*)?sqrt2"
    rf"|(?P<neg>-)?(?:(?P<bs>{_URAT})\s*\*\s*)?sqrt2"
    rf"|(?P<ra>{_RAT}))\s*$"
)


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_scalar(text: str) -> QuadExt:
    """Parse the textual scalar form.

    Accepted: ``p/q``, ``sqrt2``, ``r/s*sqrt2``, and ``p/q +- [r/s*]sqrt2``
    (integer numerals allowed anywhere a fraction is).
    """
    m = _SCALAR_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed scalar {text!r}")
    if m.group("a") is not None:
        a = _rat(m.group("a"))
        b = _rat(m.group("bu")) if m.group("bu") else Fraction(1)
        if m.group("op") == "-":
            b = -b
        return QuadExt(a, b)
    if m.group("ra") is not None:
        return QuadExt(_rat(m.group("ra")))
    b = _rat(m.group("bs")) if m.group("bs") else Fraction(1)
    if m.group("neg"):
        b = -b
    return QuadExt(0, b)


def format_scalar(x) -> str:
    """Canonical text for a scalar; parse_scalar inverts it."""
    return str(as_scalar(x))


def simplest_rational_between(lo, hi) -> Fraction:
    """Simplest rational in the open interval (lo, hi).

    Simplest: least denominator, ties broken toward 0 then toward the
    negative (Stern-Brocot order).  Endpoints may be irrational.
    """
    lo = as_scalar(lo)
    hi = as_scalar(hi)
    if not lo < hi:
        raise ValueError("empty interval")
    if lo.sign() < 0 and hi.sign() > 0:
        return Fraction(0)
    if lo.sign() >= 0:
        return _simplest_nonneg(lo, hi)
    return -_simplest_nonneg(-hi, -lo)


def _simplest_nonneg(lo: QuadExt, hi: QuadExt) -> Fraction:
    # 0 <= lo < hi, open interval.  The answer is f0 + 1/(f1 + 1/(... + 1/x))
    # with f0 = floor(lo) and f1, ... the floors of the reciprocal intervals;
    # a loop, since the expansion can outgrow Python's recursion limit.
    floors = []
    while True:
        f = lo.floor()
        if f + 1 < hi:
            x = Fraction(f + 1)
            break
        floors.append(f)
        lo, hi = lo - f, hi - f
        if not lo:
            x = Fraction((1 / hi).floor() + 1)
            break
        lo, hi = 1 / hi, 1 / lo
    for f in reversed(floors):
        x = f + 1 / x
    return x


def irrational_between(lo, hi) -> QuadExt:
    """An irrational point of (lo, hi): simplest rational plus a small
    dyadic multiple of sqrt 2."""
    lo = as_scalar(lo)
    hi = as_scalar(hi)
    q = simplest_rational_between(lo, hi)
    step = SQRT2 / 2
    while not q + step < hi:
        step = step / 2
    return q + step
