"""Scalar layer: exact Q(sqrt 2) numbers, class tags, text forms, pickers.

The arithmetic is the pure-Python kernel ``QuadExt``; ``KERNEL`` names
it.  A value is ``a + b*sqrt(2)`` with rational ``a``, ``b`` kept as
reduced integer pairs: ``(an, ad)`` and ``(bn, bd)`` with
``gcd(n, d) == 1`` and ``d > 0``, so zero is ``(0, 1)``.  This canonical
form makes equality a comparison of the four integers.  Every operation
is exact; comparisons never round.

Rational path: almost every value the deciders handle is rational
(``bn == 0``).  When both operands are, add, sub, mul, div, inverse,
``sign``, ``floor`` and the order comparisons work on ``an/ad`` alone:
one fraction operation and at most one ``gcd``, and comparisons
cross-multiply without building a difference; the four order
comparisons share one body, built once per ``operator`` function.
Operands with ``bn != 0`` take the general path, which computes each
component with the rational path's operations.  The operands select the
path, and both give the same canonical results.

``_fast`` and ``_rat`` are the trusted constructors and the only code
that writes the slots.  They write them through the cached slot
descriptors and check nothing, so every caller must pass reduced pairs
with positive denominators.  ``QuadExt(a, b)`` is the validating
constructor: it takes only ``int`` and ``Fraction`` components, which
are reduced already, stores a ``bool`` as the int it equals, and hands
the pairs to ``_fast``.  ``as_scalar`` is the one coercion, and
the operators apply it to their other operand.
"""

from __future__ import annotations

import operator
import re
import sys
from enum import Enum
from fractions import Fraction
from math import gcd, isqrt

KERNEL = "pure"

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _sign_pq(p: int, q: int) -> int:
    # sign of p + q*sqrt(2) for integers p, q
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: |p| vs |q|*sqrt2, squares never tie (sqrt2 irrational)
    lhs = p * p
    rhs = 2 * q * q
    assert lhs != rhs
    if lhs > rhs:
        return 1 if p > 0 else -1
    return 1 if q > 0 else -1


def _ratpair(x) -> tuple[int, int]:
    # an int or a Fraction as its pair, already reduced with d > 0
    if x.__class__ is int:
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):  # a bool, say: stored as the int it equals
        return int(x), 1
    raise TypeError(f"rational component required, got {type(x).__name__}")


def _order(op):
    # the one body of QuadExt's order comparisons, for op from ``operator``
    def compare(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        if self._bn or o._bn:
            return op(_cmp(self, o), 0)
        return op(self._an * o._ad, o._an * self._ad)

    compare.__name__ = f"__{op.__name__}__"
    return compare


class QuadExt:
    """Element a + b*sqrt(2) of Q(sqrt 2); immutable, hashable, ordered."""

    __slots__ = ("_an", "_ad", "_bn", "_bd")

    def __new__(cls, a=0, b=0):
        an, ad = _ratpair(a)
        bn, bd = _ratpair(b)
        return _fast(an, ad, bn, bd)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # components

    @property
    def a(self) -> Fraction:
        return Fraction(self._an, self._ad)

    @property
    def b(self) -> Fraction:
        return Fraction(self._bn, self._bd)

    @property
    def is_rational(self) -> bool:
        return self._bn == 0

    def sign(self) -> int:
        if not self._bn:
            an = self._an
            return (an > 0) - (an < 0)
        return _sign_pq(self._an * self._bd, self._bn * self._ad)

    def floor(self) -> int:
        if not self._bn:
            return self._an // self._ad
        p = self._an * self._bd
        q = self._bn * self._ad
        r = self._ad * self._bd
        if q >= 0:
            t = isqrt(2 * q * q)
        else:
            t = -isqrt(2 * q * q) - 1
        # t = floor(q*sqrt2) exactly, as 2q^2 is never a square, and
        # floor((n + theta)/r) = n // r for integer n and 0 <= theta < 1
        return (p + t) // r

    __floor__ = floor

    def __ceil__(self) -> int:
        return -(-self).floor()

    # arithmetic

    def __neg__(self) -> "QuadExt":
        return _fast(-self._an, self._ad, -self._bn, self._bd)

    def __pos__(self) -> "QuadExt":
        return self

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __add__(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        if self._bn or o._bn:
            return _add(self, o, 1)
        return _q_add(self._an, self._ad, o._an, o._ad)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        if self._bn or o._bn:
            return _add(self, o, -1)
        return _q_add(self._an, self._ad, -o._an, o._ad)

    def __rsub__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        if self._bn or o._bn:
            return _mul(self, o)
        return _q_mul(self._an, self._ad, o._an, o._ad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        if self._bn or o._bn:
            return _mul(self, _inverse(o))
        return _q_mul(self._an, self._ad, *_q_inv(o._an, o._ad))

    def __rtruediv__(self, other):
        o = _coerce(other)
        return NotImplemented if o is None else o / self

    # order

    def __eq__(self, other):
        o = other if other.__class__ is QuadExt else _coerce(other)
        if o is None:
            return NotImplemented
        return (
            self._an == o._an
            and self._ad == o._ad
            and self._bn == o._bn
            and self._bd == o._bd
        )

    __lt__ = _order(operator.lt)
    __le__ = _order(operator.le)
    __gt__ = _order(operator.gt)
    __ge__ = _order(operator.ge)

    def __hash__(self):
        if self._bn == 0:
            n, d = self._an, self._ad
            if d == 1:
                return hash(n)  # == hash(Fraction(n, 1))
            # Fraction's hash of n/d, computed without building one
            try:
                h = hash(hash(abs(n)) * pow(d, -1, _HASH_MODULUS))
            except ValueError:  # d is a multiple of the modulus
                h = _HASH_INF
            if n < 0:
                h = -h
            return -2 if h == -1 else h
        return hash((self._an, self._ad, self._bn, self._bd))

    def __bool__(self):
        return self._an != 0 or self._bn != 0

    def __float__(self):
        """The nearest float, or OverflowError past the float range, as for
        a Fraction, whatever the size of the two parts.

        An irrational v lies strictly between n and n + 1 for
        n = floor(|v| * 2^s).  Once n has 55 bits, every rounding boundary
        at that scale is an integer, so |v| rounds as (2n + 1) / 2^(s + 1),
        one correctly rounded integer division.  The first s comes from
        the conjugate p - q*sqrt2, which does not cancel where p + q*sqrt2
        does: their product is p^2 - 2q^2, for |v| = (p + q*sqrt2)/r."""
        if not self._bn:
            return self._an / self._ad
        sign = self.sign()
        v = self if sign > 0 else -self
        p, q, r = v._an * v._bd, v._bn * v._ad, v._ad * v._bd
        big = max(abs(p), abs(q)).bit_length()
        bits = big if p >= 0 and q >= 0 else (p * p - 2 * q * q).bit_length() - big
        s = 56 + r.bit_length() - bits
        n = (v * Fraction(2) ** s).floor()
        while not n >> 54:
            s += 55 - n.bit_length()
            n = (v * Fraction(2) ** s).floor()
        if s >= 0:
            return sign * ((2 * n + 1) / (1 << s + 1))
        return sign * float((2 * n + 1) << -s - 1)

    def __reduce__(self):
        return (QuadExt, (self.a, self.b))

    def __str__(self):
        if self._bn == 0:
            return _fstr(self._an, self._ad)
        coef = "" if (self._bn, self._bd) in ((1, 1), (-1, 1)) else (
            _fstr(abs(self._bn), self._bd) + "*"
        )
        tail = coef + "sqrt2"
        if self._an == 0:
            return tail if self._bn > 0 else "-" + tail
        op = " + " if self._bn > 0 else " - "
        return _fstr(self._an, self._ad) + op + tail

    def __repr__(self):
        return f"QuadExt({_fstr(self._an, self._ad)}, {_fstr(self._bn, self._bd)})"


_new = object.__new__
_set_an = QuadExt._an.__set__
_set_ad = QuadExt._ad.__set__
_set_bn = QuadExt._bn.__set__
_set_bd = QuadExt._bd.__set__


def _fast(an: int, ad: int, bn: int, bd: int) -> QuadExt:
    # trusted constructor: pairs already reduced, denominators > 0
    self = _new(QuadExt)
    _set_an(self, an)
    _set_ad(self, ad)
    _set_bn(self, bn)
    _set_bd(self, bd)
    return self


def _rat(n: int, d: int) -> QuadExt:
    # trusted rational constructor: n/d reduced, d > 0
    self = _new(QuadExt)
    _set_an(self, n)
    _set_ad(self, d)
    _set_bn(self, 0)
    _set_bd(self, 1)
    return self


# rational path: operands n1/d1, n2/d2 with positive denominators.  _q_add
# and _q_mul reduce their result whatever the operands; _q_inv needs n/d
# reduced already.


def _q_add(n1: int, d1: int, n2: int, d2: int) -> QuadExt:
    if d1 == d2:
        if d1 == 1:
            return _rat(n1 + n2, 1)
        n, d = n1 + n2, d1
    else:
        n, d = n1 * d2 + n2 * d1, d1 * d2
    g = gcd(n, d)
    return _rat(n // g, d // g) if g > 1 else _rat(n, d)


def _q_mul(n1: int, d1: int, n2: int, d2: int) -> QuadExt:
    n, d = n1 * n2, d1 * d2
    if d == 1:
        return _rat(n, 1)
    g = gcd(n, d)
    return _rat(n // g, d // g) if g > 1 else _rat(n, d)


def _q_inv(n: int, d: int) -> tuple[int, int]:
    # d/n is already reduced; only the sign moves
    if n > 0:
        return d, n
    if n < 0:
        return -d, -n
    raise ZeroDivisionError("division by zero")


# general path: at least one operand irrational; each component is a
# rational-path result, so it comes back reduced


def _add(x: QuadExt, y: QuadExt, s: int) -> QuadExt:
    # x + s*y for s = +1 or -1
    a = _q_add(x._an, x._ad, s * y._an, y._ad)
    b = _q_add(x._bn, x._bd, s * y._bn, y._bd)
    return _fast(a._an, a._ad, b._an, b._ad)


def _mul(x: QuadExt, y: QuadExt) -> QuadExt:
    # (a1 + b1 s)(a2 + b2 s) = a1 a2 + 2 b1 b2 + (a1 b2 + b1 a2) s
    a = _q_mul(x._an, x._ad, y._an, y._ad) + _q_mul(2 * x._bn, x._bd, y._bn, y._bd)
    b = _q_mul(x._an, x._ad, y._bn, y._bd) + _q_mul(x._bn, x._bd, y._an, y._ad)
    return _fast(a._an, a._ad, b._an, b._ad)


def _inverse(x: QuadExt) -> QuadExt:
    # 1/(a + b s) = (a - b s)/(a^2 - 2 b^2), the norm reduced as _q_inv needs
    if not x._bn:
        return _rat(*_q_inv(x._an, x._ad))
    norm = _q_mul(x._an, x._ad, x._an, x._ad) - _q_mul(2 * x._bn, x._bd, x._bn, x._bd)
    n, d = _q_inv(norm._an, norm._ad)
    a = _q_mul(x._an, x._ad, n, d)
    b = _q_mul(-x._bn, x._bd, n, d)
    return _fast(a._an, a._ad, b._an, b._ad)


def _cmp(x: QuadExt, y: QuadExt) -> int:
    # sign of x - y: (pa/(ad1 ad2)) + (pb/(bd1 bd2)) sqrt2, cross-multiplied
    pa = x._an * y._ad - y._an * x._ad
    pb = x._bn * y._bd - y._bn * x._bd
    return _sign_pq(pa * x._bd * y._bd, pb * x._ad * y._ad)


def _fstr(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


SQRT2 = QuadExt(0, 1)


class _Word(Enum):
    """An enum printed as its value, by ``str`` and f-strings: ClassTag,
    Status, BKind, GForm and TheoremId."""

    def __str__(self) -> str:
        return self.value


class ClassTag(_Word):
    """Membership class of a scalar: rational or irrational."""

    RATIONAL = "rational"
    IRRATIONAL = "irrational"


def as_scalar(x) -> QuadExt:
    """Coerce an int, Fraction, or QuadExt to QuadExt; any other type
    raises TypeError."""
    if x.__class__ is QuadExt:
        return x
    return _rat(*_ratpair(x))


def _coerce(x):
    # as_scalar for an operator's other operand: None for a type that is
    # not a scalar, so the operator returns NotImplemented
    try:
        return as_scalar(x)
    except TypeError:
        return None


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


def _read_rat(text: str) -> Fraction:
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
        a = _read_rat(m.group("a"))
        b = _read_rat(m.group("bu")) if m.group("bu") else Fraction(1)
        if m.group("op") == "-":
            b = -b
        return QuadExt(a, b)
    if m.group("ra") is not None:
        return QuadExt(_read_rat(m.group("ra")))
    b = _read_rat(m.group("bs")) if m.group("bs") else Fraction(1)
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
