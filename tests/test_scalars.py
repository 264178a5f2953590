"""Exact-arithmetic foundation: field, order, and metric axioms with zero
tolerance, class bookkeeping, and the kernel name."""

import math
import operator
import random
import sys
from fractions import Fraction

import pytest

import kkmfix
from kkmfix.intervals import Interval
from kkmfix.mapdef import parse, serialize
from kkmfix.mapping import AffineExpr, MappingSpec, Piece
from kkmfix.scalars import (
    SQRT2,
    ClassTag,
    QuadExt,
    as_scalar,
    class_of,
    dist,
    format_scalar,
    irrational_between,
    parse_scalar,
    simplest_rational_between,
)

from conftest import fib, rand_quad

N_AXIOM = 10_000


def test_field_axioms_exact():
    rng = random.Random(11)
    zero, one = QuadExt(0), QuadExt(1)
    for _ in range(N_AXIOM):
        x, y, z = rand_quad(rng), rand_quad(rng), rand_quad(rng)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if x != zero:
            assert x * (one / x) == one


def test_order_axioms_exact():
    rng = random.Random(13)
    for _ in range(N_AXIOM):
        x, y, z = rand_quad(rng), rand_quad(rng), rand_quad(rng)
        assert (x < y) + (x == y) + (y < x) == 1
        if x <= y and y <= x:
            assert x == y
        lo, mid, hi = sorted((x, y, z))
        assert lo <= mid <= hi and lo <= hi
        if x < y:
            assert x + z < y + z


def test_metric_axioms_exact():
    rng = random.Random(17)
    zero = QuadExt(0)
    for _ in range(N_AXIOM):
        x, y, z = rand_quad(rng), rand_quad(rng), rand_quad(rng)
        d = dist(x, y)
        assert d >= zero
        assert (d == zero) == (x == y)
        assert d == dist(y, x)
        assert dist(x, z) <= dist(x, y) + dist(y, z)


def test_affine_images_preserve_class():
    rng = random.Random(19)
    for _ in range(2000):
        x = rand_quad(rng)
        slope = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
        intercept = Fraction(rng.randint(-40, 40), rng.randint(1, 6))
        y = slope * x + intercept
        if slope == 0:
            assert class_of(y) is ClassTag.RATIONAL
        else:
            assert class_of(y) is class_of(x)


def test_class_of_is_exact():
    assert class_of(QuadExt(3)) is ClassTag.RATIONAL
    assert class_of(QuadExt(0, Fraction(1, 10 ** 9))) is ClassTag.IRRATIONAL
    assert class_of(QuadExt(5, 2) - QuadExt(0, 2)) is ClassTag.RATIONAL


def test_scalar_text_roundtrip():
    rng = random.Random(23)
    for _ in range(500):
        x = rand_quad(rng)
        assert parse_scalar(format_scalar(x)) == x
    assert format_scalar(QuadExt(0)) == "0"
    assert parse_scalar("3 + 1/2*sqrt2") == QuadExt(3, Fraction(1, 2))
    assert parse_scalar("-sqrt2") == QuadExt(0, -1)


def test_between_pickers():
    rng = random.Random(29)
    for _ in range(500):
        a, b = sorted((rand_quad(rng), rand_quad(rng)))
        if a == b:
            continue
        q = simplest_rational_between(a, b)
        assert a < q < b and isinstance(q, Fraction)
        w = irrational_between(a, b)
        assert a < w < b and class_of(w) is ClassTag.IRRATIONAL


def _least_denominator(a: QuadExt, b: QuadExt) -> Fraction:
    """The rational of (a, b) with the least denominator, the one nearest 0
    among those: searched one denominator at a time."""
    q = 1
    while True:
        lo = (a * q).floor() + 1  # least p with p/q > a
        hi = -(-b * q).floor() - 1  # greatest p with p/q < b
        if lo <= hi:
            return Fraction(min(max(0, lo), hi), q)
        q += 1


def test_simplest_rational_between_least_denominator():
    rng = random.Random(31)
    for _ in range(300):
        a = rand_quad(rng, 5)
        width = QuadExt(
            Fraction(1, rng.randint(1, 200)), Fraction(rng.randint(0, 1), 200)
        )
        assert simplest_rational_between(a, a + width) == _least_denominator(
            a, a + width
        )


def test_simplest_rational_between_long_expansion():
    # neighbouring convergents of the golden ratio, each ~1,500 continued
    # fraction terms long; the simplest rational between them is their mediant
    a = Fraction(fib(1502), fib(1501))
    b = Fraction(fib(1503), fib(1502))
    mediant = Fraction(fib(1504), fib(1503))
    assert simplest_rational_between(a, b) == mediant
    assert simplest_rational_between(-b, -a) == -mediant


def test_simplest_rational_between_rejects_empty_interval():
    for lo, hi in ((1, 1), (SQRT2, 1)):
        with pytest.raises(ValueError, match=r"^empty interval$"):
            simplest_rational_between(lo, hi)


def test_as_scalar_coercions():
    assert as_scalar(3) == QuadExt(3)
    half = as_scalar(Fraction(2, 4))
    assert half == QuadExt(Fraction(1, 2))
    assert repr(half) == "QuadExt(1/2, 0)"  # the stored pairs, reduced
    x = QuadExt(1, 1)
    assert as_scalar(x) is x
    # a bool is stored as the int it equals, as Fraction(True) is
    assert repr(QuadExt(True)) == "QuadExt(1, 0)"
    assert repr(QuadExt(False, True)) == "QuadExt(0, 1)"
    assert format_scalar(True) == "1" and parse_scalar(format_scalar(True)) == 1
    assert type(as_scalar(True)._an) is int
    # so the text forms of code-built values read back
    assert str(Interval(True, 2)) == "[1, 2]"
    assert str(Interval(False, True, False, True)) == "(0, 1]"
    spec = MappingSpec(
        Interval(False, 2),
        [
            Piece(Interval(False, True, True, False), AffineExpr(True, 1)),
            Piece(Interval(True, 2), AffineExpr(0, True)),
        ],
    )
    text = serialize(spec)
    assert "True" not in text and "False" not in text
    assert parse(text) == spec
    for bad, name in ((0.5, "float"), ("1/2", "str")):
        with pytest.raises(TypeError, match=f"rational component required, got {name}"):
            as_scalar(bad)


def test_operators_refuse_a_non_scalar():
    q = QuadExt(1)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.lt):
        for left, right in ((q, "a"), ("a", q)):
            with pytest.raises(TypeError):
                op(left, right)
    assert +q is q


def test_kernel_is_pure():
    assert kkmfix.KERNEL == "pure"


def _sqrt2_sign(t: Fraction, d: Fraction) -> int:
    # sign of t + d*sqrt2 (d != 0) from decimal brackets of sqrt 2
    k = 1
    while True:
        lo = Fraction(math.isqrt(2 * 10 ** (2 * k)), 10 ** k)
        hi = lo + Fraction(1, 10 ** k)
        ends = (t + d * lo, t + d * hi)
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        k *= 2


def test_pure_kernel_matches_fraction():
    Q = QuadExt
    rng = random.Random(37)

    def rational():
        kind = rng.randrange(5)
        if kind == 0:
            return Fraction(rng.randint(-50, 50))
        if kind == 1:
            return Fraction(0)
        if kind == 2:
            return Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
        return Fraction(rng.randint(-60, 60), rng.randint(1, 12))

    def partner(p):
        kind = rng.randrange(4)
        if kind == 0:
            return p + rng.randint(-5, 5)  # same denominator
        if kind == 1:
            return rng.choice((p, -p))
        return rational()

    def canonical(r):
        return r == Q(r.a, r.b)

    for _ in range(3000):
        p = rational()
        q = partner(p)
        x, y = Q(p), Q(q)
        results = [(x + y, p + q), (x - y, p - q), (x * y, p * q)]
        results += [(x + q, p + q), (p - y, p - q), (q * x, q * p)]
        if q:
            results += [(x / y, p / q), (p / y, p / q)]
        else:
            for divide in (lambda: x / y, lambda: x / 0, lambda: p / y):
                with pytest.raises(ZeroDivisionError):
                    divide()
            with pytest.raises(ZeroDivisionError):
                Q(p, 1) / y
        for r, want in results:
            assert r.b == 0 and r.a == want and canonical(r)
        assert (x < y) == (p < q) and (x <= y) == (p <= q)
        assert (x > y) == (p > q) and (x >= y) == (p >= q)
        assert (x == y) == (p == q) and (x == q) == (p == q)
        assert x.sign() == (p > 0) - (p < 0)
        assert x.floor() == math.floor(p)
        assert hash(x) == hash(p)

        # mixed: rational x against irrational z = c + d*sqrt2
        c, d = rational(), rational() or Fraction(1)
        z = Q(c, d)
        mixed = [
            (x + z, p + c, d),
            (x - z, p - c, -d),
            (z - x, c - p, d),
            (x * z, p * c, p * d),
        ]
        norm = c * c - 2 * d * d
        mixed.append((x / z, p * c / norm, -p * d / norm))
        if p:
            mixed.append((z / x, c / p, d / p))
        for r, a, b in mixed:
            assert (r.a, r.b) == (a, b) and canonical(r)
        assert (x < z) == (_sqrt2_sign(p - c, -d) < 0)
        assert (z <= x) == (_sqrt2_sign(c - p, d) <= 0)
        assert x != z and z.sign() == _sqrt2_sign(c, d)

        # both irrational: z against w = e + f*sqrt2, whose norm
        # e^2 - 2f^2 takes either sign
        e, f = rational(), rational() or Fraction(-1)
        w = Q(e, f)
        norm = e * e - 2 * f * f
        both = [
            (z + w, c + e, d + f),
            (z - w, c - e, d - f),
            (z * w, c * e + 2 * d * f, c * f + d * e),
            (z / w, (c * e - 2 * d * f) / norm, (d * e - c * f) / norm),
        ]
        for r, a, b in both:
            assert (r.a, r.b) == (a, b) and canonical(r)
    with pytest.raises(AttributeError):
        (x + y)._an = 0  # results stay immutable

    r = 1 / (1 + SQRT2)  # the divisor's norm is -1
    assert r == Q(-1, 1) and canonical(r)
    r = (1 + SQRT2) * (1 - SQRT2)  # the sqrt2 parts cancel
    assert r == Q(-1) and canonical(r) and (r._bn, r._bd) == (0, 1)
    r = Q(Fraction(1, 3), 1) - Q(Fraction(-1, 6), 1)  # a sum of sixths
    assert (r._an, r._ad, r._bn, r._bd) == (1, 2, 0, 1)

    # the hash follows Fraction's formula for non-integer rationals: large
    # numerators, and denominators with no inverse modulo the hash prime
    modulus = sys.hash_info.modulus
    wide = [
        Fraction(rng.randint(10 ** 29, 10 ** 30), rng.randint(2, 10 ** 20))
        * rng.choice((-1, 1))
        for _ in range(300)
    ]
    no_inverse = [
        Fraction(n, k * modulus)
        for n in (1, -1, 7, -(10 ** 30) - 1)
        for k in (1, 2, 3 * modulus)
    ]
    for r in wide + no_inverse:
        assert hash(Q(r)) == hash(r)
    assert {hash(Q(r)) for r in no_inverse} == {sys.hash_info.inf, -sys.hash_info.inf}


def test_floor_of_irrationals_by_definition():
    """f = floor(x) satisfies f <= x < f + 1, compared exactly: on values
    with up to 30-digit coefficients and b of either sign, and on
    n + (p - q*sqrt2) for Pell pairs p^2 - 2q^2 = +-1, within 1/(2p) of an
    integer on either side."""
    rng = random.Random(43)

    def big():
        return Fraction(
            rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** rng.randint(0, 30))
        )

    values = [QuadExt(big(), big() or 1) for _ in range(2000)]
    p, q = 1, 1
    while p < 10 ** 30:
        for n in (-3, 0, 7):
            values += [QuadExt(n + p, -q), QuadExt(n - p, q)]
        p, q = p + 2 * q, p + q
    for x in values:
        f = x.floor()
        assert QuadExt(f) <= x < QuadExt(f + 1), x
        assert math.ceil(x) == f + 1


def _power(x: QuadExt, n: int) -> QuadExt:
    out = QuadExt(1)
    for _ in range(n):
        out = out * x
    return out


def test_float_is_correctly_rounded():
    """float(x) is the float nearest x, read off a 3000-digit decimal, or
    OverflowError where that decimal lies past the float range: on values
    whose parts overflow a float while x does not ((sqrt2 - 1)^1100 rounds
    to 0, times 10^400 to about 8.8e-22), on Pell numbers p - q*sqrt2 near
    each scale from subnormal to the top of the range, and on 2000 values
    with up to 30-digit coefficients."""
    decimal = pytest.importorskip("decimal")
    context = decimal.Context(prec=3000)
    root2 = context.sqrt(decimal.Decimal(2))

    def nearest(x: QuadExt) -> float:
        a, b = (context.divide(f.numerator, f.denominator) for f in (x.a, x.b))
        return float(context.add(a, context.multiply(b, root2)))

    rng = random.Random(47)

    def big():
        return Fraction(
            rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** rng.randint(0, 30))
        )

    tiny = _power(SQRT2 - 1, 1100)
    values = [tiny, -tiny, tiny * 10 ** 400]
    values += [_power(SQRT2 + 1, 805), -_power(1 - SQRT2, 803)]
    p, q = 1, 1
    while p < 10 ** 40:
        pell = QuadExt(p, -q) if p * p - 2 * q * q > 0 else QuadExt(-p, q)
        for e in range(-1200, 1100, 37):
            values += [pell * Fraction(2) ** e, QuadExt(Fraction(2) ** e) + pell]
        p, q = p + 2 * q, p + q
    values += [QuadExt(big(), big() or 1) for _ in range(2000)]
    assert float(tiny) == 0.0
    for x in values:
        want = nearest(x)
        if math.isinf(want):
            with pytest.raises(OverflowError):
                float(x)
        else:
            assert float(x) == want, x
    for x in (_power(SQRT2 + 1, 1100), -_power(SQRT2 + 1, 1100), QuadExt(10 ** 400, 1)):
        with pytest.raises(OverflowError):
            float(x)
