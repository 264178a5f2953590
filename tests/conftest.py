"""Shared draw helpers for the seeded property suites."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from kkmfix.conditions import BKind
from kkmfix.intervals import Interval
from kkmfix.scalars import QuadExt
from kkmfix.verdict import corpus_entry

# verdict condition key -> the hull inequality form it decides
HULL_KINDS = {
    "kkm_anchor": BKind.ANCHOR,
    "kkm_displacement": BKind.DISPLACEMENT,
    "kkm_residual": BKind.RESIDUAL,
}


# hand-made maps the corpus and randmaps lack, as map text
EDGE_MAPS = {
    # breakpoints in Q(sqrt2) other than the ends
    "sqrt2-breaks": (
        "label sqrt2 breakpoints\n"
        "domain [0, 4]\n"
        "piece [0, sqrt2) all: x + 1\n"
        "piece [sqrt2, 2 + 1/2*sqrt2] all: -x + 4\n"
        "piece (2 + 1/2*sqrt2, 4] all: 1/2 x + 1\n"
    ),
    "abs-on-line": (
        "label f = |x| on the line\n"
        "domain (-inf, inf)\n"
        "piece (-inf, 0) all: -x\n"
        "piece [0, inf) all: x\n"
    ),
    "point-domain": (
        "label a point domain\n"
        "domain [3, 3]\n"
        "piece [3, 3] all: 3\n"
    ),
    # one branch per class in the middle, its rational root 5 shared
    "class-split-middle": (
        "label class-split middle piece\n"
        "domain [0, 10]\n"
        "piece [0, 3) all: 1/2 x + 4\n"
        "piece [3, 7] rational: -x + 10\n"
        "piece [3, 7] irrational: 5\n"
        "piece (7, 10] all: -x + 12\n"
    ),
    # the override at 4 displaces the piece's only fixed point
    "override-inside": (
        "label override inside a piece\n"
        "domain [0, 10]\n"
        "piece [0, 10] all: 1/2 x + 2\n"
        "override 4 -> 9\n"
        "override 6 -> 0\n"
    ),
}


def rand_fraction(rng: random.Random, span: int = 40, den: int = 12) -> Fraction:
    return Fraction(rng.randint(-span * den, span * den), rng.randint(1, den))


def rand_quad(rng: random.Random, span: int = 40) -> QuadExt:
    b = rand_fraction(rng, span) if rng.random() < 0.5 else Fraction(0)
    return QuadExt(rand_fraction(rng, span), b)


def rand_point_in(rng: random.Random, iv: Interval, reach: int = 20) -> QuadExt:
    """A point of the interval, rational or irrational, small coefficients."""
    lo = iv.lo if iv.lo is not None else (iv.hi if iv.hi is not None else QuadExt(0)) - reach
    hi = iv.hi if iv.hi is not None else lo + reach
    width = hi - lo
    x = lo + width * Fraction(rng.randint(0, 64), 64)
    if rng.random() < 0.4:
        nudge = QuadExt(0, Fraction(1, 2 ** rng.randint(4, 8)))
        for candidate in (x + nudge, x - nudge):
            if iv.contains(candidate):
                return candidate
    if iv.contains(x):
        return x
    return lo + width / 2


def fib(n: int) -> int:
    """The Fibonacci number F_n, with F_1 = F_2 = 1."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.fixture(scope="session")
def corpus():
    return {n: corpus_entry(n) for n in range(1, 15)}
