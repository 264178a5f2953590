"""Seeded generators of random piecewise-affine self-maps of [0, 10].

Four families: endpoint-interpolated patchworks (half of them continuous),
onto zigzags, fixed-point-free endpoint swaps, and step maps.  Every
returned spec passes validate(); generation is deterministic per seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .intervals import Interval
from .mapping import AffineExpr, MappingSpec, Piece, PointOverride
from .scalars import ClassTag

LOW = Fraction(0)
HIGH = Fraction(10)

FAMILIES = ("interpolated", "zigzag", "swap", "steps")

_DENS = (1, 2, 3, 4, 5, 6, 8)


def _rat(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A rational in [lo, hi] with a small denominator."""
    den = rng.choice(_DENS)
    lo_n = -((-lo.numerator * den) // lo.denominator)  # ceil(lo*den)
    hi_n = (hi.numerator * den) // hi.denominator  # floor(hi*den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def _value(rng: random.Random) -> Fraction:
    return _rat(rng, LOW, HIGH)


def _breaks(rng: random.Random, count: int) -> list[Fraction]:
    """Distinct sorted breakpoints strictly inside (0, 10)."""
    out: set[Fraction] = set()
    while len(out) < count:
        den = rng.choice((1, 2, 3, 4))
        out.add(Fraction(rng.randint(den, 10 * den - 1), den))
    return sorted(out)


def _cells(breaks: list[Fraction]) -> tuple[list[Interval], list[Fraction]]:
    """Half-open chain [0, t1), [t1, t2), ..., [tk, 10] covering [0, 10]."""
    xs = [LOW, *breaks, HIGH]
    cells = [
        Interval(xs[i], xs[i + 1], True, i == len(xs) - 2)
        for i in range(len(xs) - 1)
    ]
    return cells, xs


def _interp(a: Fraction, b: Fraction, ya: Fraction, yb: Fraction) -> AffineExpr:
    """The affine map sending a to ya and b to yb; image stays in [ya, yb] hull."""
    slope = Fraction(yb - ya, b - a)
    return AffineExpr(slope, ya - slope * a)


def _pieces_for(cell: Interval, expr: AffineExpr, irr: AffineExpr) -> list[Piece]:
    """One all-class piece, or a rational and an irrational one."""
    if irr == expr:
        return [Piece(cell, expr)]
    return [
        Piece(cell, expr, ClassTag.RATIONAL),
        Piece(cell, irr, ClassTag.IRRATIONAL),
    ]


def _interpolated(rng: random.Random) -> tuple[list[Piece], list[PointOverride]]:
    cells, xs = _cells(_breaks(rng, rng.randint(1, 4)))
    continuous = rng.random() < 0.5
    values = [_value(rng) for _ in xs]
    pieces = []
    for i, cell in enumerate(cells):
        if continuous:
            ya, yb = values[i], values[i + 1]
        else:
            ya, yb = _value(rng), _value(rng)
        expr = _interp(xs[i], xs[i + 1], ya, yb)
        irr = expr
        if rng.random() < 0.35:
            irr = _interp(xs[i], xs[i + 1], _value(rng), _value(rng))
        pieces.extend(_pieces_for(cell, expr, irr))
    overrides = []
    # a continuous chain keeps its diagonal crossing only if no override eats it
    if not continuous and rng.random() < 0.4:
        seen = set()
        for _ in range(rng.randint(1, 2)):
            at = rng.choice((LOW, HIGH, _value(rng)))
            if at in seen:
                continue
            seen.add(at)
            overrides.append(PointOverride(at, _value(rng)))
    return pieces, overrides


def _zigzag(rng: random.Random) -> tuple[list[Piece], list[PointOverride]]:
    """Continuous zigzag alternating between 0 and 10 on both classes: onto,
    and the diagonal crossing lands on a rational, so a fixed point exists."""
    cells, xs = _cells(_breaks(rng, rng.randint(1, 3)))
    high_first = rng.random() < 0.5
    ys = [HIGH if (i % 2 == 0) == high_first else LOW for i in range(len(xs))]
    pieces = []
    for i, cell in enumerate(cells):
        expr = _interp(xs[i], xs[i + 1], ys[i], ys[i + 1])
        pieces.append(Piece(cell, expr))
    return pieces, []


def _swap(rng: random.Random) -> tuple[list[Piece], list[PointOverride]]:
    """Fixed-point-free: strictly below the diagonal on (0, 10), with the
    endpoints thrown across it by overrides."""
    m = Fraction(rng.randint(2, 8))
    shrink = rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5)))
    low_expr = AffineExpr(shrink, 0)
    low_irr = low_expr
    if rng.random() < 0.3:
        low_irr = AffineExpr(rng.choice((Fraction(1, 3), Fraction(2, 5))), 0)
    c = m * rng.choice((Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)))
    d = rng.choice((HIGH, HIGH, _rat(rng, Fraction(5), HIGH)))
    high_expr = _interp(m, HIGH, c, d)
    pieces = [
        *_pieces_for(Interval(LOW, m, False, False), low_expr, low_irr),
        Piece(Interval(m, HIGH, True, False), high_expr),
    ]
    overrides = [
        PointOverride(LOW, rng.choice((HIGH, _rat(rng, Fraction(1), HIGH)))),
        PointOverride(HIGH, _rat(rng, LOW, Fraction(9))),
    ]
    return pieces, overrides


def _steps(rng: random.Random) -> tuple[list[Piece], list[PointOverride]]:
    cells, _ = _cells(_breaks(rng, rng.randint(1, 3)))
    pieces = []
    for cell in cells:
        expr = AffineExpr(Fraction(0), _value(rng))
        irr = expr
        if rng.random() < 0.3:
            irr = AffineExpr(Fraction(0), _value(rng))
        pieces.extend(_pieces_for(cell, expr, irr))
    overrides = []
    if rng.random() < 0.3:
        overrides.append(PointOverride(rng.choice((LOW, HIGH)), _value(rng)))
    return pieces, overrides


_BUILDERS = {
    "interpolated": _interpolated,
    "zigzag": _zigzag,
    "swap": _swap,
    "steps": _steps,
}

_WEIGHTS = (0.4, 0.25, 0.2, 0.15)


def random_spec(seed: int | str, family: str | None = None) -> MappingSpec:
    """One deterministic pseudo-random valid self-map of [0, 10]: the
    family's builder draws its pieces and overrides, and the one spec is
    built here, labelled with the family and the seed."""
    rng = random.Random(str(seed))
    if family is None:
        family = rng.choices(FAMILIES, weights=_WEIGHTS)[0]
    if family not in _BUILDERS:
        raise ValueError(f"unknown family: {family!r}")
    pieces, overrides = _BUILDERS[family](rng)
    label = f"generated {family} map ({seed})"
    spec = MappingSpec(Interval.closed(LOW, HIGH), pieces, overrides, label)
    problems = spec.validate()
    if problems:
        raise RuntimeError(f"generator produced an invalid spec: {problems[0]}")
    return spec


def random_specs(count: int, seed: int = 0) -> tuple[MappingSpec, ...]:
    """A reproducible batch; entry i depends only on (seed, i)."""
    return tuple(random_spec(f"{seed}:{i}") for i in range(count))
