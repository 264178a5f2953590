"""Witness sets and the set-coverage machinery behind the fixed-point arguments.

Each theorem's proof assigns to every point x a witness set G(x) of
candidate common points; the hull-coverage (KKM) property and a finite
common intersection are what the proofs actually use.  This module
builds G(x) exactly for the anchor, displacement and gap forms, verifies
coverage on finite subsets, and builds the displacement sublevels and
their shrinking chain, whose tail is the fixed-point set.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .intervals import (
    ClassSet,
    Interval,
    _Validated,
    _abs_below,
    _plain_complement,
    _plain_intersect,
    _solve_affine,
    tagged,
)
from .mapping import MappingSpec
from .scalars import QuadExt, _Word, as_scalar, dist, format_scalar

_MINUS_ONE = QuadExt(-1)


class GForm(_Word):
    """How the witness set at x is carved out of C.

    anchor: points no farther from x than from f(x);
    displacement: points at least the displacement of x away from f(x);
    gap(delta): points at least delta/2 away from f(x)."""

    ANCHOR = "anchor"
    DISPLACEMENT = "displacement"
    GAP = "gap"


class _Kind(NamedTuple):
    form: GForm
    delta: QuadExt | None


class GKind(_Validated, _Kind):
    __slots__ = ()

    def __new__(cls, form, delta=None):
        if form.__class__ is not GForm:
            raise TypeError(f"GForm required, got {form!r}")
        if form is GForm.GAP:
            if delta is None:
                raise ValueError("the gap form needs a delta")
            delta = as_scalar(delta)
            if delta <= 0:
                raise ValueError("delta must be positive")
        elif delta is not None:
            raise ValueError("delta only applies to the gap form")
        return tuple.__new__(cls, (form, delta))

    @classmethod
    def anchor(cls) -> "GKind":
        return cls(GForm.ANCHOR)

    @classmethod
    def displacement(cls) -> "GKind":
        return cls(GForm.DISPLACEMENT)

    @classmethod
    def gap(cls, delta) -> "GKind":
        return cls(GForm.GAP, as_scalar(delta))

    def __str__(self) -> str:
        if self.form is GForm.GAP:
            return f"gap({format_scalar(self.delta)})"
        return str(self.form)


class EmChainReport(NamedTuple):
    """Sublevel sets at thresholds 1/m for m = 1..m_max; ``tail_intersection``
    is the exact fixed-point set, the infinite chain's limit."""

    levels: tuple[tuple[int, ClassSet, bool, bool], ...]
    nested: bool
    tail_intersection: ClassSet


def g_set(kind: GKind, spec: MappingSpec, x) -> ClassSet:
    """G(x) = {y in C : |f(x) - y| >= g(y)} exactly, for the gauge g of the
    form: C less the y where ``_abs_below`` finds |f(x) - y| < |g(y)|."""
    fx = spec.evaluate(x)
    if kind.form is GForm.ANCHOR:
        gauge = (_MINUS_ONE, x)  # |x - y|
    elif kind.form is GForm.DISPLACEMENT:
        gauge = (0, dist(fx, x))  # |f(x) - x|
    else:
        gauge = (0, kind.delta / 2)
    near = _abs_below((_MINUS_ONE, fx), gauge, spec.domain)
    kept = _plain_intersect((spec.domain,), _plain_complement(near))
    return ClassSet(kept, kept)


def verify_kkm(kind: GKind, spec: MappingSpec, points) -> tuple[bool, QuadExt | None]:
    """Exact coverage of the hull [min, max] by the union of witness sets;
    on failure, a concrete hull point left uncovered."""
    pts = [as_scalar(p) for p in points]
    if not pts:
        raise ValueError("empty subset")
    return _covers(pts, [g_set(kind, spec, p) for p in pts])


def _covers(pts, sets) -> tuple[bool, QuadExt | None]:
    """``verify_kkm`` given the witness set of each point."""
    union = ClassSet(
        [iv for g in sets for iv in g.rat], [iv for g in sets for iv in g.irr]
    )
    hull = ClassSet.from_interval(Interval.closed(min(pts), max(pts)))
    uncovered = hull.difference(union)
    return uncovered.is_empty, uncovered.pick()


def intersection_witness(kind: GKind, spec: MappingSpec, sample) -> ClassSet:
    """Exact intersection of the witness sets over a finite sample; an
    over-approximation of the common point set that shrinks as the sample
    grows."""
    pts = [as_scalar(p) for p in sample]
    if not pts:
        raise ValueError("empty sample")
    return _common([g_set(kind, spec, p) for p in pts])


def _common(sets) -> ClassSet:
    """``intersection_witness`` given the witness set of each point."""
    return functools.reduce(ClassSet.intersect, sets)


def default_gap_delta(spec: MappingSpec) -> QuadExt | None:
    """Twice the displacement infimum when positive; None when the infimum
    is zero (then no gap separates the map from the identity and a caller
    must pick delta explicitly)."""
    bound = spec.inf_residual()
    return 2 * bound if bound > 0 else None


def sublevel(spec: MappingSpec, beta) -> tuple[ClassSet, bool]:
    """{x in C: |f(x) - x| <= beta}; the flag is closedness within C."""
    b = as_scalar(beta)
    if b <= 0:
        raise ValueError("beta must be positive")
    pairs = []
    # k = m = 0 on a zero part, which _solve_affine keeps whole
    for tag, part, k, m in spec._displacement():
        region = _solve_affine(k, m - b, "<=", part)
        if region is not None:
            pairs.append((tag, region))
    out = tagged(pairs)
    return out, out.closure().intersect(ClassSet.from_interval(spec.domain)) == out


def em_chain(spec: MappingSpec, m_max: int) -> EmChainReport:
    """Displacement sublevels at 1/1 >= 1/2 >= ... >= 1/m_max.

    Two lemmas give the rest.  The sublevel at beta grows with beta, so the
    chain is nested.  A fixed point has displacement 0 <= 1/m, so Fix(f)
    lies in every level, and the tail is ``spec.fixed_point_set()``."""
    if m_max.__class__ is not int or m_max < 1:
        raise ValueError(f"m_max must be an int of at least 1, got {m_max!r}")
    levels = []
    for m in range(1, m_max + 1):
        level, closed = sublevel(spec, 1 / as_scalar(m))
        levels.append((m, level, not level.is_empty, closed))
    return EmChainReport(tuple(levels), True, spec.fixed_point_set())
