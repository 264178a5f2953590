"""Set-coverage machinery behind the fixed-point arguments.

Each theorem's proof assigns to every point x a witness set G(x) of
candidate common points; the hull-coverage (KKM) property and a finite
common intersection are what the proofs actually use.  This module
computes those sets exactly, verifies coverage on finite subsets, and
builds the shrinking displacement-sublevel chain whose tail is the
fixed-point set.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .conditions import _witness_set, check_c1, check_c2, sublevel
from .intervals import ClassSet, Interval, _Validated
from .mapping import MappingSpec
from .scalars import QuadExt, _Word, as_scalar, format_scalar


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
    """Sublevel sets at thresholds 1/m for m = 1..m_max.

    ``tail_intersection`` cuts the last level down to the exact fixed-point
    set, the infinite chain's limit."""

    levels: tuple[tuple[int, ClassSet, bool, bool], ...]
    nested: bool
    tail_intersection: ClassSet


def g_set(kind: GKind, spec: MappingSpec, x) -> ClassSet:
    """The witness set at x, exactly."""
    if kind.form is GForm.ANCHOR:
        return check_c1(spec, x)[0]
    if kind.form is GForm.DISPLACEMENT:
        return check_c2(spec, x)[0]
    return _witness_set(spec, x, (0, kind.delta / 2))


def verify_kkm(
    kind: GKind, spec: MappingSpec, points
) -> tuple[bool, QuadExt | None]:
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
    if uncovered.is_empty:
        return True, None
    return False, uncovered.pick()


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
    out = sets[0]
    for g in sets[1:]:
        out = out.intersect(g)
    return out


def default_gap_delta(spec: MappingSpec) -> QuadExt | None:
    """Twice the displacement infimum when positive; None when the infimum
    is zero (then no gap separates the map from the identity and a caller
    must pick delta explicitly)."""
    bound = spec.inf_residual()
    if bound > 0:
        return 2 * bound
    return None


def em_chain(spec: MappingSpec, m_max: int) -> EmChainReport:
    """Displacement sublevels at 1/1 >= 1/2 >= ... >= 1/m_max."""
    if m_max.__class__ is not int or m_max < 1:
        raise ValueError(f"m_max must be an int of at least 1, got {m_max!r}")
    fixed = spec.fixed_point_set()
    levels = []
    nested = True
    previous: ClassSet | None = None
    for m in range(1, m_max + 1):
        level, closed = sublevel(spec, Fraction(1, m))
        levels.append((m, level, not level.is_empty, closed))
        if previous is not None and not level.difference(previous).is_empty:
            nested = False
        previous = level
    return EmChainReport(tuple(levels), nested, previous.intersect(fixed))
