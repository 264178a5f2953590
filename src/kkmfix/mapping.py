"""Piecewise-affine self-maps with class-split branches and point overrides.

A map is given on an interval domain by pieces.  Each piece carries an
affine expression per membership class (rational / irrational inputs);
finitely many point overrides replace the value at single points.  The
pieces with a branch for a class must cover the domain's points of that
class exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from kkmfix.intervals import (
    ClassSet,
    Interval,
    _canonical_slice,
    _plain_complement,
    _plain_intersect,
    pick_in,
)
from kkmfix.scalars import ClassTag, QuadExt, as_scalar, class_of, dist, format_scalar

__all__ = [
    "AffineExpr",
    "InfResidual",
    "MappingSpec",
    "Piece",
    "PointOverride",
    "Violation",
]

_TAGS = (ClassTag.RATIONAL, ClassTag.IRRATIONAL)


def _as_rational(v) -> QuadExt:
    if isinstance(v, (int, Fraction)):
        return QuadExt(v)
    raise TypeError(f"rational coefficient required, got {type(v).__name__}")


@dataclass(frozen=True)
class AffineExpr:
    """x -> slope*x + intercept with rational coefficients, given as int or
    Fraction and held as rational QuadExt, so evaluating stays on the
    kernel's rational path."""

    slope: QuadExt
    intercept: QuadExt

    def __post_init__(self):
        object.__setattr__(self, "slope", _as_rational(self.slope))
        object.__setattr__(self, "intercept", _as_rational(self.intercept))

    def at(self, x) -> QuadExt:
        return self.slope * x + self.intercept

    def __str__(self) -> str:
        s, c = self.slope, self.intercept
        if not s:
            return str(c)
        head = "x" if s == 1 else ("-x" if s == -1 else f"{s} x")
        if not c:
            return head
        return f"{head} + {c}" if c > 0 else f"{head} - {-c}"


@dataclass(frozen=True)
class Piece:
    """One domain interval with an affine branch per class; a branch may
    be absent when another piece covers that class."""

    over: Interval
    rational_branch: AffineExpr | None = None
    irrational_branch: AffineExpr | None = None

    def __post_init__(self):
        if self.rational_branch is None and self.irrational_branch is None:
            raise ValueError("piece needs at least one branch")

    def branch_for(self, tag: ClassTag) -> AffineExpr | None:
        if tag is ClassTag.RATIONAL:
            return self.rational_branch
        return self.irrational_branch


@dataclass(frozen=True)
class PointOverride:
    """f(at) = value, replacing whatever the pieces would give."""

    at: QuadExt
    value: QuadExt

    def __post_init__(self):
        object.__setattr__(self, "at", as_scalar(self.at))
        object.__setattr__(self, "value", as_scalar(self.value))


@dataclass(frozen=True)
class Violation:
    """One way a mapping fails to be a well-formed self-map."""

    kind: str
    message: str
    piece_index: int | None = None
    override_index: int | None = None


@dataclass(frozen=True)
class InfResidual:
    """Infimum of the displacement |f(x) - x| over the domain.

    ``where`` is an attaining point when ``attained``, else the point the
    infimum is approached at."""

    value: QuadExt
    attained: bool
    where: QuadExt | None


def _restrict(tag: ClassTag | None, *ivs: Interval) -> ClassSet:
    """The tag-class points of the intervals; all their points when tag is
    None."""
    if tag is None:
        return ClassSet(ivs, ivs)
    if tag is ClassTag.RATIONAL:
        return ClassSet(ivs, ())
    return ClassSet((), ivs)


def _slices() -> dict[ClassTag, list[Interval]]:
    """Empty per-class interval lists, filled and then built into one
    ClassSet by ``_build``: one canonicalisation instead of one per union."""
    return {tag: [] for tag in _TAGS}


def _add_points(slices, xs) -> None:
    for x in xs:
        iv = Interval.point(x)
        for tag in _TAGS:
            slices[tag].append(iv)


def _build(slices) -> ClassSet:
    return ClassSet(slices[ClassTag.RATIONAL], slices[ClassTag.IRRATIONAL])


@dataclass(frozen=True)
class MappingSpec:
    """A piecewise-affine self-map of an interval."""

    domain: Interval
    pieces: tuple[Piece, ...]
    overrides: tuple[PointOverride, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        object.__setattr__(self, "overrides", tuple(self.overrides))

    @cached_property
    def _override_map(self) -> dict[QuadExt, QuadExt]:
        return {o.at: o.value for o in self.overrides}

    @cached_property
    def _cells(self) -> dict[ClassTag, tuple[tuple[Interval, AffineExpr], ...]]:
        # one canonicalisation per (piece, class); the override points are
        # cut out of the raw piece interval first, and only when there are any
        keep = None
        if self.overrides:
            keep = _plain_complement([Interval.point(o.at) for o in self.overrides])
        cells: dict[ClassTag, tuple] = {}
        for tag in _TAGS:
            out = []
            for piece in self.pieces:
                expr = piece.branch_for(tag)
                if expr is None:
                    continue
                ivs = (piece.over,)
                if keep is not None:
                    ivs = _plain_intersect(ivs, keep)
                for iv in _canonical_slice(ivs, tag):
                    out.append((iv, expr))
            cells[tag] = tuple(out)
        return cells

    def class_cells(self, tag: ClassTag) -> tuple[tuple[Interval, AffineExpr], ...]:
        """Maximal class-restricted intervals on which one affine branch
        gives f, override points excluded."""
        return self._cells[tag]

    def evaluate(self, x) -> QuadExt:
        x = as_scalar(x)
        if not self.domain.contains(x):
            raise ValueError(f"{format_scalar(x)} outside domain")
        value = self._override_map.get(x)
        if value is not None:
            return value
        tag = class_of(x)
        for piece in self.pieces:
            expr = piece.branch_for(tag)
            if expr is not None and piece.over.contains(x):
                return expr.at(x)
        raise ValueError(f"no branch covers {format_scalar(x)}")

    def residual(self, x) -> QuadExt:
        x = as_scalar(x)
        return dist(self.evaluate(x), x)

    def image(self) -> ClassSet:
        slices = _slices()
        for tag in _TAGS:
            for cell, expr in self.class_cells(tag):
                if not expr.slope:
                    _add_points(slices, [expr.intercept])
                else:
                    img = cell.map_affine(expr.slope, expr.intercept)
                    slices[tag].append(img)
        _add_points(slices, [o.value for o in self.overrides])
        return _build(slices)

    def fixed_point_set(self) -> ClassSet:
        return self._fixed_point_set

    @cached_property
    def _fixed_point_set(self) -> ClassSet:
        slices = _slices()
        for tag in _TAGS:
            for cell, expr in self.class_cells(tag):
                if expr.slope == 1:
                    if not expr.intercept:
                        slices[tag].append(cell)
                    continue
                root = expr.intercept / (1 - expr.slope)
                # rational coefficients put the root in the rationals
                if tag is ClassTag.RATIONAL and cell.contains(root):
                    _add_points(slices, [root])
        _add_points(slices, [o.at for o in self.overrides if o.value == o.at])
        return _build(slices)

    def fixed_points(self) -> tuple[QuadExt, ...]:
        pts = self.fixed_point_set().finite_points()
        if pts is None:
            raise ValueError("fixed-point set is infinite")
        return pts

    def inf_residual(self) -> InfResidual:
        best: tuple[QuadExt, bool, QuadExt | None] | None = None

        def consider(value, attained: bool, where) -> None:
            nonlocal best
            cand = (as_scalar(value), attained, where)
            if (
                best is None
                or cand[0] < best[0]
                or (cand[0] == best[0] and attained and not best[1])
            ):
                best = cand

        for tag in _TAGS:
            for cell, expr in self.class_cells(tag):
                k = expr.slope - 1
                c = expr.intercept
                if not k:
                    consider(abs(c), True, pick_in(tag, cell))
                    continue
                root = -c / k
                inside = (cell.lo is None or root > cell.lo) and (
                    cell.hi is None or root < cell.hi
                )
                if inside:
                    consider(QuadExt(0), tag is ClassTag.RATIONAL, root)
                for e, closed in ((cell.lo, cell.lo_closed), (cell.hi, cell.hi_closed)):
                    if e is not None:
                        consider(abs(k * e + c), closed, e)
        for o in self.overrides:
            consider(dist(o.value, o.at), True, o.at)
        assert best is not None
        return InfResidual(*best)

    def validate(self) -> list[Violation]:
        """All the ways this spec fails to be a well-formed self-map:
        pieces escaping the domain, per-class coverage gaps or overlaps,
        bad overrides, values outside the domain."""
        out: list[Violation] = []
        dom_cs = ClassSet.from_interval(self.domain)
        for idx, piece in enumerate(self.pieces):
            excess = ClassSet.from_interval(piece.over).difference(dom_cs)
            if not excess.is_empty:
                out.append(
                    Violation(
                        "piece-outside",
                        f"piece {idx} leaves the domain at {format_scalar(excess.pick())}",
                        piece_index=idx,
                    )
                )
        # override sources count as covered; pieces may conflict there
        sources = ClassSet.points([o.at for o in self.overrides])
        for tag in _TAGS:
            carriers = [
                (i, p) for i, p in enumerate(self.pieces) if p.branch_for(tag) is not None
            ]
            for ai in range(len(carriers)):
                for bi in range(ai + 1, len(carriers)):
                    i, a = carriers[ai]
                    j, b = carriers[bi]
                    both = (
                        _restrict(tag, a.over)
                        .intersect(_restrict(tag, b.over))
                        .difference(sources)
                    )
                    if not both.is_empty:
                        out.append(
                            Violation(
                                "coverage-overlap",
                                f"pieces {i} and {j} both cover {tag} point "
                                f"{format_scalar(both.pick())}",
                                piece_index=j,
                            )
                        )
            covered = _slices()
            _add_points(covered, [o.at for o in self.overrides])
            covered[tag].extend(p.over for _, p in carriers)
            gap = _restrict(tag, self.domain).difference(_build(covered))
            if not gap.is_empty:
                out.append(
                    Violation(
                        "coverage-gap",
                        f"no {tag} branch covers {format_scalar(gap.pick())}",
                    )
                )
        seen: dict[QuadExt, int] = {}
        for idx, o in enumerate(self.overrides):
            if not self.domain.contains(o.at):
                out.append(
                    Violation(
                        "override-outside",
                        f"override source {format_scalar(o.at)} outside domain",
                        override_index=idx,
                    )
                )
            if o.at in seen:
                out.append(
                    Violation(
                        "override-duplicate",
                        f"override source {format_scalar(o.at)} repeated",
                        override_index=idx,
                    )
                )
            seen[o.at] = idx
            if not self.domain.contains(o.value):
                out.append(
                    Violation(
                        "override-value-outside",
                        f"override value {format_scalar(o.value)} outside domain",
                        override_index=idx,
                    )
                )
        for idx, piece in enumerate(self.pieces):
            img = _slices()
            for tag in _TAGS:
                expr = piece.branch_for(tag)
                if expr is None:
                    continue
                cells = _restrict(tag, piece.over).difference(sources)
                if cells.is_empty:
                    continue
                if not expr.slope:
                    _add_points(img, [expr.intercept])
                    continue
                img[tag].extend(
                    iv.map_affine(expr.slope, expr.intercept)
                    for iv in cells.slice_of(tag)
                )
            escape = _build(img).difference(dom_cs)
            if not escape.is_empty:
                out.append(
                    Violation(
                        "not-self-map",
                        f"piece {idx} maps into "
                        f"{format_scalar(escape.pick())} outside the domain",
                        piece_index=idx,
                    )
                )
        return out
