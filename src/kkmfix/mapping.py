"""Piecewise-affine self-maps with class-split branches and point overrides.

A map is given on an interval domain by pieces.  Each piece is one
affine expression on one interval, for the points of one membership class
(rational or irrational inputs) or of both; finitely many point overrides
replace the value at single points.  The pieces serving a class must cover
the domain's points of that class exactly once.

A spec caches what every decider reads, each built once on first use: the
class cells, the value pieces, and the sign table ``_signs`` of the
displacement f(x) - x, which splits each value piece at its root into
the parts where f(x) > x, f(x) = x and f(x) < x.  The fixed-point set is
the table's zero parts; ``conditions.decide_b`` and
``conditions.decide_c1`` read its other parts.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from kkmfix.intervals import (
    ClassSet,
    Interval,
    _Validated,
    _canonical_slice,
    _narrow,
    _plain_complement,
    _plain_intersect,
    class_pick,
    tagged,
)
from kkmfix.scalars import (
    ClassTag,
    QuadExt,
    _coerce,
    as_scalar,
    class_of,
    dist,
    format_scalar,
)

_TAGS = (ClassTag.RATIONAL, ClassTag.IRRATIONAL)
_ZERO, _ONE = QuadExt(0), QuadExt(1)


def _as_rational(v) -> QuadExt:
    q = _coerce(v)
    if q is None or not q.is_rational:
        raise TypeError(f"rational coefficient required, got {v!r}")
    return q


class _Affine(NamedTuple):
    slope: QuadExt
    intercept: QuadExt


class AffineExpr(_Validated, _Affine):
    """x -> slope*x + intercept with rational coefficients, given as int,
    Fraction or rational QuadExt and held as rational QuadExt, so
    evaluating stays on the kernel's rational path."""

    __slots__ = ()

    def __new__(cls, slope, intercept):
        return tuple.__new__(cls, (_as_rational(slope), _as_rational(intercept)))

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


class _Piece(NamedTuple):
    over: Interval
    expr: AffineExpr
    tag: ClassTag | None


class Piece(_Validated, _Piece):
    """One mapping line: f(x) = expr.at(x) on the tag-class points of
    ``over``, tag None meaning both classes."""

    __slots__ = ()

    def __new__(cls, over, expr, tag=None):
        if over.__class__ is not Interval:
            raise TypeError(f"Interval required, got {over!r}")
        if expr.__class__ is not AffineExpr:
            raise TypeError(f"AffineExpr required, got {expr!r}")
        if tag is not None and tag.__class__ is not ClassTag:
            raise TypeError(f"class tag or None required, got {tag!r}")
        return tuple.__new__(cls, (over, expr, tag))


class _Override(NamedTuple):
    at: QuadExt
    value: QuadExt


class PointOverride(_Validated, _Override):
    """f(at) = value, replacing whatever the pieces would give."""

    __slots__ = ()

    def __new__(cls, at, value):
        return tuple.__new__(cls, (as_scalar(at), as_scalar(value)))


class Violation(NamedTuple):
    """One way a mapping fails to be a well-formed self-map."""

    kind: str
    message: str
    piece_index: int | None = None
    override_index: int | None = None


def _branch_value(pieces, x: QuadExt, tag: ClassTag) -> QuadExt | None:
    """The value at x of the first piece that serves class tag and holds
    x, or None when there is none; overrides are not read."""
    for piece in pieces:
        if piece.tag in (None, tag) and piece.over.contains(x):
            return piece.expr.at(x)
    return None


def _image_pairs(pieces):
    """The image of value pieces (tag, interval, slope, intercept) as raw
    (tag, interval) pairs.  A constant piece's image is one point, which
    goes in either class: the canonical ClassSet keeps it in its own."""
    for tag, iv, slope, intercept in pieces:
        yield (tag if slope else None), iv.map_affine(slope, intercept)


class _Spec(NamedTuple):
    domain: Interval
    pieces: tuple[Piece, ...]
    overrides: tuple[PointOverride, ...]
    label: str


class MappingSpec(_Validated, _Spec):
    """A piecewise-affine self-map of an interval.

    No ``__slots__``: the cached properties live in the instance
    ``__dict__``, and ``__setattr__`` keeps every other name read-only."""

    def __new__(cls, domain, pieces, overrides=(), label=""):
        pieces, overrides = tuple(pieces), tuple(overrides)
        if domain.__class__ is not Interval:
            raise TypeError(f"Interval domain required, got {domain!r}")
        for items, kind in ((pieces, Piece), (overrides, PointOverride)):
            for item in items:
                if item.__class__ is not kind:
                    raise TypeError(f"{kind.__name__} required, got {item!r}")
        if label.__class__ is not str:
            raise TypeError(f"str label required, got {label!r}")
        # as mapdef's ``label`` line reads it back
        if label != label.strip() or "#" in label or len(label.splitlines()) > 1:
            raise ValueError(f"label {label!r} does not read back from map text")
        return tuple.__new__(cls, (domain, pieces, overrides, label))

    def __setattr__(self, name, value):
        raise AttributeError(f"MappingSpec is immutable: cannot set {name!r}")

    @cached_property
    def _override_map(self) -> dict[QuadExt, QuadExt]:
        return {o.at: o.value for o in self.overrides}

    @cached_property
    def _kept(self) -> tuple[Interval, ...] | None:
        # the line minus the override points; None when there are none
        if not self.overrides:
            return None
        return _plain_complement([Interval.point(o.at) for o in self.overrides])

    def _cut(self, over: Interval, tag: ClassTag) -> tuple[Interval, ...]:
        """The tag-class points of ``over`` that no override replaces: the
        override points are cut out of the raw interval, then one
        canonicalisation."""
        kept = self._kept
        ivs = (over,) if kept is None else _plain_intersect((over,), kept)
        return _canonical_slice(ivs, tag)

    @cached_property
    def _cut_table(self) -> tuple[dict, list[dict]]:
        """Each (piece, class) the piece serves, cut once: the class cells
        per class, in ``class_cells`` order, and per piece its cut for each
        class it serves, which ``validate`` reads."""
        cells: dict[ClassTag, tuple[tuple[Interval, AffineExpr], ...]] = {}
        cuts: list[dict[ClassTag, tuple[Interval, ...]]] = [{} for _ in self.pieces]
        for tag in _TAGS:
            out = []
            for piece, cut in zip(self.pieces, cuts):
                if piece.tag in (None, tag):
                    cut[tag] = ivs = self._cut(piece.over, tag)
                    for iv in ivs:
                        out.append((iv, piece.expr))
            cells[tag] = tuple(out)
        return cells, cuts

    def class_cells(self, tag: ClassTag) -> tuple[tuple[Interval, AffineExpr], ...]:
        """The tag-class cells (interval, branch) of f, in map-line order:
        each map line that serves the class gives one cell per part of its
        interval that the override points leave, none when that part holds
        no point of the class.  Adjacent lines with one branch stay
        separate cells."""
        return self._cut_table[0][tag]

    def evaluate(self, x) -> QuadExt:
        x = as_scalar(x)
        if not self.domain.contains(x):
            raise ValueError(f"{format_scalar(x)} outside domain")
        value = self._override_map.get(x)
        if value is not None:
            return value
        value = _branch_value(self.pieces, x, class_of(x))
        if value is None:
            raise ValueError(f"no branch covers {format_scalar(x)}")
        return value

    def residual(self, x) -> QuadExt:
        x = as_scalar(x)
        return dist(self.evaluate(x), x)

    def value_pieces(self) -> tuple[tuple, ...]:
        """f as (tag, interval, slope, intercept): f(x) = slope*x + intercept
        on the tag-class points of the interval.  The class cells come
        first, in ``class_cells`` order, then each override as the single
        point (None, [at, at], 0, value), tag None meaning either class."""
        return self._value_pieces

    @cached_property
    def _value_pieces(self) -> tuple:
        out = [
            (tag, iv, expr.slope, expr.intercept)
            for tag in _TAGS
            for iv, expr in self._cut_table[0][tag]
        ]
        out.extend(
            (None, Interval.point(o.at), _ZERO, o.value) for o in self.overrides
        )
        return tuple(out)

    def image(self) -> ClassSet:
        return tagged(_image_pairs(self.value_pieces()))

    def fixed_point_set(self) -> ClassSet:
        return self._fixed_point_set

    @cached_property
    def _signs(self) -> tuple:
        """The sign table of the displacement phi(x) = f(x) - x: one row
        (tag, iv, slope, intercept, pos, zero, neg) per value piece, in
        ``value_pieces`` order, where pos, zero and neg are the parts of iv
        where phi > 0, = 0 and < 0, each an interval or None; their
        tag-class points make up the piece's.  Each row's root is computed
        once, and pos and neg are iv cut strictly at it by ``_narrow``.  A
        cell's rational coefficients put its root in the rationals, so an
        irrational cell has no zero part; an override's root is its value,
        inside iff value == at.

        Read by ``fixed_point_set`` (zero) and, in ``conditions``, by
        ``decide_b`` (its x pieces and the residual form's u pieces) and
        ``decide_c1`` (its x* is the first class point of pos or neg, in
        row order, picked by the loop ``decide_c2`` shares)."""
        out = []
        for tag, iv, slope, intercept in self._value_pieces:
            if slope == _ONE:
                sign = intercept.sign()
                pos = iv if sign > 0 else None
                zero = iv if not sign else None
                neg = iv if sign < 0 else None
            else:
                # phi rises through its root when slope > 1
                root, rising = intercept / (_ONE - slope), slope > _ONE
                pos = _narrow(iv, root, not rising, True)
                neg = _narrow(iv, root, rising, True)
                # the root lies in iv exactly when it cuts iv on both sides
                zero = None
                if pos is not iv and neg is not iv and tag is not ClassTag.IRRATIONAL:
                    zero = Interval.point(root)
            out.append((tag, iv, slope, intercept, pos, zero, neg))
        return tuple(out)

    @cached_property
    def _fixed_point_set(self) -> ClassSet:
        return tagged(
            (tag, zero) for tag, _, _, _, _, zero, _ in self._signs if zero is not None
        )

    def fixed_points(self) -> tuple[QuadExt, ...]:
        pts = self.fixed_point_set().finite_points()
        if pts is None:
            raise ValueError("fixed-point set is infinite")
        return pts

    def inf_residual(self) -> QuadExt:
        """The infimum of the displacement |f(x) - x| over C: per value
        piece, |d| at slope 1, else 0 when the root of (c - 1)x + d lies in
        the piece's closure, else the least value at a finite end."""
        out = []
        for _, iv, slope, c in self.value_pieces():
            k = slope - _ONE
            if not k:
                out.append(abs(c))
            elif iv.closure().contains(-c / k):
                return _ZERO
            else:
                out.extend(abs(k * e + c) for e in (iv.lo, iv.hi) if e is not None)
        return min(out)

    def validate(self) -> list[Violation]:
        """All the ways this spec fails to be a well-formed self-map:
        pieces escaping the domain, per-class coverage gaps or overlaps,
        bad overrides, values outside the domain.  Each (piece, class) is
        checked on raw intervals, on the cut ``class_cells`` reads too."""
        out: list[Violation] = []
        outside = _plain_complement((self.domain,))
        for idx, piece in enumerate(self.pieces):
            excess = _plain_intersect((piece.over,), outside)
            if excess:
                out.append(
                    Violation(
                        "piece-outside",
                        f"piece {idx} leaves the domain at "
                        f"{format_scalar(class_pick(None, excess))}",
                        piece_index=idx,
                    )
                )
        # override sources count as covered; pieces may conflict there
        cuts = self._cut_table[1]
        for tag in _TAGS:
            carriers = [(i, c[tag]) for i, c in enumerate(cuts) if tag in c]
            for ai, (i, a) in enumerate(carriers):
                for j, b in carriers[ai + 1 :]:
                    w = class_pick(tag, _plain_intersect(a, b))
                    if w is not None:
                        out.append(
                            Violation(
                                "coverage-overlap",
                                f"pieces {i} and {j} both cover {tag} point "
                                f"{format_scalar(w)}",
                                piece_index=j,
                            )
                        )
            covered = _plain_complement([iv for _, ivs in carriers for iv in ivs])
            gap = _plain_intersect(self._cut(self.domain, tag), covered)
            w = class_pick(tag, gap)
            if w is not None:
                out.append(
                    Violation(
                        "coverage-gap", f"no {tag} branch covers {format_scalar(w)}"
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
        for idx, (piece, cut) in enumerate(zip(self.pieces, cuts)):
            image = _image_pairs(
                (tag, iv, *piece.expr) for tag, ivs in cut.items() for iv in ivs
            )
            escape = [
                (tag, part)
                for tag, iv in image
                for part in _plain_intersect((iv,), outside)
            ]
            w = tagged(escape).pick() if escape else None
            if w is not None:
                out.append(
                    Violation(
                        "not-self-map",
                        f"piece {idx} maps into {format_scalar(w)} outside the domain",
                        piece_index=idx,
                    )
                )
        return out
