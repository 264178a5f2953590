"""Exact subsets of the real line split into rational/irrational slices.

``Interval`` is a nonempty real interval, the 4-tuple (lo, hi, lo_closed,
hi_closed) with None for an infinite end.  ``ClassSet`` holds two
slices, one per membership class: the set it denotes is (union of
rat-slice intervals restricted to the rationals) united with (irr-slice
restricted to the irrationals).  Slices are kept in a canonical form, so
structural equality is set equality:

- degenerate intervals whose point has the wrong class are dropped,
- finite endpoints of the wrong class are forced open,
- intervals are merged when they overlap, or touch at a point that
  either side includes or that the class cannot contain.

``_narrow(iv, root, below, strict)`` is the one cut under intersection and
the solvers: iv itself when t < root (t > root unless ``below``, non-strict
unless ``strict``) cuts nothing, None when nothing is left, else an Interval.
``_solve_affine``, the affine solver of deciders and plots alike, calls it,
and ``_abs_below`` solves |p| < |q| for affine p and q with it.

A slice is canonical after one pass: each interval is snapped to the
class (a point of the other class dropped, an end of it opened), then
one union also joins runs meeting at a point the class cannot contain.

``tagged`` builds a set from (tag, interval) pairs, tag None meaning
both classes, with one canonicalisation for all of them.  The pick rule
of ``ClassSet.pick`` is the only one: ``pick_in`` applies it to one raw
interval snapped to the class, and ``class_pick`` to the one slice of
raw intervals it builds.
"""

from __future__ import annotations

from typing import NamedTuple

from kkmfix.scalars import (
    ClassTag,
    QuadExt,
    as_scalar,
    class_of,
    format_scalar,
    irrational_between,
    simplest_rational_between,
)

_ZERO = QuadExt(0)


class _Validated:
    """Mixin for a named tuple whose ``__new__`` checks or converts its
    fields: ``_make``, ``_replace`` (which calls ``_make``) and unpickling
    at every protocol go through ``__new__`` too."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)

    def __reduce__(self):
        return self.__class__, tuple(self)


class _Fields(NamedTuple):
    lo: QuadExt | None
    hi: QuadExt | None
    lo_closed: bool
    hi_closed: bool


class Interval(_Validated, _Fields):
    """Nonempty real interval; a ``None`` bound is an infinite end.

    The named tuple (lo, hi, lo_closed, hi_closed): immutable, compared and
    hashed by its four fields, and checked by ``__new__`` on every
    construction bar ``_narrow``'s cut, which checks it: ``_make``,
    ``_replace`` and unpickling at every protocol go through it too."""

    __slots__ = ()

    def __new__(cls, lo, hi, lo_closed: bool = True, hi_closed: bool = True):
        if lo is not None and lo.__class__ is not QuadExt:
            lo = as_scalar(lo)
        if hi is not None and hi.__class__ is not QuadExt:
            hi = as_scalar(hi)
        if lo_closed.__class__ is not bool or hi_closed.__class__ is not bool:
            raise TypeError(f"bool flags required, got {lo_closed!r}, {hi_closed!r}")
        if lo is None and lo_closed:
            raise ValueError("interval closed at -inf")
        if hi is None and hi_closed:
            raise ValueError("interval closed at +inf")
        if lo is not None and hi is not None:
            if lo > hi:
                raise ValueError("backwards interval")
            if lo == hi and not (lo_closed and hi_closed):
                raise ValueError("empty interval")
        return tuple.__new__(cls, (lo, hi, lo_closed, hi_closed))

    @classmethod
    def closed(cls, lo, hi) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def point(cls, x) -> "Interval":
        return cls(x, x, True, True)

    @classmethod
    def all(cls) -> "Interval":
        return cls(None, None, False, False)

    @property
    def is_degenerate(self) -> bool:
        return self.lo is not None and self.hi is not None and self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo is not None and self.hi is not None

    @property
    def is_closed(self) -> bool:
        return (self.lo is None or self.lo_closed) and (
            self.hi is None or self.hi_closed
        )

    def contains(self, x) -> bool:
        x = as_scalar(x)
        lo, hi, lo_closed, hi_closed = self
        if lo is not None:
            if x < lo or (x == lo and not lo_closed):
                return False
        if hi is not None:
            if x > hi or (x == hi and not hi_closed):
                return False
        return True

    def closure(self) -> "Interval":
        return Interval(self.lo, self.hi, self.lo is not None, self.hi is not None)

    def map_affine(self, slope, intercept) -> "Interval":
        """Image under x -> slope*x + intercept."""
        if not slope:
            return Interval.point(intercept)
        lo_v = None if self.lo is None else slope * self.lo + intercept
        hi_v = None if self.hi is None else slope * self.hi + intercept
        if slope > _ZERO:
            return Interval(lo_v, hi_v, self.lo_closed, self.hi_closed)
        return Interval(hi_v, lo_v, self.hi_closed, self.lo_closed)

    def __str__(self) -> str:
        if self.is_degenerate:
            return "{" + format_scalar(self.lo) + "}"
        return _bracket(self)


def _bracket(iv: Interval) -> str:
    """The bracket form of iv, such as ``[0, 1)`` or ``(-inf, sqrt2]``; a
    point is written ``[a, a]``."""
    lo = "-inf" if iv.lo is None else format_scalar(iv.lo)
    hi = "inf" if iv.hi is None else format_scalar(iv.hi)
    lob = "[" if iv.lo_closed else "("
    hib = "]" if iv.hi_closed else ")"
    return f"{lob}{lo}, {hi}{hib}"


def _lo_key(iv: Interval):
    if iv.lo is None:
        return (-1, _ZERO, 0)
    return (0, iv.lo, 0 if iv.lo_closed else 1)


def _hi_key(iv: Interval):
    if iv.hi is None:
        return (1, _ZERO, 0)
    return (0, iv.hi, 1 if iv.hi_closed else 0)


def _touches(a: Interval, b: Interval, tag: ClassTag | None) -> bool:
    # a sorted before b by lo key; True when the union is one interval of
    # the class tag (of the line when tag is None)
    if a.hi is None or b.lo is None:
        return True
    if b.lo < a.hi:
        return True
    return b.lo == a.hi and (
        a.hi_closed or b.lo_closed or (tag is not None and class_of(b.lo) is not tag)
    )


def _span(a: Interval, b: Interval) -> Interval:
    if _hi_key(a) >= _hi_key(b):
        return a
    return Interval(a.lo, b.hi, a.lo_closed, b.hi_closed)


def _plain_union(ivs, tag: ClassTag | None = None) -> tuple[Interval, ...]:
    items = sorted(ivs, key=_lo_key)
    out: list[Interval] = []
    for iv in items:
        if out and _touches(out[-1], iv, tag):
            out[-1] = _span(out[-1], iv)
        else:
            out.append(iv)
    return tuple(out)


def _narrow(iv: Interval, root, below: bool, strict: bool) -> Interval | None:
    """The cut the module docstring states, for a QuadExt root; the cut
    part skips the checks of ``Interval.__new__`` that its own test makes."""
    lo, hi, lo_closed, hi_closed = iv
    if below:
        if hi is None or root < hi:
            hi, hi_closed = root, not strict
        elif root == hi and strict and hi_closed:
            hi_closed = False
        else:
            return iv
    elif lo is None or root > lo:
        lo, lo_closed = root, not strict
    elif root == lo and strict and lo_closed:
        lo_closed = False
    else:
        return iv
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and not (lo_closed and hi_closed)):
            return None
    return tuple.__new__(Interval, (lo, hi, lo_closed, hi_closed))


def _solve_affine(slope, intercept, rel: str, within: Interval) -> Interval | None:
    """The part of ``within`` where slope*x + intercept <rel> 0, for QuadExt
    coefficients, as ``_narrow`` gives it (all or none at zero slope)."""
    strict = len(rel) == 1
    if not slope:
        sign = intercept.sign() if rel[0] == "<" else -intercept.sign()
        return within if sign < 0 or (not strict and not sign) else None
    below = (slope.sign() > 0) == (rel[0] == "<")
    return _narrow(within, -intercept / slope, below, strict)


def _abs_below(p, q, within: Interval) -> list[Interval]:
    """The x in ``within`` where |p(x)| < |q(x)|, for affine p and q given
    as (slope, intercept): exactly where (p - q)(p + q) < 0, so at most
    one interval per sign case."""
    (ps, pi), (qs, qi) = p, q
    out = []
    for first, second in (("<", ">"), (">", "<")):
        part = _solve_affine(ps - qs, pi - qi, first, within)
        if part is not None:
            part = _solve_affine(ps + qs, pi + qi, second, part)
            if part is not None:
                out.append(part)
    return out


def _intersect_iv(a: Interval, b: Interval) -> Interval | None:
    """a & b: a cut at each finite end of b; a itself when b holds it."""
    lo, hi, lo_closed, hi_closed = b
    if lo is not None:
        a = _narrow(a, lo, False, not lo_closed)
    if a is not None and hi is not None:
        a = _narrow(a, hi, True, not hi_closed)
    return a


def _plain_intersect(A, B) -> tuple[Interval, ...]:
    out = []
    for a in A:
        for b in B:
            r = _intersect_iv(a, b)
            if r is not None:
                out.append(r)
    return tuple(out)


def _plain_complement(ivs) -> tuple[Interval, ...]:
    ivs = _plain_union(ivs)
    if not ivs:
        return (Interval.all(),)
    out = []
    cur: QuadExt | None = None
    cur_closed = False
    for iv in ivs:
        if iv.lo is not None:
            if cur is None or cur < iv.lo or (
                cur == iv.lo and cur_closed and not iv.lo_closed
            ):
                out.append(Interval(cur, iv.lo, cur_closed, not iv.lo_closed))
        if iv.hi is None:
            return tuple(out)
        cur, cur_closed = iv.hi, not iv.hi_closed
    out.append(Interval(cur, None, cur_closed, False))
    return tuple(out)


def _snap(iv: Interval, tag: ClassTag) -> Interval | None:
    # drop wrong-class points, open wrong-class closed endpoints; iv itself
    # when no flag changes
    lo, hi, lo_closed, hi_closed = iv
    if lo is not None and lo == hi:
        return iv if class_of(lo) is tag else None
    lo_c = lo_closed and class_of(lo) is tag
    hi_c = hi_closed and class_of(hi) is tag
    if lo_c == lo_closed and hi_c == hi_closed:
        return iv
    return Interval(lo, hi, lo_c, hi_c)


def _pick_one(tag: ClassTag, iv: Interval) -> QuadExt:
    # the pick rule ``ClassSet.pick`` states, for iv snapped to class tag
    lo, hi, lo_closed, hi_closed = iv
    if lo_closed:
        return lo
    if hi_closed:
        return hi
    if lo is None and hi is None:
        lo, hi = QuadExt(-1), QuadExt(1)
    elif lo is None:
        lo = hi - 1
    elif hi is None:
        hi = lo + 1
    if tag is ClassTag.RATIONAL:
        return QuadExt(simplest_rational_between(lo, hi))
    return irrational_between(lo, hi)


def pick_in(tag: ClassTag | None, iv: Interval) -> QuadExt | None:
    """The member ``ClassSet.pick`` gives for the tag-class points of iv,
    or None when there are none; with tag None a point is picked as its
    own class and any other interval as the rationals it holds."""
    if tag is None:
        tag = class_of(iv.lo) if iv.is_degenerate else ClassTag.RATIONAL
    iv = _snap(iv, tag)
    return None if iv is None else _pick_one(tag, iv)


def _canonical_slice(ivs, tag: ClassTag) -> tuple[Interval, ...]:
    return _plain_union([s for iv in ivs if (s := _snap(iv, tag)) is not None], tag)


class _Slices(NamedTuple):
    rat: tuple[Interval, ...]
    irr: tuple[Interval, ...]


class ClassSet(_Validated, _Slices):
    """Canonical two-slice subset of the line; equality is set equality."""

    __slots__ = ()

    def __new__(cls, rat=(), irr=()):
        return tuple.__new__(
            cls,
            (
                _canonical_slice(rat, ClassTag.RATIONAL),
                _canonical_slice(irr, ClassTag.IRRATIONAL),
            ),
        )

    @classmethod
    def from_interval(cls, iv: Interval) -> "ClassSet":
        return cls((iv,), (iv,))

    @property
    def is_empty(self) -> bool:
        return not self.rat and not self.irr

    @property
    def is_bounded(self) -> bool:
        return all(iv.is_bounded for iv in self.rat + self.irr)

    def contains(self, x) -> bool:
        x = as_scalar(x)
        ivs = self.rat if x.is_rational else self.irr
        return any(iv.contains(x) for iv in ivs)

    def union(self, other: "ClassSet") -> "ClassSet":
        return ClassSet(self.rat + other.rat, self.irr + other.irr)

    def intersect(self, other: "ClassSet") -> "ClassSet":
        return ClassSet(
            _plain_intersect(self.rat, other.rat),
            _plain_intersect(self.irr, other.irr),
        )

    def difference(self, other: "ClassSet") -> "ClassSet":
        return ClassSet(
            _plain_intersect(self.rat, _plain_complement(other.rat)),
            _plain_intersect(self.irr, _plain_complement(other.irr)),
        )

    def closure(self) -> "ClassSet":
        # a class slice is dense in each nondegenerate interval
        ivs = tuple(
            iv if iv.is_degenerate else iv.closure() for iv in self.rat + self.irr
        )
        return ClassSet(ivs, ivs)

    @property
    def is_closed(self) -> bool:
        return self == self.closure()

    @property
    def is_compact(self) -> bool:
        return self.is_bounded and self.is_closed

    def finite_points(self) -> tuple[QuadExt, ...] | None:
        """The members when the set is finite, else None."""
        pts = []
        for iv in self.rat + self.irr:
            if not iv.is_degenerate:
                return None
            pts.append(iv.lo)
        pts.sort()
        return tuple(pts)

    def pick(self) -> QuadExt | None:
        """Deterministic member of a nonempty set: from the first rat-slice
        interval (else the first irr-slice one) take a closed finite endpoint
        when there is one, otherwise an interior point of matching class."""
        for tag, ivs in ((ClassTag.RATIONAL, self.rat), (ClassTag.IRRATIONAL, self.irr)):
            if ivs:
                return _pick_one(tag, ivs[0])
        return None

    def __str__(self) -> str:
        if self.is_empty:
            return "{}"
        # rat/irr intervals spanning the same values render once, plainly:
        # an end of the other class is open in a canonical slice, so each
        # joined end flag is that of the end's own class
        irr, pts, entries = {}, [], []
        for iv in self.irr:
            if iv.is_degenerate:
                pts.append(iv.lo)
            else:
                irr[iv.lo, iv.hi] = iv
        for iv in self.rat:
            if iv.is_degenerate:
                pts.append(iv.lo)
            elif (j := irr.pop((iv.lo, iv.hi), None)) is None:
                entries.append((_lo_key(iv), f"rat{iv}"))
            else:
                flags = iv.lo_closed or j.lo_closed, iv.hi_closed or j.hi_closed
                joined = Interval(iv.lo, iv.hi, *flags)
                entries.append((_lo_key(joined), str(joined)))
        entries.extend((_lo_key(iv), f"irr{iv}") for iv in irr.values())
        if pts:
            pts.sort()
            body = ", ".join(format_scalar(p) for p in pts)
            entries.append((_lo_key(Interval.point(pts[0])), "{" + body + "}"))
        entries.sort(key=lambda e: e[0])
        return " U ".join(text for _, text in entries)


def tagged(pairs) -> ClassSet:
    """The set of the tag-class points of each (tag, interval) pair, all
    its points when tag is None."""
    rat, irr = [], []
    for tag, iv in pairs:
        if tag is not ClassTag.IRRATIONAL:
            rat.append(iv)
        if tag is not ClassTag.RATIONAL:
            irr.append(iv)
    return ClassSet(rat, irr)


def class_pick(tag: ClassTag | None, ivs) -> QuadExt | None:
    """``ClassSet.pick`` of the tag-class points of the sequence ivs (all
    their points when tag is None), or None when there are none; only the
    slice picked from is built."""
    if not ivs:
        return None
    for t in (ClassTag.RATIONAL, ClassTag.IRRATIONAL) if tag is None else (tag,):
        got = _canonical_slice(ivs, t)
        if got:
            return _pick_one(t, got[0])
    return None
