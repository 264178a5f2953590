"""Hypothesis deciders for the fixed-point theorems.

Everything here is decided exactly over Q(sqrt2): surjectivity of the
mapping, the three hull-coverage inequalities (anchor, displacement,
residual forms), whether some x* has a compact witness set, and lower
semicontinuity of the displacement x -> |f(x) - x|.  The witness sets
themselves, the sublevels and their chain are built in ``kkm``.

Both the inequality on one subset and lower semicontinuity come down to
comparing two absolute values of affines, |p| < |q|, which
``intervals._abs_below`` solves as intervals.

The distance is |x - y|, but most results hold under any metric
d(x, y) = phi(|x - y|) with phi continuous, strictly increasing and
subadditive, phi(0) = 0, such as |x - y|/(1 + |x - y|): onto, the three
hull inequalities, the anchor and displacement witness sets, compactness
and lower semicontinuity, since each compares two distances or is
topological.  Two depend on the metric: the gap form of ``kkm``, which
compares a distance with a fixed delta/2, and ``check_b3_strong``, which
sums weighted distances.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import NamedTuple

from .intervals import (
    Interval,
    _Validated,
    _abs_below,
    _intersect_iv,
    _plain_complement,
    _plain_intersect,
    _plain_union,
    _solve_affine,
    class_pick,
    tagged,
)
from .mapping import MappingSpec, _image_pairs
from .scalars import (
    ClassTag,
    QuadExt,
    _Word,
    as_scalar,
    dist,
    format_scalar,
)


class Status(_Word):
    """A condition's outcome.  Every decider here returns Proven or
    Falsified; ``NOT_FALSIFIED``, the outcome of an inconclusive search, is
    kept for the ``Tally`` in ``perfbench/checks.py``, whose ``decided``
    count tests hull verdicts for it."""

    PROVEN = "Proven"
    FALSIFIED = "Falsified"
    NOT_FALSIFIED = "NotFalsified"


class BKind(_Word):
    """The three hull-coverage inequality forms.

    At a hull point u with sample points x_j the required inequality is
    max_j |f(x_j) - u| >= g, with g = |x_j - u| (anchor), g = |f(x_j) - x_j|
    (displacement), or g = |f(u) - u| (residual)."""

    ANCHOR = "anchor"
    DISPLACEMENT = "displacement"
    RESIDUAL = "residual"


class _Witness(NamedTuple):
    points: tuple[QuadExt, ...]
    weights: tuple[QuadExt, ...] | None
    u: QuadExt


class SubsetWitness(_Validated, _Witness):
    """A subset, optional convex weights, and the hull point they cover."""

    __slots__ = ()

    def __new__(cls, points, weights, u):
        pts = tuple(as_scalar(p) for p in points)
        if not pts:
            raise ValueError("witness needs at least one point")
        u = as_scalar(u)
        if weights is not None:
            weights = tuple(as_scalar(w) for w in weights)
            if len(weights) != len(pts):
                raise ValueError("one weight per point required")
            if any(w <= 0 for w in weights):
                raise ValueError("weights must be positive")
            if sum(weights, QuadExt(0)) != 1:
                raise ValueError("weights must sum to 1")
        if not (min(pts) <= u <= max(pts)):
            raise ValueError("u must lie in the hull of the points")
        return tuple.__new__(cls, (pts, weights, u))


@dataclass(frozen=True)
class ConditionVerdict:
    status: Status
    witness: object | None
    detail: str

    def __str__(self) -> str:
        return f"{self.status}: {self.detail}"


_ZERO, _ONE, _MINUS_ONE, _MINUS_TWO = QuadExt(0), QuadExt(1), QuadExt(-1), QuadExt(-2)


# ---------------------------------------------------------------------------
# surjectivity


def check_onto(spec: MappingSpec) -> ConditionVerdict:
    """Exact range check: Proven iff f(C) = C, else a missed point, a
    rational one first.  Each class of C is tested against the raw image
    intervals of that class; only the missed set is canonicalised."""
    image = list(_image_pairs(spec.value_pieces()))
    for tag in (ClassTag.RATIONAL, ClassTag.IRRATIONAL):
        ivs = [iv for t, iv in image if t in (None, tag)]
        w = class_pick(tag, _plain_intersect((spec.domain,), _plain_complement(ivs)))
        if w is not None:
            return ConditionVerdict(
                Status.FALSIFIED, w, f"{format_scalar(w)} has no preimage"
            )
    return ConditionVerdict(Status.PROVEN, None, "range covers the whole domain")


# ---------------------------------------------------------------------------
# hull-coverage inequalities


def b_value(kind: BKind, spec: MappingSpec, points, u) -> QuadExt:
    """Signed criterion value at hull point u: nonnegative iff the
    inequality holds there for this subset."""
    if kind.__class__ is not BKind:
        raise ValueError(f"unknown hull form: {kind!r}")
    pts = [as_scalar(p) for p in points]
    if not pts:
        raise ValueError("empty subset")
    u = as_scalar(u)
    images = [spec.evaluate(p) for p in pts]
    if not (min(pts) <= u <= max(pts)):
        raise ValueError(f"{format_scalar(u)} outside the hull")
    best = None
    for p, fp in zip(pts, images):
        if kind is BKind.ANCHOR:
            g = dist(p, u)
        elif kind is BKind.DISPLACEMENT:
            g = dist(fp, p)
        else:
            g = spec.residual(u)
        term = dist(fp, u) - g
        if best is None or term > best:
            best = term
    return best


def check_b_subset(kind: BKind, spec: MappingSpec, points) -> ConditionVerdict:
    """Exact decision of the inequality over the whole hull of one subset.

    It fails at u exactly when every term |f(x_j) - u| - g_j is negative,
    so the violating set is V = hull & {u : |f(x_j) - u| < g_j(u) for all
    j}.  Each g_j is the absolute value of an affine in u: for the residual
    form, |f(u) - u| = k*u + m on each u piece of ``_u_pieces`` that
    ``decide_b`` projects on, so ``_abs_below`` solves V as a finite union
    of intervals.  Falsified iff V has a point; the witness is the most
    violated of the images in the hull and one point per interval of V."""
    if kind.__class__ is not BKind:
        raise ValueError(f"unknown hull form: {kind!r}")
    pts = sorted({as_scalar(p) for p in points})
    if not pts:
        raise ValueError("empty subset")
    lo, hi = pts[0], pts[-1]
    images = [spec.evaluate(p) for p in pts]
    hull = Interval.closed(lo, hi)

    spots = []
    for tag, piece, k, m in _u_pieces(kind, spec, spec._signs):
        part = _intersect_iv(piece, hull)
        if part is None:
            continue
        if kind is BKind.ANCHOR:
            gauges = [(_MINUS_ONE, p) for p in pts]
        elif kind is BKind.DISPLACEMENT:
            gauges = [(_ZERO, fp - p) for p, fp in zip(pts, images)]
        else:
            gauges = [(k, m)] * len(pts)
        region = [part]
        for fp, gauge in zip(images, gauges):
            near = (_MINUS_ONE, fp)  # f(x_j) - u
            region = [r for iv in region for r in _abs_below(near, gauge, iv)]
            if not region:
                break
        for iv in region:
            spot = class_pick(tag, (iv,))
            if spot is not None:
                spots.append(spot)
    if not spots:
        return ConditionVerdict(
            Status.PROVEN,
            None,
            "inequality holds on the whole hull "
            f"[{format_scalar(lo)}, {format_scalar(hi)}]",
        )
    spots.extend(v for v in images if lo <= v <= hi)
    values = ((b_value(kind, spec, pts, u), u) for u in set(spots))
    v_best, u_best = min(vu for vu in values if vu[0].sign() < 0)
    witness = SubsetWitness(tuple(pts), None, u_best)
    return ConditionVerdict(
        Status.FALSIFIED,
        witness,
        f"violated by {format_scalar(-v_best)} at u = {format_scalar(u_best)}",
    )


def check_b3_strong(
    spec: MappingSpec, points, weights
) -> tuple[QuadExt, QuadExt, bool]:
    """Weighted form at u = sum w_j x_j: |f(u) - u| <= sum w_j |f(x_j) - u|.

    Returns (lhs, rhs, holds), both sides exact.  Holding implies the
    residual inequality at u, since the weighted mean never exceeds the
    max."""
    pts = tuple(as_scalar(p) for p in points)
    ws = tuple(as_scalar(w) for w in weights)
    if len(pts) != len(ws):
        raise ValueError("one weight per point required")
    u = sum((w * p for w, p in zip(ws, pts)), QuadExt(0))
    SubsetWitness(pts, ws, u)  # validates weights and hull membership
    images = [spec.evaluate(p) for p in pts]
    lhs = spec.residual(u)
    rhs = sum((w * dist(fp, u) for w, fp in zip(ws, images)), QuadExt(0))
    return lhs, rhs, lhs <= rhs


# ---------------------------------------------------------------------------
# exact decider for the hull inequalities


def _x_pieces(kind: BKind, signs) -> tuple[list, list]:
    """The rows of the sign table ``MappingSpec._signs`` as x pieces
    [half, c, d, term], split into those usable below u and those above
    it; ``_near_u`` fills in the term on first use.

    The other rows of a projection are strict, so a nondegenerate piece
    projects the same whatever its class, the closedness of its ends and
    the override points taken out of it: pieces with the same ends and
    branch count once.  For the anchor and displacement forms a negative
    term at x < u forces f(x) > x (were f(x) <= x, |f(x) - u| =
    (u - x) + (x - f(x)) would exceed both u - x and |f(x) - x|), and at
    x > u it forces f(x) < x, so a piece's left half is the table's part
    where f(x) > x and its right half the part where f(x) < x.  The
    residual form keeps every piece on both sides."""
    lefts, rights, seen = [], [], set()
    residual = kind is BKind.RESIDUAL
    for _, iv, c, d, pos, _, neg in signs:
        key = (iv.lo, iv.hi, c, d)
        if key in seen:
            continue
        seen.add(key)
        for half, out in zip((iv, iv) if residual else (pos, neg), (lefts, rights)):
            if half is not None:
                out.append([half, c, d, None])
    return lefts, rights


def _window(lefts, rights) -> Interval | None:
    """The open interval from the lowest left end to the highest right end,
    None when empty: a violating u lies strictly between some x in a left
    piece and some x' in a right one."""
    if not lefts or not rights:
        return None
    los = [half.lo for half, *_ in lefts]
    his = [half.hi for half, *_ in rights]
    lo = None if any(v is None for v in los) else min(los)
    hi = None if any(v is None for v in his) else max(his)
    if lo is not None and hi is not None and lo >= hi:
        return None
    return Interval(lo, hi, False, False)


def _rows(kind: BKind, c, d, below: bool, r=None) -> tuple:
    """The rows a*x + b*u + e < 0, as (a, b, e), under which an x of a
    ``_x_pieces`` half on f(x) = c*x + d below u (above it unless
    ``below``) has a negative term, for a given r = |f(u) - u|.

    With f(x) > x and x < u, |f(x) - u| < u - x iff x + f(x) < 2u (which
    gives x < u), and |f(x) - u| < f(x) - x iff u < 2 f(x) - x: the sign
    table leaves the anchor term one row and the displacement term two,
    with x < u.  Above u, where f(x) < x, every row is reversed.  The
    residual rows are x < u and u - r < f(x) < u + r."""
    if kind is BKind.RESIDUAL:
        side = (_ONE, _MINUS_ONE, _ZERO) if below else (_MINUS_ONE, _ONE, _ZERO)
        return side, (c, _MINUS_ONE, d - r), (-c, _ONE, -d - r)
    if kind is BKind.ANCHOR:
        rows = ((c + _ONE, _MINUS_TWO, d),)
    else:
        rows = ((_ONE, _MINUS_ONE, _ZERO), (_ONE - c - c, _ONE, -d - d))
    return rows if below else tuple((-a, -b, -e) for a, b, e in rows)


def _term(kind: BKind, half: Interval, c, d, below: bool) -> tuple:
    """An x piece's term as the (ends, lows, highs, on_u) of ``_project_u``:
    for the anchor and displacement forms, x between the half's ends and
    the bounds of ``_rows``.  The residual gauge r = |f(u) - u| does not
    depend on x, so that form bounds y = f(x): between the images of the
    half's ends and, on the side f moves toward u, beyond f(u) = c*u + d
    (x < u, or x > u), against each u piece's ball u - r < y < u + r,
    which ``_near_u`` adds.  On a constant piece f(x) = d the term stays
    on x, with x < u, and ``_near_u`` holds d against the ball."""
    ends, lows, highs, on_u = half, [], [], []
    if kind is not BKind.RESIDUAL:
        for a, b, e in _rows(kind, c, d, below):
            if not a:
                on_u.append((b, e, True))
            else:
                (highs if a.sign() > 0 else lows).append((-b / a, -e / a, True))
    elif c:
        ends = half.map_affine(c, d)
        (highs if (c.sign() > 0) == below else lows).append((c, d, True))
    else:
        (highs if below else lows).append((_ONE, _ZERO, True))
    lo, hi, lo_closed, hi_closed = ends
    lo_ends = [] if lo is None else [(_ZERO, lo, not lo_closed)]
    hi_ends = [] if hi is None else [(_ZERO, hi, not hi_closed)]
    return (lo_ends, hi_ends), lows, highs, on_u


def _project_u(ends, lows, highs, on_u, within: Interval) -> Interval | None:
    """The u in ``within`` with b*u + c < 0 (<= 0 unless strict) for each
    (b, c, strict) in ``on_u``, and some real y (x, or f(x) for the
    residual form) above every lower bound and below every upper bound; a
    bound (s, i, strict) is s*u + i, passed strictly or not.  ``ends``
    lists the constant ends of a nonempty piece or of its image, which
    alone go unpaired with each other (a constant ball end is paired).

    Fourier-Motzkin (Dantzig and Eaves, J. Comb. Theory A 14, 1973): y
    exists iff every lower bound stays below every upper bound.  Each row
    cuts what the rows before it left, through ``_solve_affine``."""
    lo_ends, hi_ends = ends
    pairs = chain(product(lo_ends + lows, highs), product(lows, hi_ends))
    rows = (
        (ls - hs, li - hi, l_strict or h_strict)
        for (ls, li, l_strict), (hs, hi, h_strict) in pairs
    )
    for b, c, strict in chain(on_u, rows):
        within = _solve_affine(b, c, "<" if strict else "<=", within)
        if within is None:
            return None
    return within


def _near_u(kind, pieces, ball, below: bool, within: Interval) -> tuple:
    """The u in ``within`` with some x on one side of u, in one of the x
    pieces, whose term is negative, as a sorted disjoint union, so that
    L & R pairs joined pieces, not raw projections; ``ball`` holds the
    residual form's bounds u - r and u + r on y, None for the other forms."""
    out = []
    for piece in pieces:
        half, c, d, term = piece
        # x >= lo >= within.hi >= u (or the mirror) cannot hold
        end, cut = (half.lo, within.hi) if below else (within.lo, half.hi)
        if end is not None and cut is not None and end >= cut:
            continue
        if term is None:
            term = piece[3] = _term(kind, half, c, d, below)
        ends, lows, highs, on_u = term
        if ball is not None:
            if c:  # pairing the ball's ends cuts r > 0
                lows, highs = lows + [ball[0]], highs + [ball[1]]
            else:  # f(x) = d: |d - u| < r, which implies r > 0
                (bl, il, _), (bh, ih, _) = ball
                on_u = [(bl, il - d, True), (-bh, d - ih, True), *on_u]
        proj = _project_u(ends, lows, highs, on_u, within)
        if proj is not None:
            out.append(proj)
    return _plain_union(out)


def _u_pieces(kind: BKind, spec: MappingSpec, signs):
    """The u pieces (tag, interval, k, m) that ``decide_b`` projects on and
    ``check_b_subset`` solves on.  The residual form reads them off the
    sign table ``MappingSpec._signs``: on the part of a value piece where
    f(u) - u = (c - 1)u + d is positive, |f(u) - u| is k*u + m for
    (k, m) = (c - 1, d), and on the negative part for (k, m) = -(c - 1, d);
    a zero part, where the bound is 0, cannot be violated and is skipped.
    The other forms take all of C at once, with k and m None."""
    if kind is not BKind.RESIDUAL:
        yield None, spec.domain, None, None
        return
    for tag, _, c, d, pos, _, neg in signs:
        k = c - _ONE
        if pos is not None:
            yield tag, pos, k, d
        if neg is not None:
            yield tag, neg, -k, -d


_CLOSE = {
    BKind.ANCHOR: "|f(x) - u| < u - x and |f(x') - u| < x' - u",
    BKind.DISPLACEMENT: "|f(x) - u| < |f(x) - x| and |f(x') - u| < |f(x') - x'|",
    BKind.RESIDUAL: "|f(x) - u| and |f(x') - u| both below |f(u) - u|",
}


def decide_b(kind: BKind, spec: MappingSpec) -> ConditionVerdict:
    """A hull inequality over every finite subset, decided exactly.

    At x = u every term |f(x) - u| - g is >= 0, so a subset violates the
    inequality at u iff it has points x < u < x' with both terms negative:
    the violating set is V = C & L & R, where L holds the u with some
    x < u in C and |f(x) - u| < g, and R is its mirror.  On a value piece
    f(x) = c*x + d, each of L and R is a finite union of projections of
    strict affine constraints onto the u axis (``_project_u``).  A
    nondegenerate x piece meets every nonempty x-slice in points of its
    class, so classes matter only for u and for single-point pieces.
    The spec's sign table of f(x) - x (``MappingSpec._signs``) settles
    most constraints.  For the anchor and displacement forms only its
    part where f(x) > x can supply x, and only where f(x) < x can supply
    x' (``_x_pieces``); there the anchor term is negative iff
    x + f(x) < 2u, the displacement term iff x < u < 2 f(x) - x
    (``_rows``).  V lies in the open window between the two parts, so
    nothing is projected outside it, and nothing at all when it is empty
    (f <= id or f >= id on C, or a pivot with f <= id below it and
    f >= id above).  On each u piece, a part of the table, the residual
    gauge |f(u) - u| is some r = k*u + m free of x, so that form projects
    y = f(x) in the ball (u - r, u + r) (``_term``).  Returns Proven, or
    Falsified with a two-point witness around the first violating u.

    With A = {x : f(x) > x}, B = {x : f(x) < x}, m(x) = (x + f(x))/2 and
    D(x) = 2 f(x) - x, the rows give three lemmas on an interval C:

    P1. The anchor form fails iff inf_A m < sup_B m.  A violation at u
    needs x in A with m(x) < u and x' in B with u < m(x'); any u strictly
    between two such values violates, as x < m(x) and m(x') < x'.

    P2. The displacement form fails iff some x1 < x2 have x1 in A, x2 in
    B and D(x1) > D(x2): x1 makes the u of (x1, D(x1)) fail on its side,
    x2 those of (D(x2), x2), and the two open intervals meet.

    C1. If the displacement form holds, the anchor form holds iff no point
    of A lies left of a point of B.  By P2, x1 < x2 with x1 in A and x2 in
    B give f(x2) - f(x1) >= (x2 - x1)/2 > 0, so m(x1) < m(x2) and P1
    fails; with every point of B left of A, sup_B m <= sup B <= inf A <=
    inf_A m."""
    if kind.__class__ is not BKind:
        raise ValueError(f"unknown hull form: {kind!r}")
    proven = ConditionVerdict(
        Status.PROVEN,
        None,
        f"no u in C has x < u < x' with {_CLOSE[kind]}; the inequality holds "
        "for every finite subset",
    )
    signs = spec._signs
    lefts, rights = _x_pieces(kind, signs)
    window = _window(lefts, rights)
    if window is None:
        return proven
    # L and R depend on a u piece only through its ends and k, m: project
    # once on the closed hull, then cut to each class's own piece
    sides: dict[tuple, tuple[list, list]] = {}
    for tag, iv, k, m in _u_pieces(kind, spec, signs):
        key = (iv.lo, iv.hi, k, m)
        if key not in sides:
            # L, then R only where L has points
            within = _intersect_iv(iv.closure(), window)
            ball = None if k is None else ((_ONE - k, -m, True), (_ONE + k, m, True))
            below = [] if within is None else _near_u(kind, lefts, ball, True, within)
            above = _near_u(kind, rights, ball, False, within) if below else []
            sides[key] = below, above
        below, above = sides[key]
        violating = _plain_intersect(_plain_intersect((iv,), below), above)
        u = class_pick(tag, violating)
        if u is not None:
            return _b_falsified(kind, spec, u, k, m)
    return proven


def _near_point(kind, spec, u: QuadExt, below: bool, k, m):
    """Some x on one side of u with a negative term, or None: the first
    tag-class point, in sign-table order, of the halves ``_x_pieces``
    takes, cut by the rows of ``_rows`` at this u."""
    residual = kind is BKind.RESIDUAL
    r = k * u + m if residual else None
    for tag, iv, c, d, pos, _, neg in spec._signs:
        near = iv if residual else pos if below else neg
        for a, b, e in () if near is None else _rows(kind, c, d, below, r):
            near = _solve_affine(a, b * u + e, "<", near)
            if near is None:
                break
        x = None if near is None else class_pick(tag, (near,))
        if x is not None:
            return x
    return None


def _b_falsified(kind, spec, u: QuadExt, k, m) -> ConditionVerdict:
    lo = _near_point(kind, spec, u, True, k, m)
    hi = _near_point(kind, spec, u, False, k, m)
    w_hi = (u - lo) / (hi - lo)
    witness = SubsetWitness((lo, hi), (1 - w_hi, w_hi), u)
    value = b_value(kind, spec, (lo, hi), u)
    if value >= 0:
        raise RuntimeError(
            f"{kind} witness at u = {format_scalar(u)} does not violate"
        )
    return ConditionVerdict(
        Status.FALSIFIED,
        witness,
        f"violated by {format_scalar(-value)} at u = {format_scalar(u)} "
        f"with points {format_scalar(lo)}, {format_scalar(hi)}",
    )


# ---------------------------------------------------------------------------
# compact witness sets


def _first_point(pairs):
    """The first tag-class point of the (tag, region) pairs, in their
    order, skipping a region that is None; None when no region has one."""
    for tag, region in pairs:
        x = None if region is None else class_pick(tag, (region,))
        if x is not None:
            return x
    return None


def decide_c1(spec: MappingSpec) -> ConditionVerdict:
    """Does some x* make the anchor set ``g_set(GKind.anchor(), spec, x*)``
    = {y in C : |x* - y| <= |f(x*) - y|} compact?  Decided exactly:
    yes iff C is compact, or C has a closed finite lower end and f climbs
    somewhere (the set is then a closed bounded initial segment), or the
    mirror.  Where f climbs and where it falls are read off the spec's sign
    table of f(x) - x; ``_first_point`` picks x* from its pos (neg) parts,
    in row order.  Proven on every compact C, so Cor3 implies T1."""
    dom = spec.domain
    if dom.is_bounded and dom.is_closed:
        x = dom.lo
        return ConditionVerdict(
            Status.PROVEN, x, f"C is compact; any x* works, e.g. {format_scalar(x)}"
        )
    for closed, climbs, rel, segment in (
        (dom.lo_closed, True, ">", "initial"),
        (dom.hi_closed, False, "<", "final"),
    ):
        parts = ((tag, pos if climbs else neg) for tag, *_, pos, _, neg in spec._signs)
        x = _first_point(parts) if closed else None
        if x is not None:
            return ConditionVerdict(
                Status.PROVEN,
                x,
                f"f({format_scalar(x)}) {rel} {format_scalar(x)} caps a closed "
                f"bounded {segment} segment of C",
            )
    return ConditionVerdict(
        Status.FALSIFIED,
        None,
        "no x* gives a compact set: every candidate set keeps an unbounded "
        "or non-closed side of C",
    )


def decide_c2(spec: MappingSpec) -> ConditionVerdict:
    """Does some x* make the displacement set ``g_set(GKind.displacement(),
    spec, x*)`` = {y in C : |f(x*) - x*| <= |f(x*) - y|} compact?  Exactly:
    yes iff C is compact, or C is bounded with one open end that some x*
    clears (2 f(x*) - x* past the open end empties the non-closed part).
    So on a closed C it is Proven exactly when C is compact, and T3 and
    Cor4 have the same hypotheses.

    Clearing suffices: let C be bounded with lo open and hi closed, and
    2 f(x*) - x* <= lo.  As x* > lo, f(x*) < x*, so |f(x*) - y| <
    x* - f(x*) exactly for y in (2 f(x*) - x*, x*), and the set is C less
    that interval, the compact [x*, hi].  A closed lower end is the
    mirror case, with 2 f(x*) - x* >= hi.  ``_first_point`` picks x* where
    2 f(x) - x clears the open end, value pieces in order.

    C2. On a compact C the displacement form alone gives a fixed point;
    onto is not needed.  With A, B and D as in ``decide_b``, suppose no
    fixed point: then min C is in A, max C in B, and t = inf B is in one
    of them.  If t is in B, points x of A approach t from the left, and by
    P2 D(t) >= D(x) > x, so D(t) >= t, yet t in B means D(t) < t.  If t is
    in A, points x of B approach t from the right, so D(t) <= D(x) < x
    gives D(t) <= t, yet D(t) > t.  So on a closed C, where this decider
    is Proven only when C is compact, T3's and Cor4's hypotheses without
    onto already force a fixed point."""
    dom = spec.domain
    if dom.is_bounded and dom.is_closed:
        x = dom.lo
        return ConditionVerdict(
            Status.PROVEN, x, f"C is compact; any x* works, e.g. {format_scalar(x)}"
        )
    if dom.lo is None or dom.hi is None:
        return ConditionVerdict(
            Status.FALSIFIED,
            None,
            "C is unbounded, so the set keeps an unbounded ray for every x*",
        )
    if dom.lo_closed != dom.hi_closed:
        end, rel = (dom.lo, "<=") if dom.hi_closed else (dom.hi, ">=")
        x = _first_point(
            (tag, _solve_affine(c + c - _ONE, d + d - end, rel, iv))
            for tag, iv, c, d in spec.value_pieces()
        )
        if x is not None:
            return ConditionVerdict(
                Status.PROVEN,
                x,
                f"x* = {format_scalar(x)} empties the part at the open end",
            )
    return ConditionVerdict(
        Status.FALSIFIED,
        None,
        "every x* keeps a nonempty part ending at an open end of C",
    )


# ---------------------------------------------------------------------------
# lower semicontinuity


def check_c3(spec: MappingSpec) -> ConditionVerdict:
    """Lower semicontinuity of x -> |f(x) - x| on C, decided exactly.

    Near p, x approaches p only along the nondegenerate value pieces B
    whose closure holds p; each class is dense in such a piece, so along B
    the displacement tends to |(c_B - 1)p + d_B|.  Lsc fails at p exactly
    where one of these limits is below the displacement of the piece A
    holding p: the failures are the A-class points of A & closure(B) where
    |phi_B| < |phi_A|, phi = (c - 1, d), solved by ``_abs_below``; one
    branch cannot dip below itself.  Class twins approach alike, so each
    distinct approach (closure, phi) is paired once."""
    pieces = spec.value_pieces()
    approaches = dict.fromkeys(
        (iv.closure(), (c - _ONE, d)) for _, iv, c, d in pieces if not iv.is_degenerate
    )
    failures = []
    for tag, iv, c, d in pieces:
        own = (c - _ONE, d)
        for closure, phi in approaches:
            if phi == own:
                continue
            near = _intersect_iv(iv, closure)
            if near is not None:
                for part in _abs_below(phi, own, near):
                    failures.append((tag, part))
    failures = tagged(failures)
    if failures.is_empty:
        return ConditionVerdict(
            Status.PROVEN, None, "the displacement is lower semicontinuous on C"
        )
    return ConditionVerdict(
        Status.FALSIFIED,
        failures,
        f"lower semicontinuity fails on {failures}",
    )
