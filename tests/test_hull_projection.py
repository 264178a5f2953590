"""The hull projection of ``decide_b`` against the x-space projection it
replaced, kept in ``projection_oracle``, and the anchor and displacement
forms against their closed forms; and the cost of L & R on many pieces."""

from __future__ import annotations

from fractions import Fraction

from kkmfix import intervals
from kkmfix.conditions import (
    BKind,
    Status,
    _near_u,
    _u_pieces,
    _window,
    _x_pieces,
    decide_b,
)
from kkmfix.intervals import ClassSet, Interval, _intersect_iv, _solve_affine
from kkmfix.mapdef import parse
from kkmfix.mapping import AffineExpr, MappingSpec, Piece
from kkmfix.randmaps import random_specs
from kkmfix.verdict import corpus_entry

import projection_oracle as oracle
from conftest import EDGE_MAPS


def _oracle_specs():
    yield from (corpus_entry(n).spec for n in range(1, 15))
    yield from random_specs(1000, 0)
    yield from random_specs(300, 5)
    yield from (parse(text) for text in EDGE_MAPS.values())


def _as_set(ivs) -> ClassSet:
    return ClassSet(ivs, ivs)


def test_projection_matches_the_x_space_oracle():
    """On every u piece ``decide_b`` projects, L and R are the oracle's."""
    projected = 0
    for spec in _oracle_specs():
        signs = spec._signs
        for kind in BKind:
            lefts, rights = _x_pieces(kind, signs)
            window = _window(lefts, rights)
            if window is None:
                continue
            old_lefts, old_rights = oracle.x_pieces(kind, signs)
            seen = set()
            for _, iv, k, m in _u_pieces(kind, spec):
                key = (iv.lo, iv.hi, k, m)
                within = _intersect_iv(iv.closure(), window)
                if key in seen or within is None:
                    continue
                seen.add(key)
                ball = None if k is None else ((1 - k, -m, True), (1 + k, m, True))
                sides = ((True, lefts, old_lefts), (False, rights, old_rights))
                for below, new, old in sides:
                    got = _as_set(_near_u(kind, new, ball, below, within))
                    want = _as_set(oracle.near_u(kind, old, k, m, below, within))
                    assert got == want, (spec.label, kind, key, below)
                projected += 1
    assert projected > 1000


def _closed_form_sides(kind: BKind, spec) -> tuple[ClassSet, ClassSet]:
    """L and R of the anchor or displacement form, with m = (x + f(x))/2
    and D = 2 f(x) - x, over the parts P of each value piece where f > x
    and N where f < x, found by ``_solve_affine`` and not the sign table:
    for the anchor form L = U (inf_P m, inf) and R = U (-inf, sup_N m);
    for the displacement form L = U (inf P, sup_P D) and
    R = U (inf_N D, sup N).  On a nondegenerate part the class points are
    dense, so each union is taken over all of P or N."""
    left, right = [], []
    for _, iv, c, d in spec.value_pieces():
        above = _solve_affine(c - 1, d, ">", iv)
        if above is not None:
            if kind is BKind.ANCHOR:
                lo = above.map_affine((c + 1) / 2, d / 2).lo
                left.append(Interval(lo, None, False, False))
            else:
                hi = above.map_affine(2 * c - 1, 2 * d).hi
                left.append(Interval(above.lo, hi, False, False))
        below = _solve_affine(c - 1, d, "<", iv)
        if below is not None:
            if kind is BKind.ANCHOR:
                hi = below.map_affine((c + 1) / 2, d / 2).hi
                right.append(Interval(None, hi, False, False))
            else:
                lo = below.map_affine(2 * c - 1, 2 * d).lo
                right.append(Interval(lo, below.hi, False, False))
    return _as_set(left), _as_set(right)


def test_anchor_and_displacement_forms_match_their_closed_forms():
    """P1 and P2: each form is Falsified iff C & L & R is nonempty, and a
    Falsified witness u lies in that set."""
    for spec in _oracle_specs():
        domain = ClassSet.from_interval(spec.domain)
        for kind in (BKind.ANCHOR, BKind.DISPLACEMENT):
            left, right = _closed_form_sides(kind, spec)
            violating = domain.intersect(left).intersect(right)
            verdict = decide_b(kind, spec)
            falsified = verdict.status is Status.FALSIFIED
            assert falsified == (not violating.is_empty), (spec.label, kind)
            if falsified:
                assert violating.contains(verdict.witness.u), (spec.label, kind)


def _bump_map(n: int) -> MappingSpec:
    """n pieces on [0, 10] with breakpoints x_i = 10i/n, affine between
    y_i = 5 + (x_i - 5)/2 and that plus 1/n at odd i, for even n."""
    xs = [Fraction(10 * i, n) for i in range(n + 1)]
    ys = [5 + (x - 5) / 2 + Fraction(i % 2, n) for i, x in enumerate(xs)]
    pieces = []
    for i in range(n):
        slope = (ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
        over = Interval(xs[i], xs[i + 1], True, i == n - 1)
        pieces.append(Piece(over, AffineExpr(slope, ys[i] - slope * xs[i])))
    return MappingSpec(Interval.closed(0, 10), tuple(pieces))


def test_hull_sides_meet_in_a_count_flat_in_pieces(monkeypatch):
    """L and R are canonical unions, so on the bump map, where each joins
    into few pieces, the interval cuts of L & R do not grow with n; with
    one projection per piece they grew as n squared."""
    real, calls = intervals._intersect_iv, []
    monkeypatch.setattr(
        intervals, "_intersect_iv", lambda a, b: calls.append(a) or real(a, b)
    )
    counts = {}
    for n in (64, 256):
        spec = _bump_map(n)
        for kind in (BKind.ANCHOR, BKind.DISPLACEMENT):
            calls.clear()
            assert decide_b(kind, spec).status is Status.FALSIFIED
            counts[kind, n] = len(calls)
    for kind in (BKind.ANCHOR, BKind.DISPLACEMENT):
        assert counts[kind, 256] <= counts[kind, 64], counts
