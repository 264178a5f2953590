"""The hull projection as it stood before the sign table settled its
rows, kept as a test-only oracle for ``conditions.decide_b``.

It projects every term in x: the anchor term with the row f(x) > x and
the bound x < u that the sign table already implies, the displacement
term as two gauges s*h, h = f(x) - x, one of them always empty, and the
residual term with its two ball rows on x, rebuilt for every (u piece, x
piece) pair.  ``x_pieces``, ``gauges``, ``near_u`` and ``project_u`` are
copies of that code; only their names lost the leading underscore.
"""

from __future__ import annotations

import itertools

from kkmfix.conditions import BKind
from kkmfix.intervals import Interval, _solve_affine
from kkmfix.scalars import QuadExt

_ZERO, _ONE, _MINUS_ONE = QuadExt(0), QuadExt(1), QuadExt(-1)


def x_pieces(kind: BKind, signs) -> tuple[list, list]:
    """The rows of the sign table ``MappingSpec._signs`` as x pieces for
    ``near_u``, split into those usable below u and those usable above
    it: each is (interval, slope, intercept, lower bounds, upper bounds),
    the bounds on x as in ``project_u``.

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
                lo, hi, lo_closed, hi_closed = half
                lows = [] if lo is None else [(_ZERO, lo, not lo_closed)]
                highs = [] if hi is None else [(_ZERO, hi, not hi_closed)]
                out.append((half, c, d, lows, highs))
    return lefts, rights


def project_u(lows, highs, on_u, within: Interval) -> Interval | None:
    """The u in ``within`` with b*u + c < 0 (<= 0 unless strict) for each
    (b, c, strict) in ``on_u``, and some real x above every lower bound in
    ``lows`` and below every upper bound in ``highs``; a bound
    (s, i, strict) is s*u + i, passed strictly or not.

    Fourier-Motzkin (Dantzig and Eaves, J. Comb. Theory A 14, 1973): x
    exists iff every lower bound stays below every upper bound.  Each row
    cuts what the rows before it left, through ``_solve_affine``."""
    pairs = (
        (ls - hs, li - hi, l_strict or h_strict)
        for ls, li, l_strict in lows
        for hs, hi, h_strict in highs
    )
    for b, c, strict in itertools.chain(on_u, pairs):
        within = _solve_affine(b, c, "<" if strict else "<=", within)
        if within is None:
            return None
    return within


def gauges(kind: BKind, c, d, below: bool, k, m):
    """The bound g in a negative term |f(x) - u| < g, at the points x of a
    value piece f(x) = c*x + d lying below u (or above it), as triples
    (gx, gu, g0) with g = gx*x + gu*u + g0: the term is negative iff
    |f(x) - u| < g for one of them.

    Anchor: g = u - x below u and x - u above.  Displacement:
    g = |h| for h = (c - 1)x + d, and |f(x) - u| < |h| iff
    |f(x) - u| < s*h for s = 1 or -1; the strict inequality keeps s*h > 0,
    so no row for the sign is needed.  Residual: g = |f(u) - u| = k*u + m
    on one u-piece and sign of f(u) - u."""
    if kind is BKind.ANCHOR:
        return ((_MINUS_ONE, _ONE, _ZERO),) if below else ((_ONE, _MINUS_ONE, _ZERO),)
    if kind is BKind.DISPLACEMENT:
        return ((c - 1, _ZERO, d), (1 - c, _ZERO, -d))
    return ((_ZERO, k, m),)


_AT_U = (_ONE, _ZERO, True)  # the bound x < u, or x > u


def near_u(kind, x_pieces, k, m, below: bool, within: Interval) -> list:
    """The u in ``within`` with some x on one side of u, in one of the x
    pieces, such that |f(x) - u| < g."""
    out = []
    for (lo, hi, _, _), c, d, iv_lows, iv_highs in x_pieces:
        # x >= lo >= within.hi >= u (or the mirror) cannot hold
        if below:
            if lo is not None and within.hi is not None and lo >= within.hi:
                continue
        elif hi is not None and within.lo is not None and hi <= within.lo:
            continue
        for gx, gu, g0 in gauges(kind, c, d, below, k, m):
            lows, highs, on_u = list(iv_lows), list(iv_highs), []
            (highs if below else lows).append(_AT_U)
            # f(x) - u - g < 0 and u - f(x) - g < 0, each a*x + b*u + e < 0
            for a, b, e in (
                (c - gx, _MINUS_ONE - gu, d - g0),
                (-c - gx, _ONE - gu, -d - g0),
            ):
                if not a:
                    on_u.append((b, e, True))
                else:
                    neg = -a
                    (highs if a.sign() > 0 else lows).append((b / neg, e / neg, True))
            proj = project_u(lows, highs, on_u, within)
            if proj is not None:
                out.append(proj)
    return out
