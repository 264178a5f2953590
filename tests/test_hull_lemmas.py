"""The lemmas that let the sign table of f(x) - x settle all but one row
of the anchor and displacement hull terms, checked on rationals alone;
the lemmas P1 and C1 of ``decide_b``, checked on the corpus, seeded
random maps and the edge maps; and C1 with the lemmas C2 and C3 of
``decide_c2`` and ``run_theorem``, checked on small generated maps.  The
last two use public names only."""

from fractions import Fraction

import pytest

from kkmfix import (
    SQRT2,
    AffineExpr,
    BKind,
    ClassSet,
    ClassTag,
    Interval,
    MappingSpec,
    Piece,
    QuadExt,
    Status,
    check_onto,
    corpus_entry,
    decide_b,
    parse,
    random_specs,
)

from conftest import EDGE_MAPS

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_rationals = st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10**6)
_gaps = st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50)


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(_rationals, _gaps, _gaps)
@hypothesis.example(Fraction(0), Fraction(2), Fraction(1))  # x + f(x) = 2u
@hypothesis.example(Fraction(0), Fraction(1), Fraction(2))  # u = 2 f(x) - x
def test_sign_table_leaves_one_row_per_term(x, lift, reach):
    """With f(x) > x and x < u: |f(x) - u| < u - x iff x + f(x) < 2u, and
    |f(x) - u| < f(x) - x iff u < 2 f(x) - x; with f(x) < x and x > u,
    the mirrors."""
    fx, u = x + lift, x + reach
    assert (abs(fx - u) < u - x) == (x + fx < 2 * u)
    assert (abs(fx - u) < fx - x) == (u < 2 * fx - x)
    fx, u = x - lift, x - reach
    assert (abs(fx - u) < x - u) == (x + fx > 2 * u)
    assert (abs(fx - u) < x - fx) == (u > 2 * fx - x)


def _where_positive(k, d) -> ClassSet:
    """{x : k*x + d > 0}."""
    if not k:
        return ClassSet.from_interval(Interval.all()) if d > 0 else ClassSet()
    root = -d / k
    if k > 0:
        return ClassSet.from_interval(Interval(root, None, False, False))
    return ClassSet.from_interval(Interval(None, root, False, False))


def _side_extremes(spec):
    """(inf A, sup B, inf_A m, sup_B m) for A = {f > x}, B = {f < x} and
    m(x) = (x + f(x))/2 on a bounded C, or None when A or B is empty.
    Each value piece f(x) = c*x + d is cut at the root of (c - 1)x + d,
    and each extreme is taken at the ends of the parts: m is affine on a
    part, and a class is dense in each nondegenerate part."""
    ends = ([], [])  # (e, m(e)) at the ends of the parts of A, then of B
    for tag, iv, c, d in spec.value_pieces():
        points = ClassSet(
            () if tag is ClassTag.IRRATIONAL else (iv,),
            () if tag is ClassTag.RATIONAL else (iv,),
        )
        # f(x) - x > 0 on A's part, x - f(x) > 0 on B's
        for side, (k, b) in zip(ends, ((c - 1, d), (1 - c, -d))):
            part = points.intersect(_where_positive(k, b))
            for cut in part.rat + part.irr:
                side.extend((e, (e + c * e + d) / 2) for e in (cut.lo, cut.hi))
    above, below = ends
    if not above or not below:
        return None
    return (
        min(e for e, _ in above),
        max(e for e, _ in below),
        min(m for _, m in above),
        max(m for _, m in below),
    )


def _anchor_falsified_by_c1(spec) -> bool:
    """C1's answer under a Proven displacement form: some point of A lies
    left of a point of B."""
    extremes = _side_extremes(spec)
    return extremes is not None and extremes[0] < extremes[1]


def test_p1_and_c1_on_the_corpus_random_and_edge_maps():
    """P1: the anchor form fails iff inf_A m < sup_B m.  C1: under a
    Proven displacement form, it fails iff inf A < sup B."""
    specs = [corpus_entry(n).spec for n in range(1, 15)]
    specs += [*random_specs(1000, 0), *random_specs(300, 5)]
    specs += [parse(text) for text in EDGE_MAPS.values()]
    bounded = c1_premises = 0
    for spec in specs:
        if not spec.domain.is_bounded:
            continue
        bounded += 1
        anchor = decide_b(BKind.ANCHOR, spec).status is Status.FALSIFIED
        extremes = _side_extremes(spec)
        assert anchor == (extremes is not None and extremes[2] < extremes[3]), spec
        if decide_b(BKind.DISPLACEMENT, spec).status is Status.PROVEN:
            c1_premises += 1
            assert anchor == _anchor_falsified_by_c1(spec), spec
    assert bounded > 1300 and c1_premises > 0


# maps of 1-3 affine pieces on [0, 4], (0, 4], [0, 4) or (0, 4), through
# end values k/3; an end at 1 + sqrt2/2 is read as 3/2 for the line, which
# lies between its neighbours 4/3 and 2, so the coefficients stay rational
_BREAKS = (QuadExt(1), QuadExt(4) / 3, QuadExt(2), QuadExt(3), 1 + SQRT2 / 2)


def _line_end(e: QuadExt) -> Fraction:
    return e.a if e.is_rational else Fraction(3, 2)


@st.composite
def _small_maps(draw):
    lo_closed, hi_closed = draw(st.booleans()), draw(st.booleans())
    breaks = sorted(draw(st.lists(st.sampled_from(_BREAKS), max_size=2, unique=True)))
    # True where a breakpoint belongs to the piece on its left
    left = [draw(st.booleans()) for _ in breaks]
    ends = [QuadExt(0), *breaks, QuadExt(4)]
    flags = zip([lo_closed, *(not b for b in left)], [*left, hi_closed])
    pieces = []
    for lo, hi, (lo_c, hi_c) in zip(ends, ends[1:], flags):
        y = Fraction(draw(st.integers(0, 12)), 3)
        z = Fraction(draw(st.integers(0, 12)), 3)
        x0, x1 = _line_end(lo), _line_end(hi)
        slope = (z - y) / (x1 - x0)
        expr = AffineExpr(slope, y - slope * x0)
        pieces.append(Piece(Interval(lo, hi, lo_c, hi_c), expr))
    spec = MappingSpec(Interval(0, 4, lo_closed, hi_closed), pieces)
    hypothesis.assume(spec.validate() == [])
    return spec


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(_small_maps())
# onto, both forms Proven and no fixed point: f > id on all of (0, 4)
@hypothesis.example(
    parse(
        "domain (0, 4)\npiece (0, 1] all: 2 x\npiece (1, 4) all: 2/3 x + 4/3\n"
    )
)
def test_compact_and_one_signed_lemmas(spec):
    """C1: under the displacement form, the anchor form fails iff some
    point of A lies left of a point of B.  C2: on a compact C the
    displacement form gives a fixed point.  C3, the half a verdict shows:
    onto, the anchor or the displacement form and no fixed point leave C
    open at both ends."""
    dom = spec.domain
    fix_empty = spec.fixed_point_set().is_empty
    anchor, displacement = (
        decide_b(kind, spec).status is Status.PROVEN
        for kind in (BKind.ANCHOR, BKind.DISPLACEMENT)
    )
    if displacement:
        assert anchor != _anchor_falsified_by_c1(spec)
    if dom.is_bounded and dom.is_closed and displacement:
        assert not fix_empty
    onto = check_onto(spec).status is Status.PROVEN
    if onto and (anchor or displacement) and fix_empty:
        assert not dom.lo_closed and not dom.hi_closed
