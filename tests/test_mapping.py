"""Mapping specs: evaluation, self-map validity, exact images and fixed
points, displacement infimum, and violation reporting."""

import random
from fractions import Fraction

import pytest

from kkmfix.intervals import ClassSet, Interval, _intersect_iv, tagged
from kkmfix.kkm import default_gap_delta
from kkmfix.mapdef import parse, serialize
from kkmfix.mapping import AffineExpr, MappingSpec, Piece, PointOverride
from kkmfix.randmaps import random_specs
from kkmfix.scalars import SQRT2, ClassTag, QuadExt, class_of

from conftest import EDGE_MAPS, rand_point_in


def _fraction_text(s: Fraction, c: Fraction) -> str:
    """An affine branch's text, formatted from Fraction coefficients."""
    if not s:
        return str(c)
    head = "x" if s == 1 else ("-x" if s == -1 else f"{s} x")
    if not c:
        return head
    return f"{head} + {c}" if c > 0 else f"{head} - {-c}"


def test_affine_expr_holds_rational_quadext(corpus):
    e = AffineExpr(Fraction(3, 2), -2)
    assert e.slope.__class__ is QuadExt and e.intercept.__class__ is QuadExt
    assert e.slope == Fraction(3, 2) and e.intercept == Fraction(-2) == -2
    same = AffineExpr(Fraction(6, 4), Fraction(-2))
    assert e == same and hash(e) == hash(same)
    assert e.at(2) == 1 and e.at(Fraction(1, 3)) == Fraction(-3, 2)
    assert e.at(SQRT2) == QuadExt(-2, Fraction(3, 2))
    for bad in (SQRT2, SQRT2 + 1, 0.5):
        with pytest.raises(TypeError):
            AffineExpr(bad, 0)
        with pytest.raises(TypeError):
            AffineExpr(0, bad)
    branches = [
        piece.expr for entry in corpus.values() for piece in entry.spec.pieces
    ]
    assert len(branches) > 14
    for expr in branches:
        assert str(expr) == _fraction_text(expr.slope.a, expr.intercept.a)


def test_corpus_specs_are_self_maps(corpus):
    rng = random.Random(61)
    for entry in corpus.values():
        spec = entry.spec
        assert spec.validate() == []
        dom = ClassSet.from_interval(spec.domain)
        for _ in range(1000):
            x = rand_point_in(rng, spec.domain)
            assert dom.contains(spec.evaluate(x))


def test_image_membership_matches_pointwise(corpus):
    rng = random.Random(67)
    for n in (1, 2, 4, 8, 9, 12, 14):
        spec = corpus[n].spec
        img = spec.image()
        for _ in range(1000):
            x = rand_point_in(rng, spec.domain)
            assert img.contains(spec.evaluate(x))


def test_evaluate_pins(corpus):
    ex9 = corpus[9].spec
    assert ex9.evaluate(3) == 1 and ex9.evaluate(7) == 9  # overrides win
    assert ex9.evaluate(5) == 5
    assert ex9.evaluate(0) == 10
    ex2 = corpus[2].spec
    root2 = QuadExt(0, 1)
    assert ex2.evaluate(root2) == root2 * Fraction(3, 4)  # irrational branch
    assert ex2.evaluate(2) == 1  # rational branch
    ex12 = corpus[12].spec
    assert ex12.evaluate(10) == 4  # completing override


def test_fixed_point_pins(corpus):
    want = {1: (6,), 2: (0, 5), 4: (), 5: (), 8: (0, 10), 9: (5,), 13: ()}
    for n, pts in want.items():
        assert corpus[n].spec.fixed_points() == tuple(QuadExt(p) for p in pts)


def test_identity_has_infinite_fixed_set():
    spec = MappingSpec(
        Interval.closed(0, 1),
        (Piece(Interval.closed(0, 1), AffineExpr(Fraction(1), Fraction(0))),),
    )
    assert spec.fixed_point_set() == ClassSet.from_interval(Interval.closed(0, 1))
    with pytest.raises(ValueError):
        spec.fixed_points()


def test_inf_residual_pins(corpus):
    assert corpus[5].spec.inf_residual() == 1
    assert corpus[9].spec.inf_residual() == 0
    assert corpus[14].spec.inf_residual() == 2
    assert corpus[12].spec.inf_residual() == 1
    # the root of x/2 - x sits at the open end 0: approached, not attained
    halving = parse("domain (0, 1]\npiece (0, 1] all: 1/2 x\n")
    assert halving.inf_residual() == 0
    assert default_gap_delta(halving) is None
    shift = parse("domain (-inf, inf)\npiece (-inf, inf) all: x + 1\n")
    assert shift.inf_residual() == 1
    assert default_gap_delta(shift) == 2


def test_piece_is_one_expression_for_one_class_or_both():
    iv, expr = Interval.closed(0, 1), AffineExpr(Fraction(1), Fraction(0))
    assert Piece._fields == ("over", "expr", "tag")
    assert Piece(iv, expr).tag is None
    assert Piece(iv, expr, ClassTag.IRRATIONAL).tag is ClassTag.IRRATIONAL
    with pytest.raises(TypeError):
        Piece(iv, expr, expr)  # a second expression where the tag goes


def test_validate_reports_escape_and_gaps():
    dom = Interval.closed(0, 10)
    expr = AffineExpr(Fraction(2), Fraction(0))
    escaping = MappingSpec(dom, (Piece(dom, expr),))
    assert any(v.kind == "not-self-map" for v in escaping.validate())

    half = Piece(Interval(QuadExt(0), QuadExt(5), True, True),
                 AffineExpr(Fraction(0), Fraction(1)))
    gappy = MappingSpec(dom, (half,))
    assert any(v.kind == "coverage-gap" for v in gappy.validate())

    other = Piece(Interval(QuadExt(3), QuadExt(10), True, True),
                  AffineExpr(Fraction(0), Fraction(2)))
    overlapping = MappingSpec(dom, (half, other))
    assert any(v.kind == "coverage-overlap" for v in overlapping.validate())

    dupes = MappingSpec(
        dom,
        (Piece(dom, AffineExpr(Fraction(0), Fraction(1))),),
        (PointOverride(0, 2), PointOverride(0, 3)),
    )
    assert any(v.kind == "override-duplicate" for v in dupes.validate())


def test_evaluate_off_every_branch_raises():
    # an unvalidated map may leave part of its domain without a piece
    spec = parse("domain [0, 10]\npiece [0, 5) all: x + 1\n", validate=False)
    with pytest.raises(ValueError) as err:
        spec.evaluate(7)
    assert str(err.value) == "no branch covers 7"


def test_residual_is_displacement(corpus):
    ex13 = corpus[13].spec
    assert ex13.residual(0) == 10
    assert ex13.residual(QuadExt(5)) == 1
    assert ex13.residual(QuadExt(2)) == QuadExt(2) - QuadExt(Fraction(8, 5))


def _cells(spec, tag):
    return [(str(iv), str(expr)) for iv, expr in spec.class_cells(tag)]


def test_class_cells_open_wrong_class_ends():
    # rational ends 0 and 10 leave the irrational cell open; the [5, 5]
    # irrational piece holds no irrational point and gives no cell
    spec = parse(
        "domain [0, 10]\n"
        "piece [0, 10] all: -x + 10\n"
        "piece [5, 5] irrational: 7\n"
    )
    assert _cells(spec, ClassTag.RATIONAL) == [("[0, 10]", "-x + 10")]
    assert _cells(spec, ClassTag.IRRATIONAL) == [("(0, 10)", "-x + 10")]


def test_class_cells_keep_one_cell_per_map_line():
    # two adjacent lines with one branch are not joined
    spec = parse(
        "domain [0, 2]\n"
        "piece [0, 1) all: 1/2 x\n"
        "piece [1, 2] all: 1/2 x\n"
    )
    assert _cells(spec, ClassTag.RATIONAL) == [("[0, 1)", "1/2 x"), ("[1, 2]", "1/2 x")]


def test_class_cells_split_at_sqrt2():
    spec = parse(
        "domain [0, 4]\n"
        "piece [0, sqrt2] all: x + 1\n"
        "piece (sqrt2, 4] all: -x + 4\n"
    )
    rat = [iv for iv, _ in spec.class_cells(ClassTag.RATIONAL)]
    irr = [iv for iv, _ in spec.class_cells(ClassTag.IRRATIONAL)]
    assert rat == [Interval(0, SQRT2, True, False), Interval(SQRT2, 4, False, True)]
    assert irr == [Interval(0, SQRT2, False, True), Interval(SQRT2, 4, False, False)]
    assert [str(e) for _, e in spec.class_cells(ClassTag.RATIONAL)] == ["x + 1", "-x + 4"]


def test_class_cells_cut_out_override_sources(corpus):
    # entry 3 overrides 0 and 5: both leave the rational cells, and the
    # irrational cells are already open at these rational points
    spec = corpus[3].spec
    assert _cells(spec, ClassTag.RATIONAL) == [
        ("(0, 4]", "1/2 x"),
        ("(4, 5)", "3 x - 10"),
        ("(5, 6]", "3 x - 10"),
        ("(6, inf)", "3/2 x - 1"),
    ]
    assert _cells(spec, ClassTag.IRRATIONAL) == [
        ("(0, 4)", "3/4 x"),
        ("(4, 6)", "2 x - 5"),
        ("(6, inf)", "5/4 x - 1/2"),
    ]


def test_value_pieces_order(corpus):
    # class cells in class_cells order, then each override as a point
    spec = corpus[3].spec
    pieces = spec.value_pieces()
    cells = [
        (tag, iv, expr.slope, expr.intercept)
        for tag in (ClassTag.RATIONAL, ClassTag.IRRATIONAL)
        for iv, expr in spec.class_cells(tag)
    ]
    points = [(None, Interval.point(o.at), 0, o.value) for o in spec.overrides]
    assert len(points) == 2
    assert list(pieces) == cells + points
    assert pieces is spec.value_pieces()


_HAND_MAPS = (
    # unbounded domain, class-split branches
    "domain (-inf, inf)\n"
    "piece (-inf, 0) all: -x\n"
    "piece [0, inf) rational: 1/2 x + 1\n"
    "piece [0, inf) irrational: 2 x\n"
    "override 3 -> 0\n",
    # half-open domain, an override at the closed end
    "domain (0, 4]\n"
    "piece (0, 2) all: 1/2 x\n"
    "piece [2, 4] rational: 4\n"
    "piece [2, 4] irrational: -x + 4\n"
    "override 4 -> 1\n",
    # breakpoints at sqrt2
    "domain [0, 4]\n"
    "piece [0, sqrt2) rational: x + 1\n"
    "piece [0, sqrt2] irrational: 2\n"
    "piece [sqrt2, 4] rational: -x + 4\n"
    "piece (sqrt2, 4] irrational: 1/2 x\n",
    # overrides on piece ends
    "domain [0, 3]\n"
    "piece [0, 1] all: x + 1\n"
    "piece (1, 3] all: -x + 3\n"
    "override 1 -> 3\n"
    "override 3 -> 0\n",
)


def test_value_pieces_give_evaluate():
    """The entry holding x in x's class, or x's override, is the only entry
    holding x, and gives f(x), at rational and q + k*sqrt2/2^n points."""
    rng = random.Random(83)
    specs = [parse(text) for text in _HAND_MAPS] + list(random_specs(40, seed=11))
    for spec in specs:
        pieces = spec.value_pieces()
        xs = [rand_point_in(rng, spec.domain) for _ in range(60)]
        xs += [
            end
            for _, iv, _, _ in pieces
            for end in (iv.lo, iv.hi)
            if end is not None and spec.domain.contains(end)
        ]
        for x in xs:
            holding = [
                (slope, intercept)
                for tag, iv, slope, intercept in pieces
                if tag in (None, class_of(x)) and iv.contains(x)
            ]
            assert len(holding) == 1, (spec.label, x)
            slope, intercept = holding[0]
            assert slope * x + intercept == spec.evaluate(x), (spec.label, x)


def _sign_samples(iv: Interval, slope, intercept) -> list[QuadExt]:
    """Points at and around the finite ends of iv and the root of
    (slope - 1)x + intercept: each mark, mark +- 1/2^n and mark +-
    sqrt2/2^n, so rationals and q + sqrt2/2^n points on both sides."""
    marks = [t for t in (iv.lo, iv.hi) if t is not None]
    if slope != 1:
        marks.append(intercept / (1 - slope))
    if iv.lo is None or iv.hi is None:
        marks += [m + d for m in marks or [QuadExt(0)] for d in (-5, 5)]
    steps = [QuadExt(Fraction(1, 2**n)) for n in (1, 4, 9)]
    steps += [SQRT2 / 2**n for n in (1, 4, 9)]
    return [m + s for m in marks for s in (0, *steps, *(-t for t in steps))]


def test_sign_table_matches_its_definition(corpus):
    """Per value piece, pos, zero and neg are disjoint, their class points
    make up the piece's, and each holds exactly the sampled class points
    of the piece where f(x) - x is > 0, = 0 or < 0."""
    specs = [e.spec for e in corpus.values()] + list(random_specs(300, seed=3))
    specs += [parse(text) for text in EDGE_MAPS.values()]
    signs = {1: 0, 0: 0, -1: 0}
    for spec in specs:
        table = spec._signs
        assert [row[:4] for row in table] == list(spec.value_pieces())
        for tag, iv, slope, intercept, *parts in table:
            held = [p for p in parts if p is not None]
            for i, a in enumerate(held):
                for b in held[i + 1 :]:
                    assert _intersect_iv(a, b) is None, (serialize(spec), iv)
            assert tagged((tag, p) for p in held) == tagged([(tag, iv)])
            for x in _sign_samples(iv, slope, intercept):
                if not iv.contains(x) or tag not in (None, class_of(x)):
                    continue
                sign = (spec.evaluate(x) - x).sign()
                signs[sign] += 1
                for part, want in zip(parts, (1, 0, -1)):
                    inside = part is not None and part.contains(x)
                    assert inside == (sign == want), (serialize(spec), iv, x)
    assert min(signs.values()) > 100, signs
