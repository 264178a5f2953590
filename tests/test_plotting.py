"""Plot rendering: CSV tabulation, SVG structure, and determinism."""

import math
import random
import re
from fractions import Fraction

import pytest

from kkmfix import (
    AffineExpr,
    ClassTag,
    Interval,
    MappingSpec,
    Piece,
    QuadExt,
    emit_plot,
    parse,
    plot_window,
    random_spec,
)

_IDENTITY = MappingSpec(
    Interval.closed(0, 1),
    (Piece(Interval.closed(0, 1), AffineExpr(1, 0)),),
    label="identity on the unit interval",
)


def _rows(content):
    return [line.split(",") for line in content.split("\r\n") if line]


def test_plot_window_pins(corpus):
    assert plot_window(corpus[9].spec) == (QuadExt(0), QuadExt(10))
    # one-sided domain: clipped to 20 units from the finite end
    assert plot_window(corpus[1].spec) == (QuadExt(0), QuadExt(20))
    # unbounded both ways: fixed [-10, 10] window
    assert plot_window(corpus[5].spec) == (QuadExt(-10), QuadExt(10))
    # unbounded below: 20 units down from the finite end
    spec = parse("domain (-inf, 0]\npiece (-inf, 0] all: x\n")
    assert plot_window(spec) == (QuadExt(-20), QuadExt(0))


def test_csv_header_and_sample_rows(corpus):
    content = emit_plot(corpus[9].spec, format="csv", samples=11)
    rows = _rows(content)
    assert rows[0] == [
        "x",
        "f_rational_branch",
        "f_irrational_branch",
        "residual",
        "x_exact",
        "f_rational_branch_exact",
        "f_irrational_branch_exact",
        "residual_exact",
    ]
    assert len(rows) == 12
    by_x = {row[0]: row for row in rows[1:]}
    assert by_x["5"] == ["5", "5", "5", "0", "5", "5", "5", "0"]
    # x = 3 is served by an override alone: branch cells stay empty but the
    # displacement |f(3) - 3| = |1 - 3| is still reported
    assert by_x["3"] == ["3", "", "", "2", "3", "", "", "2"]
    assert by_x["0"] == ["0", "10", "10", "10", "0", "10", "10", "10"]


def test_csv_sample_grid(corpus):
    one = _rows(emit_plot(corpus[9].spec, format="csv", samples=1))
    assert len(one) == 2 and one[1][0] == "0"
    five = _rows(emit_plot(corpus[2].spec, format="csv", samples=5))
    assert [row[0] for row in five[1:]] == ["0", "5", "10", "15", "20"]


def test_csv_identity_map():
    rows = _rows(emit_plot(_IDENTITY, format="csv", samples=3))
    assert [row[4] for row in rows[1:]] == ["0", "1/2", "1"]
    assert all(row[3] == "0" and row[7] == "0" for row in rows[1:])


def test_csv_exact_and_decimal_columns_agree(corpus):
    from kkmfix import parse_scalar

    for row in _rows(emit_plot(corpus[9].spec, format="csv", samples=21))[1:]:
        for dec, exact in zip(row[:4], row[4:]):
            assert (dec == "") == (exact == "")
            if exact:
                assert dec == format(float(parse_scalar(exact)), ".10g")


def test_svg_structure(corpus):
    svg = emit_plot(corpus[2].spec, format="svg")
    assert svg.startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert svg.endswith("</svg>\n")
    assert svg.count("<rect") == 1
    assert svg.count('class="identity"') == 1
    assert 'stroke-dasharray="4 4"' in svg
    # one polyline per piece inside the window and class it serves
    lo, hi = plot_window(corpus[2].spec)
    expected = 0
    for piece in corpus[2].spec.pieces:
        span_lo = piece.over.lo if piece.over.lo is not None else lo
        span_hi = piece.over.hi if piece.over.hi is not None else hi
        if max(span_lo, lo) >= min(span_hi, hi):
            continue
        expected += 2 if piece.tag is None else 1
    assert svg.count("<polyline") == expected == 6
    assert 'class="rational-branch"' in svg
    assert 'class="irrational-branch"' in svg


def test_svg_drops_a_branch_above_the_frame():
    # on the window [0, 20] the branch runs from 100 to 120, all clipped away
    spec = parse("domain [0, inf)\npiece [0, inf) all: x + 100\n")
    svg = emit_plot(spec, format="svg")
    assert svg.count("<polyline") == 0
    assert svg.count('class="identity"') == 1


def test_svg_fixed_point_circles(corpus):
    assert emit_plot(corpus[9].spec).count('class="fixed-point"') == 1
    assert emit_plot(corpus[8].spec).count('class="fixed-point"') == 2
    assert emit_plot(corpus[4].spec).count('class="fixed-point"') == 0
    # infinitely many fixed points: no circles rather than an endless list
    assert emit_plot(_IDENTITY).count('class="fixed-point"') == 0


def test_svg_coordinates_stay_in_frame(corpus):
    for n in (1, 2, 5, 9):
        svg = emit_plot(corpus[n].spec, format="svg")
        for chunk in svg.split('points="')[1:]:
            for pair in chunk.split('"')[0].split():
                x, y = (float(v) for v in pair.split(","))
                assert 20.0 - 1e-9 <= x <= 500.0 + 1e-9
                assert 20.0 - 1e-9 <= y <= 500.0 + 1e-9


def _steep_spec(rng: random.Random) -> MappingSpec:
    """Pieces of slope +-2 to +-12 through random points near the window, on
    a two-sided or one-sided domain whose finite ends may lie in Q(sqrt2)
    outside Q; some branches miss the frame, most run past it."""
    sqrt2_parts = (0, 1, -1, Fraction(1, 2))
    lo = QuadExt(Fraction(rng.randint(-20, 20), 4), rng.choice(sqrt2_parts))
    hi = lo + QuadExt(Fraction(rng.randint(8, 60), 4), rng.choice(sqrt2_parts[:3]))
    shape = rng.choice(("two-sided", "above", "below"))
    if shape == "above":
        domain, hi = Interval(lo, None, rng.random() < 0.5, False), lo + 20
    elif shape == "below":
        domain, lo = Interval(None, hi, False, rng.random() < 0.5), hi - 20
    else:
        domain = Interval(lo, hi, rng.random() < 0.5, rng.random() < 0.5)
    cuts = sorted({lo + (hi - lo) * Fraction(rng.randint(1, 7), 8) for _ in range(2)})
    ends = [domain.lo, *cuts[: rng.randint(0, 2)], domain.hi]
    pieces = []
    for i in range(len(ends) - 1):
        first, last = i == 0, i == len(ends) - 2
        cell = Interval(
            ends[i], ends[i + 1],
            domain.lo_closed if first else True, domain.hi_closed if last else False,
        )
        mid = lo + (hi - lo) * Fraction(2 * i + 1, 2 * (len(ends) - 1))
        x0 = Fraction(round(float(mid)))
        tags = (None,) if rng.random() < 0.7 else tuple(ClassTag)
        for tag in tags:
            slope = Fraction(rng.choice((-1, 1)) * rng.randint(4, 24), 2)
            y = lo + (hi - lo) * Fraction(rng.randint(-6, 26), 20)
            y0 = Fraction(round(float(y) * 8), 8)
            pieces.append(Piece(cell, AffineExpr(slope, y0 - slope * x0), tag))
    return MappingSpec(domain, pieces)


def _steep_specs(count: int, seed: int) -> list[MappingSpec]:
    rng = random.Random(seed)
    return [_steep_spec(rng) for _ in range(count)]


# in each, one branch meets the frame only at an open end of its piece: on
# the top edge rising and falling, then on the bottom edge falling and rising
_TOUCHING = [
    parse(
        f"domain [0, 10]\npiece {first} all: {f}\npiece {second} all: {g}\n",
        validate=False,
    )
    for first, f, second, g in (
        ("[0, 5]", "x", "(5, 10]", "2 x"),
        ("[0, 5)", "-2 x + 20", "[5, 10]", "x"),
        ("[0, 5]", "x", "(5, 10]", "-2 x + 10"),
        ("[0, 5)", "2 x - 10", "[5, 10]", "x"),
    )
]


def _polylines(svg):
    """(class tag, [(x, y), (x, y)]) per polyline, in drawing order."""
    out = []
    for chunk in svg.split('<polyline class="')[1:]:
        points = chunk.split('points="')[1].split('"')[0].split()
        ends = [tuple(map(float, p.split(","))) for p in points]
        out.append((chunk.split("-branch")[0], ends))
    return out


def _check_clip(spec):
    """Each piece draws, once per class it serves, the part of its branch
    over the closure of its window part that lies in the frame: each drawn
    end is in the frame and on the branch, and sits on the window's edge
    where the branch runs on past the frame there.  Checked to 0.01 px."""
    wlo, whi = plot_window(spec)
    lo, hi = float(wlo), float(whi)
    scale = 480 / (hi - lo)

    def px(x):
        return 20 + (float(x) - lo) * scale

    def py(y):
        return 500 - (float(y) - lo) * scale

    expected = []
    for piece in spec.pieces:
        over = piece.over
        a = wlo if over.lo is None else max(over.lo, wlo)
        b = whi if over.hi is None else min(over.hi, whi)
        fa, fb = piece.expr.at(a), piece.expr.at(b)
        if a >= b or max(fa, fb) < wlo or min(fa, fb) > whi:
            continue
        for tag in ClassTag if piece.tag is None else (piece.tag,):
            expected.append((str(tag), (px(a), py(fa)), (px(b), py(fb)), fa, fb))
    drawn = _polylines(emit_plot(spec))
    assert [tag for tag, _ in drawn] == [e[0] for e in expected]
    for (_, ends), (_, (ax, ay), (bx, by), fa, fb) in zip(drawn, expected):
        (x1, y1), (x2, y2) = ends
        assert x1 <= x2
        for x, y in ends:
            assert 19.99 <= x <= 500.01 and 19.99 <= y <= 500.01
            # distance from (x, y) to the branch's segment over the span
            t = ((x - ax) * (bx - ax) + (y - ay) * (by - ay)) / (
                (bx - ax) ** 2 + (by - ay) ** 2
            )
            t = min(max(t, 0.0), 1.0)
            assert math.hypot(x - ax - t * (bx - ax), y - ay - t * (by - ay)) <= 0.01
        for (x, y), end_x, f_end in ((ends[0], ax, fa), (ends[1], bx, fb)):
            if wlo <= f_end <= whi:
                assert abs(x - end_x) <= 0.01
            else:
                assert min(abs(y - 20), abs(y - 500)) <= 0.01


def test_svg_clips_each_branch_to_the_frame_by_definition():
    specs = _steep_specs(400, seed=7)
    slopes = {p.expr.slope.sign() for s in specs for p in s.pieces}
    assert slopes == {-1, 1}
    assert {(s.domain.lo is None, s.domain.hi is None) for s in specs} == {
        (False, False), (False, True), (True, False)
    }
    assert any(not e.is_rational for s in specs for e in s.domain[:2] if e is not None)
    for spec in specs + _TOUCHING:
        _check_clip(spec)
    for spec in _TOUCHING:
        # the one point where the branch meets the frame is drawn
        assert any(a == b for _, (a, b) in _polylines(emit_plot(spec)))


def test_svg_identity_line_spans_frame(corpus):
    svg = emit_plot(corpus[5].spec, format="svg")
    assert 'x1="20.00" y1="500.00" x2="500.00" y2="20.00"' in svg


def test_byte_determinism(corpus):
    specs = (corpus[2].spec, corpus[9].spec, random_spec(42))
    for spec in specs:
        assert emit_plot(spec, format="svg") == emit_plot(spec, format="svg")
        assert emit_plot(spec, format="csv", samples=37) == emit_plot(
            spec, format="csv", samples=37
        )


def test_rejects_bad_arguments(corpus):
    with pytest.raises(ValueError):
        emit_plot(corpus[9].spec, format="png")
    with pytest.raises(ValueError):
        emit_plot(corpus[9].spec, format="csv", samples=0)
    with pytest.raises(ValueError):
        emit_plot(corpus[9].spec, format="csv", samples=-3)
    # a count that is not an int, a bool included, is named in either format
    for fmt in ("csv", "svg"):
        for samples in (2.5, 3.0, "3", True, Fraction(3)):
            with pytest.raises(ValueError, match=f"got {re.escape(repr(samples))}$"):
                emit_plot(corpus[9].spec, format=fmt, samples=samples)


def test_fraction_samples_render_exactly():
    spec = MappingSpec(
        Interval.closed(0, Fraction(1, 3)),
        (
            Piece(Interval.closed(0, Fraction(1, 3)), AffineExpr(0, Fraction(1, 4))),
        ),
    )
    rows = _rows(emit_plot(spec, format="csv", samples=3))
    assert [row[4] for row in rows[1:]] == ["0", "1/6", "1/3"]
    assert all(row[5] == "1/4" for row in rows[1:])


def test_one_point_domain_renders():
    spec = parse("domain [0, 0]\npiece [0, 0] all: 0\n")
    assert plot_window(spec) == (QuadExt(-1), QuadExt(1))
    svg = emit_plot(spec, format="svg")
    assert svg.count("<polyline") == 0
    # the one fixed point sits in the middle of the frame
    assert '<circle class="fixed-point" cx="260.00" cy="260.00"' in svg
    rows = _rows(emit_plot(spec, format="csv", samples=3))
    assert [row[4] for row in rows[1:]] == ["-1", "0", "1"]
    # the map is defined only at 0
    assert [row[7] for row in rows[1:]] == ["", "0", ""]


def test_decimal_column_of_values_with_huge_parts():
    """A value inside the float range whose parts are not prints as its
    nearest float, and one past the range as inf."""
    from kkmfix.plotting import _dec
    from kkmfix.scalars import SQRT2

    tiny = QuadExt(1)
    for _ in range(1100):
        tiny = tiny * (SQRT2 - 1)  # about 10^-421, parts of 421 digits
    assert _dec(tiny) == "0"
    assert _dec(tiny * 10**400) == "8.845983569e-22"
    assert _dec(1 / tiny) == "inf"
    assert _dec(-1 / tiny) == "-inf"
