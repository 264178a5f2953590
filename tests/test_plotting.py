"""Plot rendering: CSV tabulation, SVG structure, and determinism."""

from fractions import Fraction

import pytest

from kkmfix import (
    AffineExpr,
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
