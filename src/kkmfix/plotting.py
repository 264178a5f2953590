"""Deterministic plot renderings of a mapping spec.

CSV tabulates both class branches, as ``mapping._branch_value`` reads
them, and the displacement at evenly spaced sample points.  SVG draws one
polyline per piece and class it serves, cut to the frame exactly by
``intervals._solve_affine``, the identity line, and the finite fixed
points.  Byte-identical output for identical inputs.
"""

from __future__ import annotations

import csv
import io

from .intervals import Interval, _intersect_iv, _solve_affine
from .mapping import MappingSpec, _branch_value
from .scalars import ClassTag, QuadExt, as_scalar, dist, format_scalar

FORMATS = ("svg", "csv")

_CSV_HEADER = (
    "x",
    "f_rational_branch",
    "f_irrational_branch",
    "residual",
    "x_exact",
    "f_rational_branch_exact",
    "f_irrational_branch_exact",
    "residual_exact",
)

_SIZE = 520.0
_PAD = 20.0


def plot_window(spec: MappingSpec) -> tuple[QuadExt, QuadExt]:
    """Bounded x-window of positive width: the domain, clipped to 20 units
    when one end is infinite and to [-10, 10] when both are, and widened by
    one unit either side when it is a single point."""
    lo, hi = spec.domain.lo, spec.domain.hi
    if lo is None and hi is None:
        return as_scalar(-10), as_scalar(10)
    if lo is None:
        return hi - 20, hi
    if hi is None:
        return lo, lo + 20
    if lo == hi:
        return lo - 1, hi + 1
    return lo, hi


def _map_value(spec: MappingSpec, x: QuadExt) -> QuadExt | None:
    """f(x) when defined."""
    try:
        return spec.evaluate(x)
    except ValueError:
        return None


def _dec(value: QuadExt | None) -> str:
    if value is None:
        return ""
    try:
        return format(float(value), ".10g")
    except OverflowError:  # beyond the float range, as float("inf") prints
        return "inf" if value > 0 else "-inf"


def _exact(value: QuadExt | None) -> str:
    if value is None:
        return ""
    return format_scalar(value)


def _samples(spec: MappingSpec, count: int) -> list[QuadExt]:
    lo, hi = plot_window(spec)
    if count == 1:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + step * i for i in range(count)]


def _csv_content(spec: MappingSpec, samples: int) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(_CSV_HEADER)
    for x in _samples(spec, samples):
        rat = _branch_value(spec.pieces, x, ClassTag.RATIONAL)
        irr = _branch_value(spec.pieces, x, ClassTag.IRRATIONAL)
        fx = _map_value(spec, x)
        res = dist(fx, x) if fx is not None else None
        writer.writerow(
            (
                _dec(x),
                _dec(rat),
                _dec(irr),
                _dec(res),
                _exact(x),
                _exact(rat),
                _exact(irr),
                _exact(res),
            )
        )
    return out.getvalue()


def _px(v: QuadExt, lo: QuadExt, hi: QuadExt) -> float:
    """The frame position of v: only the exact (v - lo)/(hi - lo) is a float."""
    return _PAD + float((v - lo) / (hi - lo)) * (_SIZE - 2 * _PAD)


def _py(v: QuadExt, lo: QuadExt, hi: QuadExt) -> float:
    return _SIZE - _PAD - float((v - lo) / (hi - lo)) * (_SIZE - 2 * _PAD)


def _svg_content(spec: MappingSpec) -> str:
    lo, hi = plot_window(spec)
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_SIZE:g}" height="{_SIZE:g}" '
        f'viewBox="0 0 {_SIZE:g} {_SIZE:g}">',
        f'<rect x="{_PAD:.2f}" y="{_PAD:.2f}" '
        f'width="{_SIZE - 2 * _PAD:.2f}" height="{_SIZE - 2 * _PAD:.2f}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<line class="identity" x1="{_px(lo, lo, hi):.2f}" '
        f'y1="{_py(lo, lo, hi):.2f}" x2="{_px(hi, lo, hi):.2f}" '
        f'y2="{_py(hi, lo, hi):.2f}" stroke="gray" stroke-dasharray="4 4"/>',
    ]
    window = Interval.closed(lo, hi)
    colors = {ClassTag.RATIONAL: "steelblue", ClassTag.IRRATIONAL: "firebrick"}
    for piece in spec.pieces:
        span = _intersect_iv(piece.over, window)
        if span is None or span.lo == span.hi:
            continue
        # the closed span's part where wlo <= f(x) <= whi: a piece that
        # reaches the frame only at an open end still draws that end
        slope, intercept = piece.expr
        seg = _solve_affine(slope, intercept - hi, "<=", span.closure())
        if seg is not None:
            seg = _solve_affine(slope, intercept - lo, ">=", seg)
        if seg is None:
            continue
        x1, x2 = seg.lo, seg.hi
        y1, y2 = piece.expr.at(x1), piece.expr.at(x2)
        for tag in colors if piece.tag is None else (piece.tag,):
            lines.append(
                f'<polyline class="{tag}-branch" points="'
                f'{_px(x1, lo, hi):.2f},{_py(y1, lo, hi):.2f} '
                f'{_px(x2, lo, hi):.2f},{_py(y2, lo, hi):.2f}" '
                f'fill="none" stroke="{colors[tag]}" stroke-width="2"/>'
            )
    for p in spec.fixed_point_set().finite_points() or ():
        if lo <= p <= hi:
            lines.append(
                f'<circle class="fixed-point" cx="{_px(p, lo, hi):.2f}" '
                f'cy="{_py(p, lo, hi):.2f}" r="4" fill="black"/>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_plot(spec: MappingSpec, format: str = "svg", samples: int = 101) -> str:
    """Render the spec as file content; raises ValueError on a bad format
    or a sample count that is not a positive int, for either format."""
    if format not in FORMATS:
        raise ValueError(f"unknown plot format: {format!r}")
    if samples.__class__ is not int or samples < 1:
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    if format == "csv":
        return _csv_content(spec, samples)
    return _svg_content(spec)
