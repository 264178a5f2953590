"""Text format for mapping specs.

Line oriented, ``#`` starts a comment, blank lines ignored::

    label optional free text
    domain [0, inf)
    piece (0, 3] all: 0
    piece (3, inf) rational: 2 x - 6
    override 0 -> 12

Intervals use ``[``/``(`` brackets with ``-inf``/``inf`` for unbounded
ends; endpoint and override scalars use the textual Q(sqrt 2) form
(``5/2``, ``1 - 1/3*sqrt2``).  A piece's class is ``rational``,
``irrational``, or ``all`` (both classes, same expression).  Its
expression is ``[c] x [+|- d]`` with rational ``c`` and ``d`` (``c`` may
be ``-``, and ``c*x`` reads too) or a rational constant, so ``10 - x``
is written ``-x + 10``.  The pieces and override sources together must
cover the domain, once per class; ``parse`` raises ParseError on
malformed lines and, unless told not to, on specs that fail
``MappingSpec.validate``.
"""

from __future__ import annotations

import re

from kkmfix.intervals import Interval, _bracket
from kkmfix.mapping import AffineExpr, MappingSpec, Piece, PointOverride
from kkmfix.scalars import _RAT, _URAT, ClassTag, _read_rat, format_scalar, parse_scalar


class ParseError(ValueError):
    """A mapdef text rejection, located by 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.reason = message
        self.line = line
        self.column = column


# a piece line's class word -> its class tag, None for both classes
_CLASS_WORDS = {
    "rational": ClassTag.RATIONAL,
    "irrational": ClassTag.IRRATIONAL,
    "all": None,
}
_PIECE_RE = re.compile(
    rf"piece\s+(?P<interval>.+?)\s+(?P<cls>{'|'.join(_CLASS_WORDS)})\s*:\s*(?P<expr>.*)$"
)
_OVERRIDE_RE = re.compile(r"override\s+(?P<at>.+?)\s*->\s*(?P<value>.+?)\s*$")
_INTERVAL_RE = re.compile(
    r"(?P<lob>[\[\(])\s*(?P<lo>[^,]+?)\s*,\s*(?P<hi>[^,]+?)\s*(?P<hib>[\]\)])$"
)
_AFFINE_RE = re.compile(
    rf"(?:(?P<coef>{_RAT}|-)\s*\*?\s*)?x(?:\s*(?P<op>[+-])\s*(?P<const>{_URAT}))?$"
    rf"|(?P<only>{_RAT})$"
)


def _parse_endpoint(text: str, infinite_word: str, lineno: int, col: int):
    if text == infinite_word:
        return None
    return _read_at(parse_scalar, text, lineno, col)


def _parse_interval(text: str, lineno: int, col: int) -> Interval:
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise ParseError(f"malformed interval {text!r}", lineno, col)
    lo = _parse_endpoint(m.group("lo"), "-inf", lineno, col + m.start("lo"))
    hi = _parse_endpoint(m.group("hi"), "inf", lineno, col + m.start("hi"))
    try:
        return Interval(lo, hi, m.group("lob") == "[", m.group("hib") == "]")
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def _parse_affine(text: str, lineno: int, col: int) -> AffineExpr:
    m = _AFFINE_RE.match(text)
    if m is None:
        raise ParseError(f"malformed affine expression {text!r}", lineno, col)
    if m.group("only") is not None:
        return AffineExpr(0, _read_at(_read_rat, m.group("only"), lineno, col))
    coef = m.group("coef")
    if coef is None:
        slope = 1
    elif coef == "-":
        slope = -1
    else:
        slope = _read_at(_read_rat, coef, lineno, col)
    const = 0
    if m.group("op"):
        const = _read_at(_read_rat, m.group("const"), lineno, col)
        if m.group("op") == "-":
            const = -const
    return AffineExpr(slope, const)


def _read_at(read, text: str, lineno: int, col: int):
    # read(text), with its ValueError as a ParseError at lineno, col
    try:
        return read(text)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, col) from None


def parse(text: str, validate: bool = True) -> MappingSpec:
    """Build a MappingSpec from mapdef text.

    With ``validate`` (the default), well-formedness violations raise
    ParseError pointing at the offending piece or override line."""
    domain: Interval | None = None
    domain_line = 0
    label = ""
    pieces: list[Piece] = []
    piece_lines: list[int] = []
    overrides: list[PointOverride] = []
    override_lines: list[int] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        body = line.strip()
        if not body:
            continue
        indent = len(line) - len(line.lstrip())
        word = body.split(None, 1)[0]
        if word == "label":
            label = body[len("label") :].strip()
        elif word == "domain":
            if domain is not None:
                raise ParseError("domain given twice", lineno, indent + 1)
            arg = body[len("domain") :].strip()
            col = indent + 1 + line.lstrip().find(arg) if arg else indent + 1
            if not arg:
                raise ParseError("domain needs an interval", lineno, indent + 1)
            domain = _parse_interval(arg, lineno, col)
            domain_line = lineno
        elif word == "piece":
            m = _PIECE_RE.match(body)
            if m is None:
                raise ParseError("malformed piece line", lineno, indent + 1)
            over = _parse_interval(
                m.group("interval"), lineno, indent + 1 + m.start("interval")
            )
            expr_text = m.group("expr").strip()
            if not expr_text:
                raise ParseError("piece needs an expression", lineno, indent + 1)
            expr = _parse_affine(expr_text, lineno, indent + 1 + m.start("expr"))
            pieces.append(Piece(over, expr, _CLASS_WORDS[m.group("cls")]))
            piece_lines.append(lineno)
        elif word == "override":
            m = _OVERRIDE_RE.match(body)
            if m is None:
                raise ParseError("malformed override line", lineno, indent + 1)
            at = _read_at(
                parse_scalar, m.group("at"), lineno, indent + 1 + m.start("at")
            )
            value = _read_at(
                parse_scalar, m.group("value"), lineno, indent + 1 + m.start("value")
            )
            overrides.append(PointOverride(at, value))
            override_lines.append(lineno)
        else:
            raise ParseError(f"unknown directive {word!r}", lineno, indent + 1)

    if domain is None:
        raise ParseError("missing domain", max(1, len(text.splitlines())))
    if not pieces and not overrides:
        raise ParseError("no pieces given", domain_line)
    spec = MappingSpec(domain, tuple(pieces), tuple(overrides), label)
    if validate:
        problems = spec.validate()
        if problems:
            v = problems[0]
            if v.piece_index is not None:
                at_line = piece_lines[v.piece_index]
            elif v.override_index is not None:
                at_line = override_lines[v.override_index]
            else:
                at_line = domain_line
            raise ParseError(v.message, at_line)
    return spec


def serialize(spec: MappingSpec) -> str:
    """Mapdef text for a spec, one line per piece and override; parse
    inverts it."""
    lines = []
    if spec.label:
        lines.append(f"label {spec.label}")
    lines.append(f"domain {_bracket(spec.domain)}")
    for piece in spec.pieces:
        cls = piece.tag or "all"
        lines.append(f"piece {_bracket(piece.over)} {cls}: {piece.expr}")
    for o in spec.overrides:
        lines.append(f"override {format_scalar(o.at)} -> {format_scalar(o.value)}")
    return "\n".join(lines) + "\n"
