"""Mapping text format: parse/serialize round-trips and located rejections."""

from fractions import Fraction
from pathlib import Path

import pytest

import kkmfix
from kkmfix.intervals import Interval
from kkmfix.mapdef import ParseError, parse, serialize
from kkmfix.mapping import AffineExpr, MappingSpec, Piece
from kkmfix.randmaps import random_specs
from kkmfix.scalars import ClassTag, QuadExt

_CORPUS_DIR = Path(kkmfix.__file__).parent / "data"


def test_roundtrip_corpus(corpus):
    for entry in corpus.values():
        assert parse(serialize(entry.spec)) == entry.spec


def test_roundtrip_generated():
    for spec in random_specs(100, seed=1):
        assert parse(serialize(spec)) == spec


def test_roundtrip_class_split_piece():
    iv = Interval.closed(0, 10)
    spec = MappingSpec(
        iv,
        (
            Piece(iv, AffineExpr(Fraction(1, 2), 0), ClassTag.RATIONAL),
            Piece(iv, AffineExpr(0, 3), ClassTag.IRRATIONAL),
        ),
    )
    assert serialize(spec) == (
        "domain [0, 10]\n"
        "piece [0, 10] rational: 1/2 x\n"
        "piece [0, 10] irrational: 3\n"
    )
    assert parse(serialize(spec)) == spec


@pytest.mark.parametrize(
    "label", ["  a  b ", "x # y", "a\nb", "a\x0cb", "a\x85b", "a\u2028b", " "]
)
def test_label_that_would_not_read_back_is_rejected(label):
    # each would come back from parse(serialize(spec)) cut short, stripped
    # or as an unknown directive
    iv = Interval.closed(0, 10)
    with pytest.raises(ValueError, match="does not read back"):
        MappingSpec(iv, (Piece(iv, AffineExpr(0, 3)),), label=label)


def test_parse_scalar_and_interval_forms():
    spec = parse(
        "label demo\n"
        "domain [0, inf)\n"
        "piece [0, 1 + 1/2*sqrt2) rational: -1/2 x + 3\n"
        "piece [0, 1 + 1/2*sqrt2) irrational: x\n"
        "piece [1 + 1/2*sqrt2, inf) all: 2\n"
        "override 1/2 -> 3/2\n"
    )
    assert spec.label == "demo"
    assert spec.domain.hi is None
    assert spec.pieces[0].over.hi == QuadExt(1, Fraction(1, 2))
    assert spec.evaluate(Fraction(1, 2)) == QuadExt(Fraction(3, 2))


def test_comments_and_blank_lines_ignored():
    spec = parse(
        "# mapping\n"
        "\n"
        "domain [0, 1]  # unit interval\n"
        "piece [0, 1] all: x  # identity\n"
    )
    assert spec.evaluate(1) == 1


@pytest.mark.parametrize(
    "text,line,reason_part",
    [
        ("domain [0, 10]\npiece [0, 10] all: 1/0 x\n", 2, "zero denominator"),
        ("domain [-inf, 10]\npiece (-inf, 10] all: 1\n", 1, "closed at -inf"),
        ("domain [0, 10]\npiece [0, 5] all: 1\n", 1, "covers 10"),
        ("domain [0, 10]\npiece [0, 10] all: 2 x\n", 2, "outside the domain"),
        ("domain [0, 10]\nfrobnicate\npiece [0, 10] all: 1\n", 2, "unknown directive"),
        ("domain [0, 10]\ndomain [0, 10]\npiece [0, 10] all: 1\n", 2, "twice"),
        ("piece [0, 10] all: 1\n", 1, "missing domain"),
        ("domain [0 10]\npiece [0, 10] all: 1\n", 1, "malformed interval"),
        ("domain [0, 10]\npiece [0, 10] all: 10 - x\n", 2, "malformed affine"),
        (
            "domain [0, 10]\npiece [0, 10] all: 1\noverride 3 -> 2\noverride 3 -> 4\n",
            4,
            "repeated",
        ),
        ("domain [0, 10]\npiece [0, 10] all: 1\noverride 3 -> 20\n", 3, "outside"),
    ],
)
def test_rejections_are_located(text, line, reason_part):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert reason_part in err.value.reason


def test_bare_domain_line_is_located():
    with pytest.raises(
        ParseError, match=r"^line 1, column 1: domain needs an interval$"
    ):
        parse("domain\npiece [0, 10] all: 1\n")


def test_gap_points_at_domain_line():
    text = "label g\ndomain [0, 10]\npiece [0, 5] all: 1\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == 2  # a gap belongs to no single piece


def test_validate_flag_defers_wellformedness():
    spec = parse("domain [0, 10]\npiece [0, 5] all: 1\n", validate=False)
    assert any(v.kind == "coverage-gap" for v in spec.validate())


def test_serialize_is_canonical(corpus):
    ex9 = corpus[9].spec
    text = serialize(ex9)
    assert text.splitlines()[0].startswith("label ")
    assert "domain [0, 10]" in text
    assert serialize(parse(text)) == text


def test_serialize_reproduces_every_corpus_file():
    """serialize(parse(text)) is the corpus file itself, less comments and
    blank lines, split class lines included."""
    for path in sorted(_CORPUS_DIR.glob("corpus*.map")):
        text = path.read_text(encoding="utf-8")
        kept = [line.split("#", 1)[0].rstrip() for line in text.splitlines()]
        expected = "".join(line + "\n" for line in kept if line.strip())
        assert serialize(parse(text)) == expected, path.name
