"""Property tests for the mapping text format: every text drawn from a
small line grammar, malformed tokens mixed in, is either rejected with a
ParseError or parsed to a spec that serialize writes back exactly, and
every label is either rejected by MappingSpec or read back exactly."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from kkmfix.intervals import Interval  # noqa: E402
from kkmfix.mapdef import ParseError, parse, serialize  # noqa: E402
from kkmfix.mapping import AffineExpr, MappingSpec, Piece  # noqa: E402


# a small mapdef grammar on the domain [0, 10]: mostly well-formed tokens
# that often tile the domain, with malformed ones mixed in
def _mostly(good, bad):
    return st.sampled_from(good * 4 + bad)


_SCALARS = _mostly(
    ("0", "5", "10", "5/2", "sqrt2", "1 + 1/3*sqrt2"), ("1/0", "3x", "abc", "-2", "inf")
)
_INTERVALS = _mostly(
    ("[0, 10]", "[0, 5]", "(5, 10]", "[0, 5)", "[5, 10]", "[0, sqrt2)", "[sqrt2, 10]"),
    ("[-inf, 5]", "(0, inf]", "(5, 5)", "[10, 0]", "[0 10]", "[0, 1/0]", "(3x, 10)", "0, 10"),
)
_CLASSES = _mostly(("rational", "irrational", "all"), ("both", "Rational"))
_EXPRS = _mostly(
    ("x", "-x + 10", "1/2 x", "1/2 x + 5", "5", "0", "-5/3*x + 10"),
    ("1/0 x", "3x", "x + 1/0", "sqrt2", "2 x", ""),
)
_OVERRIDES = st.builds("override {} -> {}".format, _SCALARS, _SCALARS)
_OTHER = _mostly(
    ("label demo", "label two  words", "# note", "", "domain [0, 10]"),
    ("frobnicate 3", "piece", "piece [0, 10] all 1", "override 3", "domain"),
)
_LINES = st.one_of(
    *[st.builds("piece {} {}: {}".format, _INTERVALS, _CLASSES, _EXPRS)] * 3,
    _OVERRIDES,
    _OTHER,
)
_TILINGS = st.sampled_from(
    (("[0, 10]",), ("[0, 5]", "(5, 10]"), ("[0, 5)", "[5, 10]"), ("[0, sqrt2)", "[sqrt2, 10]"))
)


@st.composite
def _tiled(draw):
    """Pieces that cover [0, 10] once per class, then overrides and others."""
    lines = []
    for iv in draw(_TILINGS):
        classes = ("all",) if draw(st.booleans()) else ("rational", "irrational")
        lines += [f"piece {iv} {c}: {draw(_EXPRS)}" for c in classes]
    return lines + draw(st.lists(st.one_of(_OVERRIDES, _OTHER), max_size=3))


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(
    _mostly(("domain [0, 10]",), ("", "domain (0, 10)")),
    st.one_of(st.lists(_LINES, max_size=6), _tiled()),
)
def test_parse_rejects_or_round_trips(head, lines):
    text = "\n".join([head, *lines]) + "\n"
    for validate in (True, False):
        try:
            spec = parse(text, validate=validate)
        except ParseError:
            continue
        assert parse(serialize(spec), validate=validate) == spec


# spaces, a comment mark and every kind of line break str.splitlines
# knows, among plain letters and a tab
_LABEL_CHARS = "ab #\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(st.text(alphabet=_LABEL_CHARS, max_size=6))
def test_label_is_rejected_or_read_back(label):
    iv = Interval.closed(0, 10)
    try:
        spec = MappingSpec(iv, (Piece(iv, AffineExpr(0, 3)),), label=label)
    except ValueError:
        return
    assert parse(serialize(spec)) == spec
