"""The package's records are named tuples whose ``__new__`` checks or
converts each field, so every way of making one checks it: the
constructor, ``_make``, ``_replace`` and unpickling at every protocol."""

import pickle
from fractions import Fraction

import pytest

from kkmfix.cli import Report
from kkmfix.conditions import SubsetWitness
from kkmfix.intervals import ClassSet, Interval
from kkmfix.kkm import EmChainReport, GForm, GKind
from kkmfix.mapping import AffineExpr, MappingSpec, Piece, PointOverride, Violation
from kkmfix.scalars import SQRT2, ClassTag, QuadExt
from kkmfix.verdict import CorpusEntry, TheoremId

_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)
_UNIT = Interval.closed(0, 1)
_IDENTITY = AffineExpr(1, 0)
_SPEC = MappingSpec(
    Interval.closed(0, 2),
    [Piece(Interval.closed(0, 2), AffineExpr(Fraction(1, 2), 1))],
    [PointOverride(1, Fraction(3, 2))],
    "half plus one",
)
_WEIGHED = SubsetWitness((0, 2), (Fraction(1, 2), Fraction(1, 2)), 1)

# per validated record: a well-formed one, fields that make it malformed,
# and the error
_MALFORMED = {
    "AffineExpr irrational slope": (
        _IDENTITY, {"slope": SQRT2}, TypeError, "rational coefficient required"
    ),
    "Piece tag": (
        Piece(_UNIT, _IDENTITY), {"tag": "rational"}, TypeError, "class tag or None"
    ),
    "PointOverride value": (
        PointOverride(0, 1), {"value": 0.5}, TypeError, "rational component required"
    ),
    "MappingSpec padded label": (
        _SPEC, {"label": " half"}, ValueError, "does not read back"
    ),
    "MappingSpec label not a str": (
        _SPEC, {"label": 5}, TypeError, "^str label required, got 5$"
    ),
    "MappingSpec domain not an Interval": (
        _SPEC, {"domain": "dom"}, TypeError, "^Interval domain required, got 'dom'$"
    ),
    "MappingSpec piece not a Piece": (
        _SPEC, {"pieces": ("x",)}, TypeError, "^Piece required, got 'x'$"
    ),
    "MappingSpec override not a PointOverride": (
        _SPEC, {"overrides": ((1, 1),)}, TypeError,
        r"^PointOverride required, got \(1, 1\)$",
    ),
    "Piece over not an Interval": (
        Piece(_UNIT, _IDENTITY), {"over": "x"}, TypeError,
        "^Interval required, got 'x'$",
    ),
    "Piece expr not an AffineExpr": (
        Piece(_UNIT, _IDENTITY), {"expr": 3}, TypeError,
        "^AffineExpr required, got 3$",
    ),
    "Interval flags not bools": (
        _UNIT, {"lo_closed": "x", "hi_closed": ""}, TypeError,
        "^bool flags required, got 'x', ''$",
    ),
    "Interval int flags": (
        _UNIT, {"lo_closed": 1, "hi_closed": 0}, TypeError,
        "^bool flags required, got 1, 0$",
    ),
    "SubsetWitness u outside hull": (
        SubsetWitness((0, 2), None, 1), {"u": 3}, ValueError, "hull of the points"
    ),
    "SubsetWitness no points": (
        SubsetWitness((0, 2), None, 1), {"points": ()}, ValueError,
        "^witness needs at least one point$",
    ),
    "SubsetWitness weight count": (
        _WEIGHED, {"weights": (1,)}, ValueError, "^one weight per point required$"
    ),
    "SubsetWitness non-positive weight": (
        _WEIGHED, {"weights": (0, 1)}, ValueError, "^weights must be positive$"
    ),
    "GKind gap without delta": (
        GKind.gap(1), {"delta": None}, ValueError, "needs a delta"
    ),
    "GKind form not a GForm": (
        GKind.anchor(), {"form": "anchor"}, TypeError, "^GForm required, got 'anchor'$"
    ),
    "GKind delta on the anchor form": (
        GKind.anchor(), {"delta": 1}, ValueError,
        "^delta only applies to the gap form$",
    ),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_each_route_checks_a_malformed_record(case):
    good, changes, error, message = _MALFORMED[case]
    cls = good.__class__
    fields = tuple(changes.get(name, value) for name, value in zip(cls._fields, good))
    # what a bypass of the checks would build
    malformed = tuple.__new__(cls, fields)
    routes = [
        lambda: cls(*fields),
        lambda: cls._make(fields),
        lambda: good._replace(**changes),
    ]
    routes += [
        lambda p=p: pickle.loads(pickle.dumps(malformed, protocol=p))
        for p in _PROTOCOLS
    ]
    for route in routes:
        with pytest.raises(error, match=message):
            route()


_WELL_FORMED = [
    _IDENTITY,
    AffineExpr(Fraction(-3, 2), 7),
    Piece(_UNIT, _IDENTITY, ClassTag.IRRATIONAL),
    PointOverride(SQRT2, 1),
    Violation("coverage-gap", "gap at 1", piece_index=0),
    _SPEC,
    ClassSet.from_interval(_UNIT).union(ClassSet((), (Interval(3, 4, False, False),))),
    SubsetWitness((0, SQRT2), (Fraction(1, 3), Fraction(2, 3)), 1),
    GKind.gap(Fraction(1, 2)),
    GKind.displacement(),
    EmChainReport(((1, ClassSet(), True, False),), True, ClassSet()),
    CorpusEntry(1, _SPEC, TheoremId.T1, {"onto": True}, (QuadExt(2),), ""),
    Report("parse", {"pieces": 1}, 0, "pieces: 1"),
]


@pytest.mark.parametrize(
    "record", _WELL_FORMED, ids=lambda r: r.__class__.__name__
)
def test_each_route_rebuilds_a_well_formed_record(record):
    cls = record.__class__
    rebuilt = [cls._make(tuple(record)), record._replace(), cls(*record)]
    rebuilt += [pickle.loads(pickle.dumps(record, protocol=p)) for p in _PROTOCOLS]
    for back in rebuilt:
        assert back == record and back.__class__ is cls


def test_affine_coefficients_are_held_rational():
    expr = AffineExpr(Fraction(1, 2), 3)
    assert all(c.__class__ is QuadExt for c in expr)
    # a rational QuadExt is a rational coefficient, so the held form reads back
    assert AffineExpr(*expr) == expr == AffineExpr(QuadExt(1, 0) / 2, QuadExt(3))
    assert expr.at(4) == 5


def test_class_set_is_canonical_by_every_route():
    raw = ((Interval.closed(0, 1), Interval.closed(1, 2), Interval.point(SQRT2)), ())
    canonical = ClassSet((Interval.closed(0, 2),), ())
    assert canonical.rat == (Interval.closed(0, 2),) and canonical.irr == ()
    bypass = tuple.__new__(ClassSet, raw)
    built = [ClassSet(*raw), ClassSet._make(raw), ClassSet()._replace(rat=raw[0])]
    built += [pickle.loads(pickle.dumps(bypass, protocol=p)) for p in _PROTOCOLS]
    for back in built:
        assert back == canonical and back.__class__ is ClassSet


def test_gkind_converts_delta():
    kind = GKind(GForm.GAP, Fraction(1, 4))
    assert kind.delta.__class__ is QuadExt and kind.delta == Fraction(1, 4)
    assert str(kind) == "gap(1/4)" and GKind(GForm.ANCHOR).delta is None
    assert str(GKind.anchor()) == "anchor"
    assert str(GKind.displacement()) == "displacement"


def test_mapping_spec_is_immutable_and_caches():
    spec = MappingSpec(_SPEC.domain, _SPEC.pieces, _SPEC.overrides, _SPEC.label)
    for name in ("domain", "label", "_cut_table", "other"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, name, None)
        with pytest.raises(AttributeError):
            delattr(spec, name)  # a field, or a cache not yet filled
    assert vars(spec) == {}
    cells = spec.class_cells(ClassTag.RATIONAL)
    assert "_cut_table" in vars(spec)
    assert spec.class_cells(ClassTag.RATIONAL) is cells
    assert spec.value_pieces() is spec.value_pieces()
    # the cache is not part of the value: equal, same hash, not pickled
    assert spec == _SPEC and hash(spec) == hash(_SPEC)
    for p in _PROTOCOLS:
        assert vars(pickle.loads(pickle.dumps(spec, protocol=p))) == {}
