"""Per-theorem verdict assembly and the built-in worked-example corpus.

Each theorem is one list of (condition key, decider) rows in
``_HYPOTHESES``: the domain, onto and one hull inequality, then T1 and T3
need a closed C plus a compact witness set, while Cor3, Cor4 and T5 need
a compact C, T5 with lower semicontinuity besides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .conditions import (
    BKind,
    ConditionVerdict,
    Status,
    check_c3,
    check_onto,
    decide_b,
    decide_c1,
    decide_c2,
)
from .intervals import ClassSet
from .mapdef import parse
from .mapping import MappingSpec
from .scalars import QuadExt, _Word


class TheoremId(_Word):
    T1 = "t1"
    COR3 = "cor3"
    T3 = "t3"
    COR4 = "cor4"
    T5 = "t5"


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: TheoremId
    conditions: dict[str, ConditionVerdict]
    fixed_point_set: ClassSet
    fixed_points: tuple[QuadExt, ...] | None
    consistent: bool
    notes: str


def _compact_domain(spec: MappingSpec) -> ConditionVerdict:
    C = spec.domain
    if C.is_bounded and C.is_closed:
        return ConditionVerdict(Status.PROVEN, None, "C is a compact convex interval")
    why = "unbounded" if not C.is_bounded else "not closed"
    return ConditionVerdict(Status.FALSIFIED, None, f"C is {why}")


def _closed_domain(spec: MappingSpec) -> ConditionVerdict:
    if spec.domain.is_closed:
        return ConditionVerdict(Status.PROVEN, None, "C is a closed convex interval")
    return ConditionVerdict(Status.FALSIFIED, None, "C is not closed")


def _hull(kind: BKind):
    # decide_b is looked up per call, so a patched one takes effect
    return lambda spec: decide_b(kind, spec)


# per theorem: its hypotheses as (condition key, decider), in report order
_HYPOTHESES = {
    TheoremId.T1: (("domain", _closed_domain), ("onto", check_onto),
                   ("kkm_anchor", _hull(BKind.ANCHOR)),
                   ("compact_anchor_set", decide_c1)),
    TheoremId.COR3: (("domain", _compact_domain), ("onto", check_onto),
                     ("kkm_anchor", _hull(BKind.ANCHOR))),
    TheoremId.T3: (("domain", _closed_domain), ("onto", check_onto),
                   ("kkm_displacement", _hull(BKind.DISPLACEMENT)),
                   ("compact_displacement_set", decide_c2)),
    TheoremId.COR4: (("domain", _compact_domain), ("onto", check_onto),
                     ("kkm_displacement", _hull(BKind.DISPLACEMENT))),
    TheoremId.T5: (("domain", _compact_domain), ("onto", check_onto),
                   ("kkm_residual", _hull(BKind.RESIDUAL)),
                   ("residual_lsc", check_c3)),
}


def run_theorem(spec: MappingSpec, theorem: TheoremId) -> TheoremVerdict:
    """Check every hypothesis of one theorem against the spec; each one
    ends Proven or Falsified.

    C3. If f is onto and the anchor or the displacement form holds, f has
    a fixed point unless f - id keeps one strict sign on all of C, and
    onto allows that only when C is open at both ends.  With A, B and m
    as in ``decide_b``, let A and B both be nonempty and Fix empty.  Under
    the anchor form, P1 gives nu = sup_B m <= mu = inf_A m; f maps A above
    mu and B below nu, and for x1 in A and x2 in B, [nu, mu] lies in
    (f(x2), f(x1)), inside C, so nu has no preimage.  Under the
    displacement form, a point of A left of one of B repeats C2's argument
    on the interval between them, and otherwise the anchor form holds by
    C1.  If f > id on C, onto leaves no min C (its preimage x would have
    f(x) <= x) and f(max C) > max C leaves no max C; f < id is the mirror.
    A one-signed f makes every anchor and displacement witness set keep
    an open end of C, so no such set is compact: T1 and T3 cannot fail on
    their domain alone with Fix empty, and by C2 neither can T3 or Cor4
    on onto alone."""
    if not isinstance(theorem, TheoremId):
        raise ValueError(f"unknown theorem: {theorem!r}")
    conditions = {key: decide(spec) for key, decide in _HYPOTHESES[theorem]}
    fset = spec.fixed_point_set()
    fpts = fset.finite_points()
    favorable = all(
        v.status is not Status.FALSIFIED for v in conditions.values()
    )
    consistent = (not favorable) or (not fset.is_empty)

    notes = []
    if fpts is None:
        notes.append("fixed-point set is infinite")
    if theorem is TheoremId.T5 and not fset.is_empty:
        closed = "closed" if fset.is_closed else "NOT closed"
        notes.append(f"conclusion check: fixed-point set is {closed}")
    if not consistent:
        notes.append("CONTRADICTION: every hypothesis favorable, no fixed point")
    return TheoremVerdict(
        theorem=theorem,
        conditions=conditions,
        fixed_point_set=fset,
        fixed_points=fpts,
        consistent=consistent,
        notes="; ".join(notes),
    )


class CorpusEntry(NamedTuple):
    index: int
    spec: MappingSpec
    theorem: TheoremId
    expected: dict[str, bool]
    expected_fixed_points: tuple[QuadExt, ...]
    deviations: str


_FAMILY_NOTE = (
    "one representative of a family: every self-map matching the stated "
    "sign and range constraints earns the same verdicts"
)

# index -> (theorem, the one hypothesis the map breaks or None, expected
# fixed points, deviations)
_EXPECTED: dict[int, tuple[TheoremId, str | None, tuple[int, ...], str]] = {
    1: (TheoremId.T1, None, (6,), _FAMILY_NOTE),
    2: (TheoremId.T1, None, (0, 5), ""),
    3: (TheoremId.T1, "onto", (), ""),
    4: (TheoremId.T1, "kkm_anchor", (), ""),
    5: (TheoremId.T1, "compact_anchor_set", (), ""),
    6: (TheoremId.COR4, None, (0, 10), _FAMILY_NOTE),
    7: (TheoremId.COR4, None, (0, 10), _FAMILY_NOTE),
    8: (TheoremId.COR4, None, (0, 10), ""),
    9: (TheoremId.T5, None, (5,), ""),
    10: (TheoremId.T5, None, (5,), ""),
    11: (TheoremId.T5, None, (5,), ""),
    12: (
        TheoremId.T5,
        "onto",
        (),
        "the two steps leave 10 unassigned; the entry completes the "
        "self-map with f(10) = 4",
    ),
    13: (TheoremId.T5, "residual_lsc", (), ""),
    14: (TheoremId.T5, "kkm_residual", (), ""),
}


@lru_cache(maxsize=None)
def corpus_entry(n: int) -> CorpusEntry:
    """The built-in worked example n (1..14) with its expected verdicts."""
    import importlib.resources

    if n not in _EXPECTED:
        raise IndexError(f"corpus index out of range: {n}")
    text = (
        importlib.resources.files("kkmfix") / "data" / f"corpus{n:02d}.map"
    ).read_text(encoding="utf-8")
    theorem, broken, fixed, deviations = _EXPECTED[n]
    return CorpusEntry(
        index=n,
        spec=parse(text),
        theorem=theorem,
        expected={key: key != broken for key, _ in _HYPOTHESES[theorem]},
        expected_fixed_points=tuple(QuadExt(p) for p in fixed),
        deviations=deviations,
    )


def _matches(entry: CorpusEntry, verdict: TheoremVerdict) -> bool:
    for key, want_holds in entry.expected.items():
        got = verdict.conditions[key].status
        if want_holds != (got is not Status.FALSIFIED):
            return False
    return verdict.fixed_points == entry.expected_fixed_points


def run_corpus(indices=None) -> list[tuple[CorpusEntry, TheoremVerdict, bool]]:
    """Run every corpus entry (or those in ``indices``) under its
    designated theorem."""
    out = []
    for n in indices if indices is not None else _EXPECTED:
        entry = corpus_entry(n)
        verdict = run_theorem(entry.spec, entry.theorem)
        out.append((entry, verdict, _matches(entry, verdict)))
    return out
