"""Per-theorem verdict assembly and the built-in worked-example corpus.

Five theorem shapes are supported; each one combines surjectivity, one
hull-coverage inequality, and either a compact-witness-set condition, a
lower-semicontinuity condition, or plain domain compactness.
"""

from __future__ import annotations

from collections.abc import Callable
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


# per theorem: domain must be compact (else closed suffices), the hull
# inequality kind and its condition key, and the extra side condition as
# (key, decider)
_SHAPE: dict[TheoremId, tuple[bool, BKind, str, tuple[str, Callable] | None]] = {
    TheoremId.T1: (False, BKind.ANCHOR, "kkm_anchor",
                   ("compact_anchor_set", decide_c1)),
    TheoremId.COR3: (True, BKind.ANCHOR, "kkm_anchor", None),
    TheoremId.T3: (False, BKind.DISPLACEMENT, "kkm_displacement",
                   ("compact_displacement_set", decide_c2)),
    TheoremId.COR4: (True, BKind.DISPLACEMENT, "kkm_displacement", None),
    TheoremId.T5: (True, BKind.RESIDUAL, "kkm_residual",
                   ("residual_lsc", check_c3)),
}


@dataclass(frozen=True)
class TheoremVerdict:
    theorem: TheoremId
    conditions: dict[str, ConditionVerdict]
    fixed_point_set: ClassSet
    fixed_points: tuple[QuadExt, ...] | None
    consistent: bool
    notes: str


def _check_domain(spec: MappingSpec, need_compact: bool) -> ConditionVerdict:
    C = spec.domain
    if need_compact:
        if C.is_bounded and C.is_closed:
            return ConditionVerdict(
                Status.PROVEN, None, "C is a compact convex interval"
            )
        why = "unbounded" if not C.is_bounded else "not closed"
        return ConditionVerdict(Status.FALSIFIED, None, f"C is {why}")
    if C.is_closed:
        return ConditionVerdict(Status.PROVEN, None, "C is a closed convex interval")
    return ConditionVerdict(Status.FALSIFIED, None, "C is not closed")


def run_theorem(spec: MappingSpec, theorem: TheoremId) -> TheoremVerdict:
    """Check every hypothesis of one theorem against the spec; each one
    ends Proven or Falsified."""
    if not isinstance(theorem, TheoremId):
        raise ValueError(f"unknown theorem: {theorem!r}")
    need_compact, kind, b_key, extra = _SHAPE[theorem]

    conditions: dict[str, ConditionVerdict] = {}
    conditions["domain"] = _check_domain(spec, need_compact)
    conditions["onto"] = check_onto(spec)
    conditions[b_key] = decide_b(kind, spec)
    if extra is not None:
        extra_key, decide = extra
        conditions[extra_key] = decide(spec)

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

    if not 1 <= n <= 14:
        raise IndexError(f"corpus index out of range: {n}")
    text = (
        importlib.resources.files("kkmfix") / "data" / f"corpus{n:02d}.map"
    ).read_text(encoding="utf-8")
    theorem, broken, fixed, deviations = _EXPECTED[n]
    _, _, b_key, extra = _SHAPE[theorem]
    keys = ("domain", "onto", b_key) + (() if extra is None else (extra[0],))
    return CorpusEntry(
        index=n,
        spec=parse(text),
        theorem=theorem,
        expected={key: key != broken for key in keys},
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
    for n in indices if indices is not None else range(1, 15):
        entry = corpus_entry(n)
        verdict = run_theorem(entry.spec, entry.theorem)
        out.append((entry, verdict, _matches(entry, verdict)))
    return out
