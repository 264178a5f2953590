"""Output checks that do not trust the code under test.

Each check returns a list of problems; an empty list means the output
passed.  Witnesses are re-checked through ``b_value`` and ``evaluate``,
witness-set memberships are decided from their definitions, the corpus
is compared against its own copy of the paper's expected results, and
every scalar the CLI prints must parse with ``parse_scalar``.
"""

from __future__ import annotations

import re

from kkmfix import (
    BKind,
    GForm,
    QuadExt,
    Status,
    SubsetWitness,
    b_value,
    dist,
    parse_scalar,
)

HULL_KINDS = {
    "kkm_anchor": BKind.ANCHOR,
    "kkm_displacement": BKind.DISPLACEMENT,
    "kkm_residual": BKind.RESIDUAL,
}


class Tally:
    """Hull-inequality verdicts per operation, from its latest execution:
    how many ended Proven or Falsified."""

    def __init__(self):
        self.statuses: dict = {}
        self.op = None

    def start(self, op) -> None:
        self.op = op
        self.statuses[op] = []

    def hull(self, status: Status) -> None:
        self.statuses.setdefault(self.op, []).append(status)

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.statuses.values())

    @property
    def decided(self) -> int:
        return sum(
            s is not Status.NOT_FALSIFIED for v in self.statuses.values() for s in v
        )


def check_fixed_points(spec, points) -> list[str]:
    return [
        f"reported fixed point {p} has f(p) = {spec.evaluate(p)}"
        for p in points
        if spec.evaluate(p) != p
    ]


def _check_hull(key, spec, status, witness, tally) -> list[str]:
    tally.hull(status)
    if status is not Status.FALSIFIED:
        return []
    if not isinstance(witness, SubsetWitness):
        return [f"{key}: Falsified without a subset witness"]
    value = b_value(HULL_KINDS[key], spec, witness.points, witness.u)
    if value < 0:
        return []
    return [f"{key}: witness at u = {witness.u} has b_value {value} >= 0"]


def check_theorem_verdict(spec, verdict, tally: Tally) -> list[str]:
    problems = []
    if not verdict.consistent:
        problems.append(f"{verdict.theorem}: verdict is inconsistent")
    for key, cond in verdict.conditions.items():
        if key in HULL_KINDS:
            problems += _check_hull(key, spec, cond.status, cond.witness, tally)
    if verdict.fixed_points is not None:
        problems += check_fixed_points(spec, verdict.fixed_points)
    return problems


def _t1(onto=True, hull=True, compact_set=True):
    return "t1", {
        "domain": True,
        "onto": onto,
        "kkm_anchor": hull,
        "compact_anchor_set": compact_set,
    }


def _cor4():
    return "cor4", {"domain": True, "onto": True, "kkm_displacement": True}


def _t5(onto=True, hull=True, lsc=True):
    return "t5", {
        "domain": True,
        "onto": onto,
        "kkm_residual": hull,
        "residual_lsc": lsc,
    }


# The paper's 14 worked examples: designated theorem, which conditions hold
# (True: not Falsified), and the exact fixed points.
CORPUS_EXPECTED = {
    1: (*_t1(), (6,)),
    2: (*_t1(), (0, 5)),
    3: (*_t1(onto=False), ()),
    4: (*_t1(hull=False), ()),
    5: (*_t1(compact_set=False), ()),
    6: (*_cor4(), (0, 10)),
    7: (*_cor4(), (0, 10)),
    8: (*_cor4(), (0, 10)),
    9: (*_t5(), (5,)),
    10: (*_t5(), (5,)),
    11: (*_t5(), (5,)),
    12: (*_t5(onto=False), ()),
    13: (*_t5(lsc=False), ()),
    14: (*_t5(hull=False), ()),
}


def check_corpus_entry(n, entry, spec, verdict, tally: Tally) -> list[str]:
    """``verdict`` is ``run_theorem`` on ``spec``, a copy of entry n's map."""
    theorem, holds, fixed = CORPUS_EXPECTED[n]
    problems = check_theorem_verdict(spec, verdict, tally)
    if entry.index != n or verdict.theorem.value != theorem:
        problems.append(f"entry {n}: ran {verdict.theorem} on entry {entry.index}")
    got = {k: c.status is not Status.FALSIFIED for k, c in verdict.conditions.items()}
    if got != holds:
        problems.append(f"entry {n}: conditions {got}, expected {holds}")
    if verdict.fixed_points != tuple(QuadExt(p) for p in fixed):
        problems.append(f"entry {n}: fixed points {verdict.fixed_points}")
    return problems


# ---------------------------------------------------------------------------
# witness sets, by definition


def in_g_set(kind, spec, x, y) -> bool:
    """Is y in the witness set G(x)?"""
    if not spec.domain.contains(y):
        return False
    fx = spec.evaluate(x)
    if kind.form is GForm.ANCHOR:
        return dist(x, y) <= dist(fx, y)
    if kind.form is GForm.DISPLACEMENT:
        return dist(fx, x) <= dist(fx, y)
    return dist(fx, y) >= kind.delta / 2


def check_cover(kind, spec, points, holds, uncovered) -> list[str]:
    """A reported cover of the points' hull by their G(x) sets, checked on
    the points themselves; an uncovered point, checked outright."""
    lo, hi = min(points), max(points)
    if not holds:
        if uncovered is None or not lo <= uncovered <= hi:
            return [f"{kind}: uncovered point {uncovered} outside the hull"]
        if any(in_g_set(kind, spec, p, uncovered) for p in points):
            return [f"{kind}: 'uncovered' point {uncovered} is covered"]
        return []
    for y in points:
        if not any(in_g_set(kind, spec, p, y) for p in points):
            return [f"{kind}: hull point {y} uncovered, yet reported covered"]
    return []


# ---------------------------------------------------------------------------
# CLI JSON


def _set_scalars(text: str) -> list[str]:
    """The scalar tokens of a printed ClassSet."""
    body = text.replace("rat", "").replace("irr", "")
    parts = re.split(r",|\sU\s|[\[\](){}]", body)
    return [p.strip() for p in parts if p.strip() not in ("", "-inf", "inf")]


def _parse_all(texts) -> list[QuadExt]:
    return [parse_scalar(t) for t in texts]


def _witness(payload):
    """The scalars of a printed witness, and a SubsetWitness when it is one."""
    if payload is None:
        return None
    if isinstance(payload, dict):
        pts = _parse_all(payload["points"])
        if payload["weights"] is not None:
            _parse_all(payload["weights"])
        return SubsetWitness(pts, None, parse_scalar(payload["u"]))
    try:
        return parse_scalar(payload)
    except ValueError:
        return _parse_all(_set_scalars(payload))


def check_cli_output(command, body, returncode, spec, kkm_args, tally) -> list[str]:
    """``body`` is the parsed ``--json`` output; ValueError from a scalar
    that does not parse propagates and fails the operation."""
    if body["command"] != command or body["exit_code"] != returncode:
        return [f"{command}: JSON disagrees with the process exit code"]
    out = body["verdicts"]
    if command == "check":
        verdict = out["verdict"]
        problems = [] if verdict["consistent"] else ["check: inconsistent verdict"]
        falsified = False
        for key, cond in verdict["conditions"].items():
            status = Status(cond["status"])
            falsified |= status is Status.FALSIFIED
            witness = _witness(cond["witness"])
            if key in HULL_KINDS:
                problems += _check_hull(key, spec, status, witness, tally)
        _parse_all(_set_scalars(verdict["fixed_point_set"]))
        if verdict["fixed_points"] is not None:
            problems += check_fixed_points(spec, _parse_all(verdict["fixed_points"]))
        if returncode != int(falsified):
            problems.append("check: exit code does not follow the verdicts")
        return problems
    if command == "fixed-points":
        _parse_all(_set_scalars(out["fixed_point_set"]))
        if out["fixed_points"] is None:
            return []
        return check_fixed_points(spec, _parse_all(out["fixed_points"]))
    if command == "kkm":
        kind, points = kkm_args
        if out["delta"] is not None:
            parse_scalar(out["delta"])
        if _parse_all(out["points"]) != points:
            return ["kkm: points echoed wrongly"]
        _parse_all(_set_scalars(out["intersection"]))
        uncovered = None if out["uncovered"] is None else parse_scalar(out["uncovered"])
        if out["holds"] != (returncode == 0):
            return ["kkm: exit code does not follow the verdict"]
        return check_cover(kind, spec, points, out["holds"], uncovered)
    if command == "parse":
        if out["violations"] or out["pieces"] != len(spec.pieces):
            return [f"parse: unexpected report {out}"]
        return []
    if command == "plot":
        return []
    return [f"unknown command {command}"]
