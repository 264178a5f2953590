"""Command-line front end: parse mapping files, run checks, emit plots.

Exit codes: 0 all checks favorable or matching, 1 a falsification or
mismatch, 2 usage or parse error.  Identical argv produce byte-identical
output; every scalar prints exactly (JSON mode round-trips through
parse_scalar).

Each command imports the modules only it uses, so that a process loads
no decider it does not run: ``check`` and ``corpus`` load ``verdict``,
``kkm`` loads ``kkm``, and ``plot`` loads ``plotting``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .intervals import ClassSet
from .mapdef import ParseError, parse
from .mapping import MappingSpec
from .scalars import format_scalar, parse_scalar


class UsageError(Exception):
    """Bad invocation; the message names the offending flag."""


class Report(NamedTuple):
    command: str
    verdicts: dict
    exit_code: int
    rendered: str


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


# the option choices, spelled here so that building the parser imports no
# decider: the TheoremId values, the GForm value of each --kind and
# plotting.FORMATS
_THEOREMS = ("t1", "cor3", "t3", "cor4", "t5")
_KINDS = {"g1": "anchor", "g2": "displacement", "g3": "gap"}
_FORMATS = ("svg", "csv")


_MAP = ("--map", {"required": True})

# each command's help line and options after --json, in help order
_OPTIONS = {
    "check": (
        "run one theorem",
        [_MAP, ("--theorem", {"required": True, "choices": _THEOREMS})],
    ),
    "fixed-points": ("exact fixed points", [_MAP]),
    "kkm": (
        "witness-set coverage",
        [
            _MAP,
            ("--kind", {"required": True, "choices": sorted(_KINDS)}),
            ("--delta", {"default": None}),
            ("--points", {"required": True}),
        ],
    ),
    "corpus": (
        "run the built-in examples",
        [("--only", {"type": int, "default": None})],
    ),
    "parse": ("validate a mapping file", [_MAP]),
    "plot": (
        "render a mapping file",
        [
            _MAP,
            ("--out", {"required": True}),
            ("--format", {"choices": _FORMATS, "default": "svg"}),
            ("--samples", {"type": _positive, "default": 101}),
        ],
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The kkmfix parser.  When ``command`` names a command, only its
    subparser is built: a subparser parses, helps and fails alike whatever
    others exist, and argparse spends milliseconds per process building
    the rest.  Otherwise, as for ``kkmfix --help`` or an unknown command,
    every subparser is built."""
    parser = _Parser(prog="kkmfix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (summary, options) in _OPTIONS.items():
        if command in _OPTIONS and name != command:
            continue
        cmd = sub.add_parser(name, help=summary)
        cmd.add_argument(
            "--json", action="store_true", help="structured report on stdout"
        )
        for flag, kwargs in options:
            cmd.add_argument(flag, **kwargs)
    return parser


def _load_spec(path: str, validate: bool = True) -> MappingSpec:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as err:
        raise UsageError(f"--map: {err}") from err
    try:
        return parse(text, validate=validate)
    except ParseError as err:
        raise UsageError(f"--map: {err}") from err


def _witness_payload(witness):
    """A witness as JSON: a subset witness (the named tuple that is not a
    ClassSet) as a dict, a ClassSet or a scalar as its text."""
    if witness is None:
        return None
    if isinstance(witness, ClassSet):
        return str(witness)
    if isinstance(witness, tuple):
        points, weights, u = witness
        return {
            "points": [format_scalar(p) for p in points],
            "weights": None if weights is None else [format_scalar(w) for w in weights],
            "u": format_scalar(u),
        }
    return format_scalar(witness)


def _fixed_payload(fset, points) -> dict:
    """The fixed-point set, and its points when it is finite."""
    return {
        "fixed_point_set": str(fset),
        "fixed_points": None if points is None else [format_scalar(p) for p in points],
    }


def _fixed_text(payload: dict, prefix: str) -> str:
    """The line ``check`` (after ``prefix``) and ``fixed-points`` print."""
    points = payload["fixed_points"]
    if points is None:
        return f"fixed-point set (infinite): {payload['fixed_point_set']}"
    return prefix + (", ".join(points) or "(none)")


def _theorem_payload(verdict) -> dict:
    return {
        "theorem": verdict.theorem.value,
        "conditions": {
            key: {
                "status": c.status.value,
                "detail": c.detail,
                "witness": _witness_payload(c.witness),
            }
            for key, c in verdict.conditions.items()
        },
        **_fixed_payload(verdict.fixed_point_set, verdict.fixed_points),
        "consistent": verdict.consistent,
        "notes": verdict.notes,
    }


# wider than the longest condition key, compact_displacement_set (24)
_KEY_COLUMN = 26
# Status.FALSIFIED's text, which the payload carries
_FALSIFIED = "Falsified"


def _condition_lines(conditions: dict) -> list[str]:
    lines = []
    pad = " " * (_KEY_COLUMN + 14)
    for key, cond in conditions.items():
        status, witness = cond["status"], cond["witness"]
        lines.append(f"  {key:<{_KEY_COLUMN}}{status:<14}{cond['detail']}")
        if isinstance(witness, dict):
            weights = witness["weights"]
            parts = [f"u = {witness['u']}", f"points = {', '.join(witness['points'])}"]
            if weights is not None:
                parts.append(f"weights = {', '.join(weights)}")
            lines.append(f"  {pad}{'; '.join(parts)}")
        elif witness is not None and status == _FALSIFIED:
            lines.append(f"  {pad}witness: {witness}")
    return lines


def _cmd_check(args) -> Report:
    from .verdict import TheoremId, run_theorem

    spec = _load_spec(args.map)
    theorem = TheoremId(args.theorem)
    shown = _theorem_payload(run_theorem(spec, theorem))
    payload = {"label": spec.label, "verdict": shown}
    conditions = shown["conditions"]
    exit_code = int(any(c["status"] == _FALSIFIED for c in conditions.values()))
    inputs = f"map={args.map} theorem={theorem.value}"
    lines = [
        f"check {theorem.value} on {args.map}"
        + (f" ({payload['label']})" if payload["label"] else ""),
        *_condition_lines(conditions),
        _fixed_text(shown, "fixed points: "),
        f"consistent: {'yes' if shown['consistent'] else 'NO'}",
    ]
    if shown["notes"]:
        lines.append(f"notes: {shown['notes']}")
    return _report("check", inputs, payload, exit_code, args, lines)


def _cmd_fixed_points(args) -> Report:
    spec = _load_spec(args.map)
    fset = spec.fixed_point_set()
    payload = _fixed_payload(fset, fset.finite_points())
    lines = [_fixed_text(payload, "")]
    return _report("fixed-points", f"map={args.map}", payload, 0, args, lines)


def _cmd_kkm(args) -> Report:
    from .kkm import GForm, GKind, _common, _covers, default_gap_delta, g_set

    spec = _load_spec(args.map)
    form = GForm(_KINDS[args.kind])
    delta = None
    if args.kind != "g3":
        if args.delta is not None:
            raise UsageError("--delta: only meaningful with --kind g3")
    elif args.delta is not None:
        try:
            delta = parse_scalar(args.delta)
        except ValueError as err:
            raise UsageError(f"--delta: {err}") from err
        if delta <= 0:
            raise UsageError("--delta: must be positive")
    else:
        delta = default_gap_delta(spec)
        if delta is None:
            raise UsageError(
                "--delta: required for --kind g3 (the map has no "
                "displacement gap to default to)"
            )
    try:
        points = [
            parse_scalar(tok.strip())
            for tok in args.points.split(",")
            if tok.strip()
        ]
    except ValueError as err:
        raise UsageError(f"--points: {err}") from err
    if not points:
        raise UsageError("--points: expected at least one point")
    outside = [p for p in points if not spec.domain.contains(p)]
    if outside:
        raise UsageError(
            f"--points: {format_scalar(outside[0])} outside the domain {spec.domain}"
        )
    kind = GKind(form, delta)
    sets = [g_set(kind, spec, p) for p in points]
    holds, uncovered = _covers(points, sets)
    payload = {
        "kind": args.kind,
        "delta": None if delta is None else format_scalar(delta),
        "points": [format_scalar(p) for p in points],
        "holds": holds,
        "uncovered": None if uncovered is None else format_scalar(uncovered),
        "intersection": str(_common(sets)),
    }
    lines = [
        f"kkm {args.kind} on {args.map}: "
        + ("covers the hull" if holds else f"FAILS, uncovered {payload['uncovered']}"),
        f"points: {', '.join(payload['points'])}",
        f"intersection of witness sets: {payload['intersection']}",
    ]
    if payload["delta"] is not None:
        lines.insert(1, f"delta: {payload['delta']}")
    inputs = f"map={args.map} kind={args.kind} points={args.points}"
    return _report("kkm", inputs, payload, 0 if holds else 1, args, lines)


def _cmd_corpus(args) -> Report:
    from .verdict import run_corpus

    indices = None
    if args.only is not None:
        if not 1 <= args.only <= 14:
            raise UsageError("--only: corpus index out of range 1..14")
        indices = [args.only]
    rows = []
    for entry, verdict, matched in run_corpus(indices):
        shown = _theorem_payload(verdict)
        rows.append(
            {
                "index": entry.index,
                "theorem": entry.theorem.value,
                "match": matched,
                "fixed_points": shown["fixed_points"],
                "verdict": shown,
            }
        )
    lines = [f"{'#':>3}  {'theorem':<8}{'fixed points':<16}result"]
    for row in rows:
        points = row["fixed_points"]
        fixed = "(infinite)" if points is None else ", ".join(points) or "-"
        lines.append(
            f"{row['index']:>3}  {row['theorem']:<8}{fixed:<16}"
            + ("MATCH" if row["match"] else "MISMATCH")
        )
    all_match = all(row["match"] for row in rows)
    lines.append(
        f"{sum(row['match'] for row in rows)}/{len(rows)} entries match"
    )
    payload = {"entries": rows, "all_match": all_match}
    inputs = f"only={args.only}"
    return _report("corpus", inputs, payload, 0 if all_match else 1, args, lines)


def _cmd_parse(args) -> Report:
    spec = _load_spec(args.map, validate=False)
    payload = {
        "label": spec.label,
        "domain": str(spec.domain),
        "pieces": len(spec.pieces),
        "overrides": len(spec.overrides),
        "violations": [
            {"kind": v.kind, "message": v.message} for v in spec.validate()
        ],
    }
    violations = payload["violations"]
    lines = [
        f"label: {payload['label'] or '(none)'}",
        f"domain: {payload['domain']}",
        f"pieces: {payload['pieces']}, overrides: {payload['overrides']}",
        "violations:" if violations else "violations: none",
        *(f"  {v['kind']}: {v['message']}" for v in violations),
    ]
    exit_code = int(bool(violations))
    return _report("parse", f"map={args.map}", payload, exit_code, args, lines)


def _cmd_plot(args) -> Report:
    from .plotting import emit_plot

    spec = _load_spec(args.map)
    content = emit_plot(spec, args.format, args.samples)
    try:
        Path(args.out).write_text(content, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"--out: {err}") from err
    payload = {
        "out": args.out,
        "format": args.format,
        "samples": args.samples,
        "bytes": len(content.encode()),
    }
    inputs = f"map={args.map} out={args.out} format={args.format} samples={args.samples}"
    lines = [f"wrote {payload['out']} ({payload['format']}, {payload['bytes']} bytes)"]
    return _report("plot", inputs, payload, 0, args, lines)


def _report(command, inputs, payload, exit_code, args, lines) -> Report:
    if args.json:
        import json

        body = {
            "command": command,
            "inputs": inputs,
            "verdicts": payload,
            "exit_code": exit_code,
        }
        rendered = json.dumps(body, indent=2)
    else:
        rendered = "\n".join(lines)
    return Report(command, payload, exit_code, rendered)


_COMMANDS = {
    "check": _cmd_check,
    "fixed-points": _cmd_fixed_points,
    "kkm": _cmd_kkm,
    "corpus": _cmd_corpus,
    "parse": _cmd_parse,
    "plot": _cmd_plot,
}


def run_command(argv) -> Report:
    """Parse argv and execute; raises UsageError on bad invocations."""
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    return _COMMANDS[args.command](args)


def main(argv=None) -> int:
    try:
        report = run_command(sys.argv[1:] if argv is None else argv)
    except UsageError as err:
        print(f"kkmfix: error: {err}", file=sys.stderr)
        return 2
    try:
        print(report.rendered, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (``kkmfix corpus | head``): end
        # quietly, and point stdout at devnull so the exit flush cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return report.exit_code
