"""Per-layer timings for the traced run.

Every call into a layer runs inside a span named after the metric it
feeds; a metric is the median self time of its spans.  The scalar
timings run batches of ``BATCH`` operations per span on seeded operand
pools shaped like the verifier's values (small-denominator rationals
plus multiples of sqrt 2).  The other layers run on the workload's own
maps.  ``METRICS`` records, for each metric, the end-to-end metric and
workload it should move.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

from kkmfix import (
    BKind,
    ClassTag,
    GKind,
    QuadExt,
    TheoremId,
    b_value,
    check_c3,
    check_onto,
    decide_c1,
    decide_c2,
    emit_plot,
    em_chain,
    format_scalar,
    g_set,
    intersection_witness,
    parse,
    parse_scalar,
    random_spec,
    run_command,
    run_theorem,
    serialize,
    sublevel,
    verify_kkm,
)
from workloads import OUT, fresh_copy, spawn

# name -> (unit, end-to-end metric and workload it should move).  sweep
# (generated maps x the five theorems) and covers (witness sets on
# generated maps) are workloads this benchmark does not run yet: a metric
# tied only to them moves no end-to-end metric that BENCHMARK.json gates.
METRICS = {
    "scalars.add_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.mul_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.div_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.cmp_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.floor_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.construct_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.hash_ns": ("ns", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.format_us": ("us", "corpus op_geomean_ms; sweep op_p50_ms"),
    "scalars.parse_us": ("us", "corpus op_geomean_ms; sweep op_p50_ms"),
    "intervals.union_us": ("us", "covers op_geomean_ms; sweep op_p50_ms"),
    "intervals.intersect_us": ("us", "covers op_geomean_ms; sweep op_p50_ms"),
    "intervals.difference_us": ("us", "covers op_geomean_ms; sweep op_p50_ms"),
    "intervals.closure_us": ("us", "covers op_geomean_ms; sweep op_p50_ms"),
    "intervals.pick_us": ("us", "covers op_geomean_ms; sweep op_p50_ms"),
    "mapping.evaluate_us": ("us", "sweep/covers setup_s; cli op_p50_ms"),
    "mapping.class_cells_cold_us": ("us", "sweep/covers setup_s; cli op_p50_ms"),
    "mapping.image_us": ("us", "sweep/covers setup_s; cli op_p50_ms"),
    "mapping.fixed_point_set_us": ("us", "sweep/covers setup_s; cli op_p50_ms"),
    "mapping.validate_us": ("us", "sweep/covers setup_s; cli op_p50_ms"),
    "mapdef.parse_us": ("us", "cli op_p50_ms; setup_s"),
    "mapdef.serialize_us": ("us", "cli op_p50_ms; setup_s"),
    "conditions.check_onto_us": ("us", "sweep op_p50_ms"),
    "conditions.decide_c1_us": ("us", "sweep op_p50_ms"),
    "conditions.decide_c2_us": ("us", "sweep op_p50_ms"),
    "conditions.check_c3_us": ("us", "sweep op_p50_ms"),
    "conditions.sublevel_us": ("us", "sweep op_p50_ms"),
    "conditions.b_value_us": ("us", "sweep op_p50_ms"),
    "conditions.hull_anchor_ms": ("ms", "derived; corpus op_geomean_ms; sweep op_geomean_ms"),
    "conditions.hull_displacement_ms": (
        "ms",
        "derived; corpus op_geomean_ms; sweep op_geomean_ms",
    ),
    "conditions.hull_residual_ms": ("ms", "derived; corpus op_geomean_ms; sweep op_geomean_ms"),
    "kkm.verify_kkm_ms": ("ms", "covers op_geomean_ms"),
    "kkm.intersection_witness_ms": ("ms", "covers op_geomean_ms"),
    "kkm.em_chain_ms": ("ms", "covers op_geomean_ms"),
    "kkm.uncovered_share": ("ratio", "covers op_geomean_ms"),
    "verdict.t1_ms": ("ms", "sweep op_p50_ms/op_geomean_ms; corpus op_geomean_ms"),
    "verdict.cor3_ms": ("ms", "sweep op_p50_ms/op_geomean_ms; corpus op_geomean_ms"),
    "verdict.t3_ms": ("ms", "sweep op_p50_ms/op_geomean_ms; corpus op_geomean_ms"),
    "verdict.cor4_ms": ("ms", "sweep op_p50_ms/op_geomean_ms; corpus op_geomean_ms"),
    "verdict.t5_ms": ("ms", "sweep op_p50_ms/op_geomean_ms; corpus op_geomean_ms"),
    "cli.interpreter_ms": ("ms", "cli op_p50_ms/op_geomean_ms"),
    "cli.import_ms": ("ms", "cli op_p50_ms/op_geomean_ms"),
    "cli.run_command_ms": ("ms", "cli op_p50_ms/op_geomean_ms"),
    "randmaps.random_spec_ms": ("ms", "sweep/covers setup_s"),
    "plotting.emit_plot_ms": ("ms", "cli op_p50_ms"),
    "trace.overhead_pct": ("%", "none: cost of the spans themselves"),
}

_SCALE = {"ns": 1, "us": 1e3, "ms": 1e6}
BATCH = 1000
MIN_CALLS = 3
MAX_CALLS = 200  # keeps the span file small for the fastest calls
BUDGET_S = 0.15  # per metric, beyond MIN_CALLS
VERDICT_BUDGET_S = 3.0  # the verdict/hull group, beyond one map


def _repeat(tracer, name, fn, args, fresh=None, budget=BUDGET_S):
    """Call fn on args in turn, each call in its own span, for at least
    MIN_CALLS calls and then until ``budget`` seconds or MAX_CALLS calls;
    ``fresh`` prepares each argument outside the span."""
    start = time.perf_counter()
    i = 0
    while i < MIN_CALLS or (
        i < MAX_CALLS and time.perf_counter() - start < budget
    ):
        arg = args[i % len(args)]
        if fresh is not None:
            arg = fresh(arg)
        with tracer.span(name):
            fn(arg)
        i += 1


def _timed(tracer, name, fn, *args):
    """One call in a span; returns the result and the span's seconds."""
    with tracer.span(name):
        result = fn(*args)
    start, end = tracer.spans[-1][4], tracer.spans[-1][5]
    return result, (end - start) / 1e9


def _operands(seed: int) -> list[QuadExt]:
    rng = random.Random(f"scalars:{seed}")
    out = []
    for i in range(64):
        a = Fraction(rng.randint(-50, 50), rng.choice((1, 2, 3, 4, 6, 8)))
        b = 0 if i % 2 else Fraction(rng.randint(-8, 8) or 1, rng.choice((1, 2, 4)))
        out.append(QuadExt(a or 1, b))  # nonzero, so every pair can divide
    return out


def _scalar_layer(tracer, seed):
    pool = _operands(seed)
    pairs = [(pool[i % 64], pool[(i * 7 + 3) % 64]) for i in range(BATCH)]
    values = [a for a, _ in pairs]
    parts = [(v.a, v.b) for v in values]
    texts = [format_scalar(v) for v in values]

    def run(name, body):
        _repeat(tracer, name, lambda _: body(), [None])

    def add():
        for a, b in pairs:
            a + b

    def mul():
        for a, b in pairs:
            a * b

    def div():
        for a, b in pairs:
            a / b

    def cmp():
        for a, b in pairs:
            a < b

    def floor():
        for v in values:
            v.floor()

    def construct():
        for a, b in parts:
            QuadExt(a, b)

    def hashing():
        for v in values:
            hash(v)

    def fmt():
        for v in values:
            format_scalar(v)

    def prs():
        for t in texts:
            parse_scalar(t)

    for name, body in (
        ("scalars.add_ns", add),
        ("scalars.mul_ns", mul),
        ("scalars.div_ns", div),
        ("scalars.cmp_ns", cmp),
        ("scalars.floor_ns", floor),
        ("scalars.construct_ns", construct),
        ("scalars.hash_ns", hashing),
        ("scalars.format_us", fmt),
        ("scalars.parse_us", prs),
    ):
        run(name, body)


def _domain_points(spec, k: int = 3) -> list[QuadExt]:
    """k points of the domain, spread across it."""
    dom = spec.domain
    lo = dom.lo if dom.lo is not None else (dom.hi - 10 if dom.hi is not None else QuadExt(-5))
    hi = dom.hi if dom.hi is not None else lo + 10
    return [lo + (hi - lo) * Fraction(j, k + 1) for j in range(1, k + 1)]


def _set_layers(tracer, specs):
    sets = []
    for spec in specs[:4]:
        for x in _domain_points(spec, 2):
            sets.append(g_set(GKind.anchor(), spec, x))
            sets.append(g_set(GKind.displacement(), spec, x))
        sets.append(sublevel(spec, Fraction(1, 2))[0])
        sets.append(spec.image())
    pairs = [(a, b) for a in sets for b in sets[::3]]
    _repeat(tracer, "intervals.union_us", lambda p: p[0].union(p[1]), pairs)
    _repeat(tracer, "intervals.intersect_us", lambda p: p[0].intersect(p[1]), pairs)
    _repeat(tracer, "intervals.difference_us", lambda p: p[0].difference(p[1]), pairs)
    _repeat(tracer, "intervals.closure_us", lambda s: s.closure(), sets)
    nonempty = [s for s in sets if not s.is_empty]
    _repeat(tracer, "intervals.pick_us", lambda s: s.pick(), nonempty)


def _map_layers(tracer, specs):
    points = [(s, x) for s in specs for x in _domain_points(s)]
    texts = [serialize(s) for s in specs]
    _repeat(tracer, "mapping.evaluate_us", lambda p: p[0].evaluate(p[1]), points)
    _repeat(
        tracer,
        "mapping.class_cells_cold_us",
        lambda s: s.class_cells(ClassTag.RATIONAL),
        specs,
        fresh=fresh_copy,
    )
    _repeat(tracer, "mapping.image_us", lambda s: s.image(), specs)
    _repeat(tracer, "mapping.fixed_point_set_us", lambda s: s.fixed_point_set(), specs)
    _repeat(tracer, "mapping.validate_us", lambda s: s.validate(), specs)
    _repeat(tracer, "mapdef.parse_us", parse, texts)
    _repeat(tracer, "mapdef.serialize_us", serialize, specs)


def _condition_layers(tracer, specs):
    _repeat(tracer, "conditions.check_onto_us", check_onto, specs)
    _repeat(tracer, "conditions.decide_c1_us", decide_c1, specs)
    _repeat(tracer, "conditions.decide_c2_us", decide_c2, specs)
    _repeat(tracer, "conditions.check_c3_us", check_c3, specs)
    _repeat(tracer, "conditions.sublevel_us", lambda s: sublevel(s, Fraction(1, 2)), specs)
    cases = []
    for spec in specs:
        a, u, b = _domain_points(spec)
        cases += [(kind, spec, (a, b), u) for kind in BKind]
    _repeat(tracer, "conditions.b_value_us", lambda c: b_value(*c), cases)


# theorem -> the decider it runs besides check_onto and the hull inequality
_EXTRA = {
    TheoremId.T1: decide_c1,
    TheoremId.COR3: None,
    TheoremId.T3: decide_c2,
    TheoremId.COR4: None,
    TheoremId.T5: check_c3,
}
_HULL = {
    TheoremId.T1: "anchor",
    TheoremId.COR3: "anchor",
    TheoremId.T3: "displacement",
    TheoremId.COR4: "displacement",
    TheoremId.T5: "residual",
}


def _verdict_layers(tracer, specs) -> dict[str, list[float]]:
    """run_theorem per theorem; the hull inequality's time is derived as
    the remainder after timing its other deciders.  Those run first, on
    their own fresh copy of the spec and in run_theorem's order, so that
    they pay for building the cells as they do inside run_theorem."""
    derived = {f"conditions.hull_{k}_ms": [] for k in set(_HULL.values())}
    start = time.perf_counter()
    for spec in specs:
        for theorem in TheoremId:
            cold = fresh_copy(spec)
            others = _timed(tracer, "derive.check_onto", check_onto, cold)[1]
            if _EXTRA[theorem] is not None:
                others += _timed(tracer, "derive.extra", _EXTRA[theorem], cold)[1]
            others += _timed(tracer, "derive.fixed_point_set", cold.fixed_point_set)[1]
            _, total = _timed(
                tracer, f"verdict.{theorem.value}_ms", run_theorem, fresh_copy(spec), theorem
            )
            derived[f"conditions.hull_{_HULL[theorem]}_ms"].append((total - others) * 1e3)
        if time.perf_counter() - start > VERDICT_BUDGET_S:
            break
    return derived


def _kkm_layers(tracer, specs, seed) -> float:
    uncovered = calls = 0
    rng = random.Random(f"kkm-layer:{seed}")
    cases = []
    for spec in specs:
        lo, _, hi = _domain_points(spec)
        pts = sorted({lo, hi, *(lo + (hi - lo) * Fraction(rng.randint(1, 7), 8) for _ in range(2))})
        cases += [(GKind.anchor(), spec, pts), (GKind.displacement(), spec, pts)]

    def verify(case):
        nonlocal uncovered, calls
        calls += 1
        uncovered += not verify_kkm(*case)[0]

    _repeat(tracer, "kkm.verify_kkm_ms", verify, cases)
    _repeat(tracer, "kkm.intersection_witness_ms", lambda c: intersection_witness(*c), cases)
    _repeat(tracer, "kkm.em_chain_ms", lambda s: em_chain(s, 6), specs)
    return uncovered / calls


def _cli_layers(tracer, specs, seed) -> None:
    def wall(args):
        code, _, err, _ = spawn(args)
        if code != 0:
            raise RuntimeError(err.decode()[-300:])

    _repeat(tracer, "cli.interpreter_ms", wall, [["-c", "pass"]], budget=0)
    _repeat(tracer, "cli.import_ms", wall, [["-c", "import kkmfix"]], budget=0)
    path = OUT / f"layers-{seed}.map"
    plot = OUT / f"layers-{seed}.csv"
    path.write_text(serialize(specs[0]), encoding="utf-8")
    pts = ",".join(format_scalar(p) for p in _domain_points(specs[0]))
    argvs = [
        ["check", "--map", str(path), "--theorem", "t1", "--json"],
        ["fixed-points", "--map", str(path), "--json"],
        ["kkm", "--map", str(path), "--kind", "g1", "--points", pts, "--json"],
        ["parse", "--map", str(path), "--json"],
        ["plot", "--map", str(path), "--out", str(plot), "--format", "csv", "--json"],
    ]
    try:
        _repeat(tracer, "cli.run_command_ms", run_command, argvs)
    finally:
        path.unlink()
        plot.unlink(missing_ok=True)


def run_layers(tracer, specs, seed) -> dict[str, float]:
    """Every per-layer metric except the tracing overhead."""
    first = len(tracer.spans)
    with tracer.span("layers.scalars"):
        _scalar_layer(tracer, seed)
    with tracer.span("layers.intervals"):
        _set_layers(tracer, specs)
    with tracer.span("layers.mapping"):
        _map_layers(tracer, specs)
    with tracer.span("layers.conditions"):
        _condition_layers(tracer, specs)
    with tracer.span("layers.verdict"):
        derived = _verdict_layers(tracer, specs)
    with tracer.span("layers.kkm"):
        uncovered_share = _kkm_layers(tracer, specs, seed)
    with tracer.span("layers.cli"):
        _cli_layers(tracer, specs, seed)
    with tracer.span("layers.randmaps"):
        _repeat(
            tracer,
            "randmaps.random_spec_ms",
            random_spec,
            [f"layers:{seed}:{i}" for i in range(16)],
        )
    with tracer.span("layers.plotting"):
        _repeat(tracer, "plotting.emit_plot_ms", lambda s: emit_plot(s, "csv", 101), specs)

    selfs = tracer.self_by_name(since=first)
    out = {}
    for name, (unit, _) in METRICS.items():
        if name in selfs:
            per_call = BATCH if name.startswith("scalars.") else 1
            out[name] = statistics.median(selfs[name]) / per_call / _SCALE[unit]
    # the import metric excludes the bare interpreter it starts
    out["cli.import_ms"] -= out["cli.interpreter_ms"]
    for name, values in derived.items():
        out[name] = statistics.median(values)
    out["kkm.uncovered_share"] = uncovered_share
    return out
