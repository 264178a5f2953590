"""kkmfix benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {corpus,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from its
``src``.  ``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload for a third of the time untraced and
then the same operations traced (the difference is the tracing
overhead), and then times every layer; spans are written to
``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit status:
0 when every output passed its checks, 1 when one did not, 2 when the
checkout holds no kkmfix sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    """Identifies the measured sources where no git commit is at hand."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "kkmfix").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _setup(workload, seed, import_seconds):
    """The median over SETUP_REPEATS set-ups, each an ``import kkmfix``
    in a fresh interpreter plus an input build; returns the seconds and
    the last inputs."""
    totals = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        start = time.perf_counter()
        inputs = workload.build(seed)
        totals.append(seconds + time.perf_counter() - start)
    return statistics.median(totals), inputs


def _end_to_end(w, measured, setup_s, percentile):
    lat = list(measured.latency.values())
    tally = measured.tally
    share = tally.decided / tally.total if tally.total else 1.0
    ops = f"{len(lat)} operations, each its best of the run"
    return {
        "setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} imports + builds"),
        "op_geomean_ms": (statistics.geometric_mean(lat) * 1e3, "ms", ops),
        "op_p50_ms": (percentile(lat, 50) * 1e3, "ms", ops),
        "decided_share": (
            share,
            "ratio",
            f"{tally.decided}/{tally.total} hull conditions"
            if tally.total
            else "no hull conditions: every verdict is exact",
        ),
        "peak_rss_mb": (
            w.peak_rss_kb() / 1024,
            "MB",
            "children" if w.name == "cli" else "this process",
        ),
    }


def _span_summary(tracer, upto: int) -> dict[str, tuple[int, float]]:
    """Span count and total self ms per name, over the first spans."""
    out: dict[str, tuple[int, float]] = {}
    for record, own in zip(tracer.spans[:upto], tracer.self_ns()[:upto]):
        count, total = out.get(record[1], (0, 0.0))
        out[record[1]] = (count + 1, total + own / 1e6)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "kkmfix" / "__init__.py").is_file():
        print(f"perfbench: no kkmfix sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kkmfix

    if Path(kkmfix.__file__).resolve().parent != SRC / "kkmfix":
        print(f"perfbench: imported kkmfix from {kkmfix.__file__}", file=sys.stderr)
        return 2

    from layers import METRICS, run_layers
    from tracing import NullTracer, Tracer
    from workloads import OUT, WORKLOADS, import_seconds, measure, percentile

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel": kkmfix.KERNEL,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }
    print("run:", json.dumps(meta))
    OUT.mkdir(parents=True, exist_ok=True)
    w = WORKLOADS[args.workload]()
    try:
        setup_s, inputs = _setup(w, args.seed, import_seconds)
        if not args.trace:
            measured = measure(w.streams(inputs), NullTracer(), seconds=args.seconds)
            runs = [measured]
            rows = _end_to_end(w, measured, setup_s, percentile)
        else:
            ref = measure(w.streams(inputs), NullTracer(), seconds=args.seconds / 3)
            tracer = Tracer()
            traced = measure(w.streams(inputs), tracer, counts=ref.counts)
            runs = [ref, traced]
            op_spans = len(tracer.spans)
            layer = run_layers(tracer, w.layer_specs(inputs), args.seed)
            # both runs hold the same operations, each at its best latency
            gm = statistics.geometric_mean
            layer["trace.overhead_pct"] = (
                gm(traced.latency.values()) / gm(ref.latency.values()) - 1
            ) * 100
            rows = {
                name: (layer[name], unit, moves)
                for name, (unit, moves) in METRICS.items()
            }
            path = OUT / f"spans-{args.workload}-{args.seed}.json"
            tracer.write(path, meta)
            print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
            print(f"workload spans ({sum(ref.counts.values())} operations):")
            for name, (count, total) in sorted(_span_summary(tracer, op_spans).items()):
                print(f"  {name:<28}{count:>7} spans {total:>12.1f} ms self")
    finally:
        w.close()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [p for r in runs for p in r.problems]
    for p in problems[:20]:
        print("FAILED:", p)
    for r in runs:
        print("streams:", ", ".join(f"{k} {n} ops" for k, n in r.counts.items()))
    print(f"{'metric':<34}{'value':>14}  {'unit':<6} note")
    for name, (value, unit, note) in rows.items():
        print(f"{name:<34}{value:>14.6g}  {unit:<6} {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in rows.items()
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
