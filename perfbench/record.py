"""Run the benchmark over several seeds per workload and summarise it.

    python3 perfbench/record.py [--workloads corpus,cli]
        [--seeds 1-10] [--trace-seeds 1] [--out FILE]

Runs ``perfbench/run.py`` once per (workload, seed), one run at a time,
with the ``run_seconds`` of BENCHMARK.json.  For every workload it prints
each end-to-end metric by name and unit with its median, quartiles and
spread, (q3 - q1) / median, next to the metric's bound; any run whose
outputs failed their checks makes the exit status 1.  With ``--out`` it
also writes the runs and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    meta = next((json.loads(l[4:]) for l in lines if l.startswith("run: ")), None)
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall, "meta": meta, **result}


def summarise(runs: list[dict], spec: list[dict]) -> dict:
    out = {}
    for metric in spec:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        out[metric["name"]] = {
            "unit": metric["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": metric.get("bound"),
        }
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace-seeds", default="")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    ok = True
    for workload in args.workloads.split(","):
        runs = [
            _run(workload, s, bench["run_seconds"], 0) for s in _seeds(args.seeds)
        ]
        traced = [
            _run(workload, s, bench["run_seconds"], 1)
            for s in (_seeds(args.trace_seeds) if args.trace_seeds else [])
        ]
        ok &= all(r["correct"] for r in runs + traced)
        summary = summarise(runs, bench["end_to_end"])
        report["workloads"][workload] = {
            "why": whys[workload],
            "summary": summary,
            "runs": runs,
            "traced": traced,
        }
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        walls = [r["wall_s"] for r in runs]
        print(
            f"{workload}: {len(runs)} runs of {min(walls):.0f}-{max(walls):.0f} s,"
            f" {failed}/{attempted} operations failed"
        )
        for name, s in summary.items():
            print(
                f"  {name:<16}{s['median']:>12.6g} {s['unit']:<6}"
                f" q1 {s['q1']:<10.6g} q3 {s['q3']:<10.6g}"
                f" spread {s['spread']:.4f} (bound {s['bound']})"
            )
        for r in traced:
            print(f"  traced seed {r['seed']}: {r['failed']}/{r['attempted']} failed")
            for name, m in r["metrics"].items():
                print(f"    {name:<34}{m['value']:>14.6g} {m['unit']}")
    if args.out:
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        from layers import METRICS

        first = next(iter(report["workloads"].values()))["runs"][0]["meta"]
        report["machine"] = {k: first[k] for k in ("kernel", "python", "nproc", "commit")}
        report["per_layer_moves"] = {name: moves for name, (_, moves) in METRICS.items()}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
