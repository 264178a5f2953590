"""Smoke test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from kkmfix import QuadExt, Status, SubsetWitness, TheoremId, b_value, run_theorem  # noqa: E402
from kkmfix.verdict import corpus_entry  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import Corpus, Op, Stream, measure  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _falsified_t1():
    """Corpus entry 4: T1 with a Falsified anchor inequality."""
    entry = corpus_entry(4)
    return entry, run_theorem(entry.spec, TheoremId.T1)


def _with_condition(verdict, key, **changes):
    conditions = dict(verdict.conditions)
    conditions[key] = dataclasses.replace(conditions[key], **changes)
    return dataclasses.replace(verdict, conditions=conditions)


def _failed(result, check) -> int:
    """Failed operations when one op returning ``result`` is measured."""
    stream = Stream(iter([Op(lambda tr: result, check, 0)]))
    return measure({"s": stream}, Tracer(), counts={"s": 1}).failed


def test_true_verdict_passes():
    entry, verdict = _falsified_t1()
    tally = checks.Tally()
    assert checks.check_corpus_entry(4, entry, entry.spec, verdict, tally) == []
    assert (tally.decided, tally.total) == (1, 1)


def test_wrong_verdicts_and_witnesses_count_as_failed():
    entry, verdict = _falsified_t1()
    spec = entry.spec
    witness = verdict.conditions["kkm_anchor"].witness
    lo, hi = min(witness.points), max(witness.points)
    # a hull point where the inequality holds: not a witness
    good_u = next(
        u
        for u in (lo, hi, (lo + hi) / 2)
        if b_value(checks.HULL_KINDS["kkm_anchor"], spec, witness.points, u) >= 0
    )
    bad_witness = SubsetWitness(witness.points, None, good_u)
    wrong = [
        dataclasses.replace(verdict, consistent=False),
        dataclasses.replace(verdict, fixed_points=(QuadExt(1),)),
        _with_condition(verdict, "kkm_anchor", witness=bad_witness),
        _with_condition(verdict, "kkm_anchor", witness=None),
    ]
    check = lambda v, tally: checks.check_theorem_verdict(spec, v, tally)  # noqa: E731
    assert _failed(verdict, check) == 0
    for v in wrong:
        assert _failed(v, check) == 1
    # the corpus check compares against its own expected table
    proven = _with_condition(verdict, "kkm_anchor", status=Status.PROVEN, witness=None)
    corpus = lambda v, tally: checks.check_corpus_entry(4, entry, spec, v, tally)  # noqa: E731
    assert _failed(proven, corpus) == 1
    assert _failed(dataclasses.replace(verdict, fixed_points=()), corpus) == 0
    assert _failed(dataclasses.replace(verdict, fixed_points=None), corpus) == 1


def test_raising_operation_and_bad_cli_scalar_count_as_failed():
    def boom(tracer):
        raise ValueError("boom")

    stream = Stream(iter([Op(boom, None, 0)]))
    assert measure({"s": stream}, Tracer(), counts={"s": 1}).failed == 1
    body = {
        "command": "fixed-points",
        "exit_code": 0,
        "verdicts": {"fixed_point_set": "{1/2}", "fixed_points": ["1/2 +"]},
    }
    spec = corpus_entry(1).spec
    check = lambda b, tally: checks.check_cli_output(  # noqa: E731
        "fixed-points", b, 0, spec, None, tally
    )
    assert _failed(body, check) == 1


def test_traced_spans_have_parents_and_shared_op_ids(tmp_path):
    corpus = Corpus()
    tracer = Tracer()
    streams = corpus.streams(corpus.build(3))
    counts = {k: 2 if k in ("e01", "e05", "e06", "e14") else 0 for k in streams}
    measured = measure(streams, tracer, counts=counts)
    assert measured.failed == 0 and measured.attempted == 8
    roots = [s for s in tracer.spans if s[3] is None]
    children = [s for s in tracer.spans if s[3] is not None]
    assert len(roots) == 8 and len(children) == 8
    for sid, name, op, parent, start, end in children:
        assert name.startswith("verdict.")
        assert op == parent == tracer.spans[parent][2]
        assert tracer.spans[parent][4] <= start <= end <= tracer.spans[parent][5]
    assert all(own >= 0 for own in tracer.self_ns())
    tracer.write(tmp_path / "spans.json", {"seed": 3})
    written = json.loads((tmp_path / "spans.json").read_text())
    assert len(written["spans"]) == 16 and written["meta"] == {"seed": 3}


def test_benchmark_json_names_every_layer_metric():
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == {
        name: unit for name, (unit, _) in layers.METRICS.items()
    }


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
    )


def test_untraced_run_reports_every_end_to_end_metric():
    proc = _bench(ROOT, "--workload", "cli", "--seed", "5", "--seconds", "0.5", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_traced_run_reports_every_layer_metric_and_writes_spans():
    proc = _bench(ROOT, "--workload", "cli", "--seed", "6", "--seconds", "0.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]
    }
    spans = json.loads((HERE / "out" / "spans-cli-6.json").read_text())["spans"]
    by_id = {s["id"]: s for s in spans}
    ops = [s for s in spans if s["name"].startswith("op.")]
    assert len(ops) == 36 and all(s["parent"] is None and s["op"] == s["id"] for s in ops)
    children = [s for s in spans if s["name"] == "cli.process"]
    assert len(children) == 36
    assert all(by_id[s["parent"]]["name"].startswith("op.") for s in children)
    assert all(s["op"] == by_id[s["parent"]]["op"] for s in spans if s["parent"] is not None)
