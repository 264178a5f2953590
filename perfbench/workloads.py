"""The two workloads, their seeded inputs and the closed-loop scheduler.

All load comes from one thread: each operation waits for the one before
it, and the ``cli`` workload keeps one child process alive at a time.
A workload is split into streams (one per corpus entry, one per command
for ``cli``).  Each stream repeats a fixed pass of operations and has a
weight; the scheduler always runs the stream furthest behind its
weighted share of the time, so every stream's executions are spread
over the whole run.  A shared host can run the same code up to ~1.5x
slower for a second or more at a time (measured on a 2-vCPU VM), and a
slow spell only ever adds time, so an operation's latency is the best
of its executions in the run.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Hashable, Iterator

from checks import Tally, check_cli_output, check_corpus_entry
from kkmfix import (
    GKind,
    MappingSpec,
    QuadExt,
    TheoremId,
    default_gap_delta,
    format_scalar,
    parse,
    random_spec,
    run_theorem,
    serialize,
)
from kkmfix.verdict import corpus_entry

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

POPULATION_SEED = 0  # seeds the fixed maps of cli


@dataclass
class Op:
    run: Callable  # (tracer) -> result
    check: Callable  # (result, Tally) -> list of problems
    slot: Hashable  # the same operation in every pass has the same slot
    closes: bool = True  # ends a pass of its stream


@dataclass
class Stream:
    ops: Iterator[Op]
    weight: float = 1.0


@dataclass
class Measured:
    latency: dict[tuple, float]  # (stream, slot) -> best latency
    counts: dict[str, int]
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    tally: Tally = field(default_factory=Tally)

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())


def measure(streams: dict[str, Stream], tracer, seconds=None, counts=None):
    """Run the streams one operation at a time, always the one whose time
    spent is furthest behind its weighted share.

    With ``seconds``, stream k stops at the end of a pass once another
    operation would likely take it further past its share,
    ``seconds * weight_k / sum of weights``, than stopping leaves it
    short, so that the run lasts about ``seconds``; every stream runs at
    least one pass.  With ``counts``, stream k runs exactly ``counts[k]``
    operations.  Checks run outside the timing."""
    total_weight = sum(s.weight for s in streams.values())
    spent = dict.fromkeys(streams, 0.0)
    done = dict.fromkeys(streams, 0)
    closed = dict.fromkeys(streams, False)
    last = dict.fromkeys(streams, 0.0)
    samples: dict[tuple, list[float]] = {}
    out = Measured({}, done)

    def finished(key):
        if counts is not None:
            return done[key] >= counts[key]
        share = seconds * streams[key].weight / total_weight
        return closed[key] and spent[key] + last[key] / 2 >= share

    active = [k for k in streams if not finished(k)]
    while active:
        key = min(active, key=lambda k: spent[k] / streams[k].weight)
        op = next(streams[key].ops)
        start = time.perf_counter()
        try:
            with tracer.span(f"op.{key}"):
                result = op.run(tracer)
            problems = None
        except Exception as exc:  # an operation that raises has failed
            problems = [f"{key}: raised {exc!r}"]
        elapsed = time.perf_counter() - start
        spent[key] += elapsed
        last[key] = elapsed
        done[key] += 1
        closed[key] = op.closes
        samples.setdefault((key, op.slot), []).append(elapsed)
        if problems is None:
            out.tally.start((key, op.slot))
            try:
                problems = op.check(result, out.tally)
            except Exception as exc:  # malformed output fails the check
                problems = [f"{key}: check raised {exc!r}"]
        if problems:
            out.failed += 1
            out.problems.extend(problems)
        if finished(key):
            active.remove(key)
    out.latency = {slot: min(v) for slot, v in samples.items()}
    return out


def cli_maps() -> list[MappingSpec]:
    """The cli workload's fixed maps: one of each random_spec family."""
    families = ("interpolated", "zigzag", "swap", "steps")
    return [random_spec(f"{POPULATION_SEED}:{i}", f) for i, f in enumerate(families)]


def fresh_copy(spec):
    """The same map as a newly built spec, with no cached cells."""
    return MappingSpec(spec.domain, spec.pieces, spec.overrides, spec.label)


def seeded_scalar(rng: random.Random) -> QuadExt:
    """A point of [0, 10], the generated maps' domain: a small-denominator
    rational or q + sqrt2/2^n."""
    if rng.random() < 0.5:
        den = rng.choice((1, 2, 3, 4, 6, 8))
        return QuadExt(Fraction(rng.randint(0, 10 * den), den))
    q = Fraction(rng.randint(0, 38), 4)
    return QuadExt(q, Fraction(1, 2 ** rng.randint(2, 4)))


def seeded_points(rng: random.Random, k: int) -> list[QuadExt]:
    out: set[QuadExt] = set()
    while len(out) < k:
        out.add(seeded_scalar(rng))
    return sorted(out)


def _passes(items, seed_text: str):
    """(index, item, closes) forever, in whole passes over items in one
    seeded order."""
    order = list(range(len(items)))
    random.Random(seed_text).shuffle(order)
    while True:
        for k, i in enumerate(order):
            yield i, items[i], k == len(order) - 1


def python_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def spawn(args) -> tuple[int, bytes, bytes, int]:
    """Run ``python <args>`` to completion: exit code, stdout, stderr and
    the child's own peak RSS in KiB."""
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=err,
            env=python_env(),
            cwd=ROOT,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), usage.ru_maxrss


def import_seconds() -> float:
    """``import kkmfix`` in a fresh interpreter, timed inside it."""
    code, out, err, _ = spawn(
        [
            "-c",
            "import time; t = time.perf_counter(); import kkmfix; "
            "print(time.perf_counter() - t)",
        ]
    )
    if code != 0:
        raise RuntimeError(f"import kkmfix failed: {err.decode()[-500:]}")
    return float(out)


# ---------------------------------------------------------------------------
# corpus


def _corpus_op(entry, tracer):
    spec = fresh_copy(entry.spec)
    with tracer.span(f"verdict.{entry.theorem.value}"):
        return spec, run_theorem(spec, entry.theorem)


def _corpus_check(entry, result, tally):
    spec, verdict = result
    return check_corpus_entry(entry.index, entry, spec, verdict, tally)


class Corpus:
    """The paper's fixed worked examples; the seed does not change them.

    An operation is what run_corpus does for one entry: run_theorem under
    the entry's theorem, here on a fresh copy of its parsed spec, so that
    every execution starts cold.  Each entry is a stream.  A T5 entry,
    which searches the residual hull inequality, takes seconds and the
    others milliseconds, so the others get CHEAP_WEIGHT of a T5 entry's
    share: enough for hundreds of executions, spread between the T5
    ones."""

    name = "corpus"
    CHEAP_WEIGHT = 1 / 16

    def build(self, seed):
        corpus_entry.cache_clear()  # parse the 14 corpus files afresh
        return [corpus_entry(n) for n in range(1, 15)]

    def streams(self, entries):
        def ops(entry):
            while True:
                yield Op(partial(_corpus_op, entry), partial(_corpus_check, entry), 0)

        return {
            f"e{e.index:02d}": Stream(
                ops(e), 1.0 if e.theorem is TheoremId.T5 else self.CHEAP_WEIGHT
            )
            for e in entries
        }

    def layer_specs(self, entries):
        return [e.spec for e in entries]

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self):
        pass


# ---------------------------------------------------------------------------
# cli


@dataclass(frozen=True)
class CliMap:
    path: Path
    spec: MappingSpec  # parsed back from the file, as the child sees it
    kkm_kind: str
    kkm_points: list


_KKM_FORMS = {"g1": GKind.anchor, "g2": GKind.displacement}


def _cli_argv(command: str, m: CliMap, plot_out: Path, theorem=None) -> list[str]:
    argv = [command, "--map", str(m.path)]
    if command == "check":
        argv += ["--theorem", theorem.value]
    elif command == "kkm":
        argv += ["--kind", m.kkm_kind]
        argv += ["--points", ",".join(format_scalar(p) for p in m.kkm_points)]
    elif command == "plot":
        argv += ["--out", str(plot_out), "--format", "csv"]
    return argv + ["--json"]


def _kkm_kind(m: CliMap):
    if m.kkm_kind == "g3":
        return GKind.gap(default_gap_delta(m.spec))
    return _KKM_FORMS[m.kkm_kind]()


class Cli:
    """The map files hold the fixed maps of cli_maps(); the seed picks
    the kkm forms and points and the order of the maps in each stream."""

    name = "cli"
    COMMANDS = [("check", t) for t in TheoremId] + [
        ("fixed-points", None),
        ("kkm", None),
        ("parse", None),
        ("plot", None),
    ]

    def __init__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        self.peak_kb = 0

    def build(self, seed):
        self.seed = seed
        maps = []
        for i, generated in enumerate(cli_maps()):
            text = serialize(generated)
            path = self.dir / f"map{i:02d}.map"
            path.write_text(text, encoding="utf-8")
            spec = parse(text)
            rng = random.Random(f"cli:{seed}:{i}")
            kinds = ["g1", "g2"]
            if default_gap_delta(spec) is not None:
                kinds.append("g3")
            maps.append(
                CliMap(path, spec, rng.choice(kinds), seeded_points(rng, rng.randint(2, 4)))
            )
        return maps

    def _op(self, argv, tracer):
        with tracer.span("cli.process"):
            return spawn(["-m", "kkmfix", *argv])

    def _check(self, command, m, result, tally):
        code, out, err, rss_kb = result
        self.peak_kb = max(self.peak_kb, rss_kb)
        if code not in (0, 1):
            return [f"{command}: exit {code}: {err.decode()[-300:]}"]
        body = json.loads(out)
        kkm = (_kkm_kind(m), m.kkm_points) if command == "kkm" else None
        problems = check_cli_output(command, body, code, m.spec, kkm, tally)
        if command == "plot":
            written = (self.dir / "plot.csv").stat().st_size
            if written != body["verdicts"]["bytes"]:
                problems.append("plot: file size differs from the report")
        return problems

    def streams(self, maps):
        def ops(key, command, theorem):
            for i, m, closes in _passes(maps, f"cli:{self.seed}:{key}"):
                argv = _cli_argv(command, m, self.dir / "plot.csv", theorem)
                yield Op(partial(self._op, argv), partial(self._check, command, m), i, closes)

        keys = [c if t is None else f"check-{t.value}" for c, t in self.COMMANDS]
        return {k: Stream(ops(k, c, t)) for k, (c, t) in zip(keys, self.COMMANDS)}

    def layer_specs(self, maps):
        return [m.spec for m in maps]

    def peak_rss_kb(self):
        return self.peak_kb

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Corpus, Cli)}


def percentile(values, q: int) -> float:
    """The q-th percentile by nearest rank: a measured value, never an
    interpolation between two operations of different kinds."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]
