"""Spans around the benchmark's calls into kkmfix layers.

A span records a name, start and end (``perf_counter_ns``), its parent
span and the operation it belongs to: the id of the root span of its tree.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path


class NullTracer:
    """The untraced path: spans cost one reused no-op context manager."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


class Tracer:
    def __init__(self):
        # [id, name, op, parent, start_ns, end_ns]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        op = sid if parent is None else self.spans[parent][2]
        record = [sid, name, op, parent, time.perf_counter_ns(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self) -> list[int]:
        """Per span: its duration minus the time its children cover."""
        out = [end - start for _, _, _, _, start, end in self.spans]
        for _, _, _, parent, start, end in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def self_by_name(self, since: int = 0) -> dict[str, list[int]]:
        """Self times in ns of the spans from index ``since`` on, grouped
        by span name, in recording order."""
        out: dict[str, list[int]] = defaultdict(list)
        for record, own in zip(self.spans[since:], self.self_ns()[since:]):
            out[record[1]].append(own)
        return out

    def write(self, path: Path, meta: dict) -> None:
        rows = [
            {
                "id": sid,
                "name": name,
                "op": op,
                "parent": parent,
                "start_ns": start,
                "end_ns": end,
                "self_ns": own,
            }
            for (sid, name, op, parent, start, end), own in zip(
                self.spans, self.self_ns()
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"meta": meta, "spans": rows}) + "\n")
