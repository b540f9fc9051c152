"""In-memory span recorder for the benchmark's traced runs.

The benchmark measures ``repro`` *from outside*: a span is opened around
each call the workload makes into a layer's public function (``api.run``,
the ``runner=`` handed to ``JobManager``, an HTTP round trip, a store
call).  Spans live in a list until the run ends and are then flushed to
``results/trace-<workload>-<seed>.jsonl``; nothing is written, and no clock
beyond the two ``perf_counter`` reads per span is touched, while the
workload runs.  End-to-end metrics are always measured with :data:`OFF`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["OFF", "Tracer", "covered", "self_times"]


class Tracer:
    """Records ``{id, name, start, end, parent, workload}`` spans.

    ``parent`` is the id of the span open on the same thread when this one
    started (``None`` at the root), so spans opened by the two client
    threads of a workload never adopt each other.
    """

    enabled = True

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._open = threading.local()

    @contextmanager
    def span(self, name: str):
        stack = self._open.__dict__.setdefault("stack", [])
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": stack[-1] if stack else None,
            "workload": self.workload,
            "start": time.perf_counter(),
        }
        stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)  # list.append is atomic under the GIL

    def span_cost_seconds(self, samples: int = 2000) -> float:
        """Measured cost of recording one span (for ``trace.overhead_ratio``)."""
        probe = Tracer(self.workload)
        start = time.perf_counter()
        for _ in range(samples):
            with probe.span("probe"):
                pass
        return (time.perf_counter() - start) / samples

    def flush(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in sorted(self.spans, key=lambda r: r["start"]):
                fh.write(json.dumps(record) + "\n")


class _Off:
    """The tracer of an untraced run: ``span`` costs one generator frame."""

    enabled = False
    spans: list[dict] = []

    @contextmanager
    def span(self, name: str):
        yield


OFF = _Off()


def _union(intervals: list[tuple[float, float]]) -> float:
    total, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


def covered(spans: list[dict]) -> float:
    """Seconds of wall time inside at least one span (threads overlap once)."""
    return _union([(s["start"], s["end"]) for s in spans])


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict[str, float] = {}
    for s in spans:
        own = (s["end"] - s["start"]) - _union(children.get(s["id"], []))
        out[s["name"]] = out.get(s["name"], 0.0) + own
    return out
