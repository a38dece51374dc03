"""In-memory spans for the traced run.

A span records name, start, end, its parent span and the id of the
workload run it belongs to.  Spans nest on one thread, so a span's
*self time* is its duration minus its children's durations.  The traced
run opens one root span; whatever the root's self time holds is time no
layer accounted for.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans in memory; :meth:`export` hands them out for JSON."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        """Record the enclosed block as span *name*."""
        record: Dict[str, object] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def duration(self, record: Dict[str, object]) -> float:
        """Wall time of one finished span."""
        return record["end"] - record["start"]

    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        own = {record["id"]: self.duration(record) for record in self.spans}
        for record in self.spans:
            if record["parent"] is not None:
                own[record["parent"]] -= self.duration(record)
        return own

    def durations(self, name: str) -> List[float]:
        """Wall times of every span called *name*, in order."""
        return [self.duration(r) for r in self.spans if r["name"] == name]

    def layer_self_times(self) -> Dict[str, float]:
        """Self time per layer (span name up to the first dot)."""
        layers: Dict[str, float] = {}
        for span_id, seconds in self.self_times().items():
            layer = str(self.spans[span_id]["name"]).split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def coverage(self, root: Dict[str, object]) -> float:
        """Share of *root*'s wall time covered by the self time of its
        descendants (1 - the root's own self time / its duration)."""
        return 1.0 - self.self_times()[root["id"]] / self.duration(root)

    def export(self) -> Dict[str, object]:
        """Every span as JSON-ready data (times in seconds from the first span)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        rows = [
            {**r, "start": r["start"] - origin, "end": r["end"] - origin}
            for r in self.spans
        ]
        return {"run": self.run_id, "spans": rows}


class NullTracer:
    """The untraced twin of :class:`Tracer`: same calls, nothing recorded."""

    @contextmanager
    def span(self, name: str) -> Iterator[Optional[Dict[str, object]]]:
        """Run the enclosed block without recording it."""
        yield None
