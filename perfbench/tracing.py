"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files, around its calls into each
dephkit module; the library itself is not instrumented. A span's name starts
with the module (layer) it times, e.g. ``superchannels.gram_from_simulation.d3``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

LAYERS = ("linalg", "channels", "superchannels", "memory", "bloch", "io", "cli")


class Tracer:
    """Collects spans: name, start, end, parent span and operation id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"name": name, "start": time.perf_counter(), "end": None, "parent": parent, "op": op, "failed": False, "calls": 1}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException:
            rec["failed"] = True
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out = []
        for idx, s in enumerate(self.spans):
            covered, reach = 0.0, s["start"]
            for start, end in sorted(children.get(idx, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(s["end"] - s["start"] - covered)
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per layer: calls, busy_ms, self_ms and failed."""
        out = {}
        self_t = self.self_times()
        for layer in LAYERS:
            idx = [i for i, s in enumerate(self.spans) if s["name"].split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = (sum(self.spans[i]["calls"] for i in idx), "count")
            out[f"{layer}.busy_ms"] = (sum(self.spans[i]["end"] - self.spans[i]["start"] for i in idx) * 1e3, "ms")
            out[f"{layer}.self_ms"] = (sum(self_t[i] for i in idx) * 1e3, "ms")
            out[f"{layer}.failed"] = (sum(self.spans[i]["failed"] for i in idx), "count")
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
