"""Harness-side spans: recorded *around* calls into each layer's public
functions, kept in memory, written as Chrome-trace JSON at exit.

Nothing under ``src/`` is instrumented — spans inside the program are
a later change (choosing-metrics §4).
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Nested spans for one workload sample.

    A span is ``{"name", "layer", "start", "end", "parent", "workload"}``
    with times in seconds on the ``perf_counter`` clock and ``parent``
    the index of the span that caused it (None for a root).
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        record = {"name": name, "layer": layer, "workload": self.workload,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list) -> dict:
    """Self time per span name: a span's duration minus the part of it
    its child spans cover (children of one parent never overlap here —
    the harness is single-threaded)."""
    out = {}
    for index, span in enumerate(spans):
        covered = sum(duration(s) for s in spans if s["parent"] == index)
        out[span["name"]] = out.get(span["name"], 0.0) \
            + duration(span) - covered
    return out


def residue_frac(spans: list) -> float:
    """Share of the root spans' wall that no child span covers."""
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    total = sum(duration(spans[i]) for i in roots)
    covered = sum(duration(s) for s in spans if s["parent"] in roots)
    return (total - covered) / total if total > 0 else 0.0


def chrome_trace(spans: list) -> dict:
    """The spans as a Chrome / Perfetto ``traceEvents`` document, one
    thread row per layer."""
    if not spans:
        return {"traceEvents": []}
    epoch = min(s["start"] for s in spans)
    layers = sorted({s["layer"] for s in spans})
    events = [{"ph": "M", "pid": 1, "tid": layers.index(layer) + 1,
               "name": "thread_name", "args": {"name": layer}}
              for layer in layers]
    for index, span in enumerate(spans):
        events.append({
            "ph": "X", "pid": 1, "tid": layers.index(span["layer"]) + 1,
            "name": span["name"], "cat": span["layer"],
            "ts": (span["start"] - epoch) * 1e6,
            "dur": duration(span) * 1e6,
            "args": {"id": index, "parent": span["parent"],
                     "workload": span["workload"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
