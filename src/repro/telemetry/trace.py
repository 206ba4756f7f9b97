"""Chrome trace-event output (``bookleaf run --trace``).

Serialises the recorded spans as a Trace Event Format JSON object —
the format Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``
load directly.  Every rank becomes one *thread row* (``tid`` = rank)
inside one process, so a decomposed run renders as stacked per-rank
timelines on a shared clock: the run/step/phase/kernel hierarchy nests
by timestamp within a row, and the Typhon ``comm`` spans make barrier
waits (load imbalance) directly visible.

Spans map to complete events (``"ph": "X"``, microsecond ``ts``/
``dur``) and zero-duration markers to instant events (``"ph": "i"``);
metadata events name the process and the rank rows.  See
docs/OBSERVABILITY.md for a screenshot-level walkthrough.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from ..utils.timers import CATEGORIES, Span

PROCESS_NAME = "bookleaf"

#: categories legal in a trace file: the span hierarchy plus the
#: sweep-level rows (``fleet`` scheduler facts, ``flow`` arrows
#: linking a killed attempt to its resumed retry)
TRACE_CATEGORIES = CATEGORIES + ("fleet", "flow")


def trace_events(spans: Iterable[Span]) -> dict:
    """Build the trace-event JSON object from a merged span stream."""
    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": PROCESS_NAME},
    }]
    ranks = sorted({span.rank for span in spans})
    for rank in ranks:
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
            "args": {"name": f"rank {rank}"},
        })
    for span in spans:
        args = dict(span.args)
        if span.alloc_bytes is not None:
            args["alloc_bytes"] = span.alloc_bytes
        event = {
            "name": span.name,
            "cat": span.cat,
            "pid": 0,
            "tid": span.rank,
            "ts": span.t0_ns / 1e3,       # microseconds
        }
        if span.dur_ns == 0:
            event["ph"] = "i"
            event["s"] = "t"              # thread-scoped instant
        else:
            event["ph"] = "X"
            event["dur"] = max(span.dur_ns, 0) / 1e3
        if args:
            event["args"] = args
        events.append(event)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.telemetry"},
    }


def write_trace(spans: Iterable[Span], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(trace_events(list(spans))) + "\n")
    return path


def validate_trace(trace: dict) -> None:
    """Raise ``ValueError`` unless ``trace`` is a well-formed trace-event
    object (the checks Perfetto's loader effectively performs)."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid trace: {msg}")

    need(isinstance(trace, dict), "not a dict")
    events = trace.get("traceEvents")
    need(isinstance(events, list) and events, "traceEvents missing/empty")
    for event in events:
        need(isinstance(event.get("name"), str), "event without a name")
        ph = event.get("ph")
        need(ph in ("X", "i", "M", "s", "f"), f"unsupported phase {ph!r}")
        need(isinstance(event.get("pid"), int), "event without pid")
        need(isinstance(event.get("tid"), int), "event without tid")
        if ph == "M":
            continue
        need(isinstance(event.get("ts"), (int, float)) and event["ts"] >= 0,
             "event with negative/missing ts")
        need(event.get("cat") in TRACE_CATEGORIES,
             f"unknown category {event.get('cat')!r}")
        if ph == "X":
            need(isinstance(event.get("dur"), (int, float))
                 and event["dur"] >= 0, "X event with bad dur")
        if ph == "i":
            need(event.get("s") in ("t", "p", "g"), "i event without scope")
        if ph in ("s", "f"):
            need(isinstance(event.get("id"), int),
                 f"{ph} flow event without an id")
        if ph == "f":
            need(event.get("bp") == "e",
                 "f flow event without bp='e' (binds to enclosing slice)")
