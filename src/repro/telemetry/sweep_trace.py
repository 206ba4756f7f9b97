"""One merged Chrome/Perfetto trace for a whole fleet sweep.

A single run's trace (:mod:`repro.telemetry.trace`) renders ranks as
thread rows of one process.  A sweep is a different shape: many jobs,
executed by many workers, with scheduling events (cache hits,
checkpoints, retries) that belong to the *fleet*, not to any rank.
The :class:`SweepTraceBuilder` lays that out as

* one **process row per worker** (``pid = worker id + 1``) plus the
  scheduler itself (``pid = 0``) — inline jobs and cache hits render
  under the scheduler, pool jobs under the worker that finished them
  (a traced job never batches, so there are no batched passes to
  draw);
* one **thread row per job/rank** (``tid = 1 + job*RANK_STRIDE +
  rank``), carrying the job's run → step → phase → kernel spans
  shipped back from the worker;
* **instant events** for scheduler facts — cache hits, checkpoint
  writes — pinned to the job's row;
* **flow events** (``ph: "s"``/``"f"``) linking a killed attempt to
  the resumed retry that completed the job, so a kill → resume renders
  as an arrow across worker process rows in Perfetto.

Event order is deterministic: jobs ascending, each job's spans in
recording order, instants by job then time — *not* by arrival, which
would differ run to run with worker scheduling.  The determinism test
asserts ``workers=1`` and ``workers=4`` sweeps produce event-identical
traces modulo timestamps and worker assignment.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..utils.timers import Span

#: span args that are clock readings: a ``step N`` span's step-row
#: ``wall_seconds`` and a comm span's ``wait_s``
CLOCK_ARGS = ("wall_seconds", "wait_s")

#: tid stride between job rows — rank r of job j renders at
#: ``1 + j*RANK_STRIDE + r`` (tid 0 is the scheduler's own row)
RANK_STRIDE = 64

SCHEDULER_PID = 0


class SweepTraceBuilder:
    """Collects per-job records — the fleet feeds it from the folded
    event stream (:func:`~repro.telemetry.live.fold_jobs`); :meth:`build`
    emits the merged trace-event object."""

    def __init__(self, epoch_ns: int = 0):
        self.epoch_ns = int(epoch_ns)
        self.jobs: Dict[int, dict] = {}
        self.instants: List[dict] = []
        self.flows: List[dict] = []

    # ------------------------------------------------------------------
    def add_job(self, job: int, *, pid: int = SCHEDULER_PID,
                start_ns: int = 0,
                spans: Optional[List] = None,
                label: str = "") -> None:
        """Attach a job's span shard: ``pid`` is the worker process
        that completed it (0 = scheduler/inline), ``start_ns`` the
        sweep-epoch offset its span epoch corresponds to."""
        spans = [s if isinstance(s, Span) else Span(**s)
                 for s in (spans or [])]
        self.jobs[int(job)] = {
            "pid": int(pid),
            "start_ns": int(start_ns),
            "spans": spans,
            "label": label,
        }

    def add_instant(self, job: int, name: str, t_ns: int,
                    args: Optional[dict] = None) -> None:
        """A scheduler fact pinned to the job's row (cache hit,
        checkpoint write, retry)."""
        self.instants.append({
            "job": int(job), "name": name, "t_ns": int(t_ns),
            "args": dict(args) if args else {},
        })

    def add_flow(self, job: int, *, from_pid: int, from_ns: int,
                 to_pid: int, to_ns: int, name: str = "resume") -> None:
        """An arrow from a killed attempt (on its worker's row) to the
        retry that resumed the job (on its worker's row)."""
        self.flows.append({
            "job": int(job), "name": name,
            "from_pid": int(from_pid), "from_ns": int(from_ns),
            "to_pid": int(to_pid), "to_ns": int(to_ns),
        })

    # ------------------------------------------------------------------
    def _tid(self, job: int, rank: int = 0) -> int:
        return 1 + job * RANK_STRIDE + min(rank, RANK_STRIDE - 1)

    def build(self) -> dict:
        """The merged trace-event object (Perfetto-loadable)."""
        events: List[dict] = []
        pids = sorted({rec["pid"] for rec in self.jobs.values()}
                      | {SCHEDULER_PID}
                      | {f["from_pid"] for f in self.flows}
                      | {f["to_pid"] for f in self.flows})
        for pid in pids:
            name = ("fleet scheduler" if pid == SCHEDULER_PID
                    else f"worker {pid - 1}")
            events.append({"name": "process_name", "ph": "M",
                           "pid": pid, "tid": 0,
                           "args": {"name": name}})
        for job in sorted(self.jobs):
            rec = self.jobs[job]
            ranks = sorted({s.rank for s in rec["spans"]}) or [0]
            for rank in ranks:
                name = f"job {job}"
                if rec["label"]:
                    name += f" ({rec['label']})"
                if len(ranks) > 1:
                    name += f" rank {rank}"
                events.append({"name": "thread_name", "ph": "M",
                               "pid": rec["pid"],
                               "tid": self._tid(job, rank),
                               "args": {"name": name}})
        for job in sorted(self.jobs):
            rec = self.jobs[job]
            for span in rec["spans"]:
                args = dict(span.args)
                if span.alloc_bytes is not None:
                    args["alloc_bytes"] = span.alloc_bytes
                event = {
                    "name": span.name,
                    "cat": span.cat,
                    "pid": rec["pid"],
                    "tid": self._tid(job, span.rank),
                    "ts": (rec["start_ns"] + span.t0_ns) / 1e3,
                }
                if span.dur_ns == 0:
                    event["ph"] = "i"
                    event["s"] = "t"
                else:
                    event["ph"] = "X"
                    event["dur"] = max(span.dur_ns, 0) / 1e3
                if args:
                    event["args"] = args
                events.append(event)
        for inst in sorted(self.instants,
                           key=lambda i: (i["job"], i["t_ns"], i["name"])):
            job = inst["job"]
            pid = (self.jobs[job]["pid"] if job in self.jobs
                   else SCHEDULER_PID)
            event = {
                "name": inst["name"], "cat": "fleet", "ph": "i",
                "pid": pid, "tid": self._tid(job),
                "ts": inst["t_ns"] / 1e3, "s": "t",
            }
            if inst["args"]:
                event["args"] = inst["args"]
            events.append(event)
        flow_counts: Dict[int, int] = {}
        for flow in sorted(self.flows,
                           key=lambda f: (f["job"], f["to_ns"])):
            job = flow["job"]
            n = flow_counts.get(job, 0)
            flow_counts[job] = n + 1
            flow_id = 1 + job * RANK_STRIDE + n
            common = {"name": flow["name"], "cat": "flow",
                      "id": flow_id}
            events.append({**common, "ph": "s", "pid": flow["from_pid"],
                           "tid": self._tid(job),
                           "ts": flow["from_ns"] / 1e3})
            events.append({**common, "ph": "f", "bp": "e",
                           "pid": flow["to_pid"],
                           "tid": self._tid(job),
                           "ts": flow["to_ns"] / 1e3})
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"generator": "repro.telemetry.sweep"},
        }


def write_sweep_trace(builder: Union[SweepTraceBuilder, dict],
                      path: Union[str, Path]) -> Path:
    trace = (builder.build() if isinstance(builder, SweepTraceBuilder)
             else builder)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(trace) + "\n")
    return path


def strip_nondeterminism(trace: dict) -> List[dict]:
    """The determinism view of a sweep trace: metadata rows dropped
    (worker naming follows pool width), clocks and worker assignment
    (``ts``/``dur``/``pid`` and the :data:`CLOCK_ARGS`) stripped — what
    remains must be identical for ``workers=1`` and ``workers=4``
    sweeps of the same configs."""
    out = []
    for event in trace["traceEvents"]:
        if event.get("ph") == "M":
            continue
        kept = {k: v for k, v in event.items()
                if k not in ("ts", "dur", "pid")}
        if "args" in kept:
            kept["args"] = {k: v for k, v in kept["args"].items()
                            if k not in CLOCK_ARGS}
        out.append(kept)
    return out
