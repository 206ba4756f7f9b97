"""The fleet's live status plane: a schema-versioned lifecycle event bus.

A sweep between ``submit()`` and ``summary()`` used to be a black box;
this module is the window into it.  The fleet engine owns one
:class:`~repro.telemetry.bus.EventBus` per sweep and emits a lifecycle
record for every scheduling fact as it happens — job queued /
started / progress / checkpointed / retried / cache hit / batched /
done — each stamped with a monotonically increasing sequence number
and the offset in seconds since the sweep epoch.  The stream is the
sweep's only record; every other view is read off it:

* an **NDJSON sink** (``fleet --events out.ndjson``), flushed per
  record so a crashed sweep still leaves a readable prefix;
* in-process **listeners** (``bookleaf fleet --watch`` attaches a
  :class:`WatchRenderer`; tests attach plain lists);
* ``FleetHandle.schedule_log`` — the stream without its
  :data:`LIFECYCLE_ONLY` records (:func:`schedule_log`);
* the post-run artefacts — the merged sweep trace and the HTML
  dashboard both read the per-job state :func:`fold_jobs` folds out
  of the recorded events.

The record layout is pinned by :data:`LIVE_SCHEMA_VERSION` and
:func:`validate_live_event`; CI validates the stream the fleet smoke
produces.  Progress records carry the step rate and an ETA computed by
:class:`ProgressReporter`, a step-loop observer that works from either
the step budget or the simulated-time target, whichever bounds the run.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, TextIO

from .bus import LIVE_SCHEMA_VERSION, EventBus  # noqa: F401  (re-export)

#: every event type -> the payload fields it must carry (beyond the
#: common envelope ``schema_version``/``event``/``seq``/``t``).  Extra
#: fields are always allowed; these are the floor consumers rely on.
EVENT_FIELDS: Dict[str, tuple] = {
    "sweep_started": ("jobs", "workers"),
    "job_queued": ("job",),
    "cache_hit": ("job", "key"),
    "cache_corrupt": ("job", "key", "reason"),
    "job_started": ("job", "attempt"),
    "job_progress": ("job", "step", "steps_per_sec", "eta_seconds"),
    "job_checkpointed": ("job", "step"),
    "checkpoint_resume": ("job", "path"),
    "checkpoint_unreadable": ("job", "path", "reason"),
    "job_retried": ("job", "attempt"),
    "worker_died": ("job", "worker", "attempt"),
    "worker_stalled": ("worker", "age_seconds"),
    "job_done": ("job", "nstep", "wall_seconds"),
    "job_failed": ("job", "error"),
    "ensemble_batch": ("jobs", "carried", "fresh", "width", "queued"),
    "lane_retired": ("job", "nstep"),
    "lane_refill": ("carried", "queued"),
    "fast_path_downgrade": ("job", "reason"),
    "trace_forced": ("jobs",),
    "sweep_done": ("jobs", "wall_seconds"),
}

#: the records that only narrate a sweep's lifecycle; the schedule log
#: is the stream without them
LIFECYCLE_ONLY = frozenset({"sweep_started", "job_queued", "job_progress",
                            "sweep_done"})

#: the records that end a job's current attempt, and how
_ATTEMPT_OUTCOMES = {"job_done": "done", "worker_died": "died",
                     "job_failed": "failed"}


def validate_live_event(rec: dict) -> None:
    """Raise ``ValueError`` unless ``rec`` is a well-formed live event."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid live event: {msg}")

    need(isinstance(rec, dict), "not a dict")
    need(rec.get("schema_version") == LIVE_SCHEMA_VERSION,
         f"schema_version {rec.get('schema_version')!r} != "
         f"{LIVE_SCHEMA_VERSION}")
    event = rec.get("event")
    need(event in EVENT_FIELDS, f"unknown event type {event!r}")
    need(isinstance(rec.get("seq"), int) and rec["seq"] >= 0,
         "seq must be a non-negative int")
    need(isinstance(rec.get("t"), (int, float)) and rec["t"] >= 0,
         "t must be a non-negative offset in seconds")
    for field in EVENT_FIELDS[event]:
        need(field in rec, f"{event} record missing {field!r}")


def validate_live_stream(records: Sequence[dict]) -> None:
    """Validate every record and the stream invariant: ``seq`` counts
    0, 1, 2, ... with no gaps (a gap means records were lost)."""
    for i, rec in enumerate(records):
        validate_live_event(rec)
        if rec["seq"] != i:
            raise ValueError(
                f"invalid live stream: record {i} carries seq "
                f"{rec['seq']} (streams are gapless from 0)"
            )


def schedule_log(records: Sequence[dict]) -> List[dict]:
    """The scheduling records of a stream, in order: every record but
    the :data:`LIFECYCLE_ONLY` ones."""
    return [rec for rec in records if rec["event"] not in LIFECYCLE_ONLY]


def fold_jobs(records: Sequence[dict]) -> Dict[int, dict]:
    """Fold a stream into per-job state, ``{job: {"attempts": [...],
    "cache_hit": t or None, "checkpoints": [(t, step), ...]}}``.

    An attempt is ``{"worker", "start", "end", "outcome"}``.  It opens
    at a ``job_started`` (``worker`` None: the job ran inline) or, for a
    batched lane, at the ``ensemble_batch`` pass that takes the job in
    fresh (``worker`` None); it ends at ``job_done`` (``"done"``),
    ``worker_died`` (``"died"``) or ``job_failed`` (``"failed"``).
    Times are the records' ``t``.
    """
    jobs: Dict[int, dict] = {}

    def job(index) -> dict:
        return jobs.setdefault(int(index), {
            "attempts": [], "cache_hit": None, "checkpoints": []})

    def start(index, t: float, worker=None) -> None:
        job(index)["attempts"].append({"worker": worker, "start": t,
                                       "end": None, "outcome": None})

    for rec in records:
        event = rec["event"]
        if event == "job_started":
            start(rec["job"], rec["t"], rec.get("worker"))
        elif event == "ensemble_batch":
            for index in rec["fresh"]:
                start(index, rec["t"])
        elif event in _ATTEMPT_OUTCOMES:
            attempts = job(rec["job"])["attempts"]
            if attempts and attempts[-1]["outcome"] is None:
                attempts[-1].update(end=rec["t"],
                                    outcome=_ATTEMPT_OUTCOMES[event])
        elif event == "cache_hit":
            job(rec["job"])["cache_hit"] = rec["t"]
        elif event == "job_checkpointed":
            job(rec["job"])["checkpoints"].append((rec["t"], rec["step"]))
    return jobs


def read_events(path: str) -> List[dict]:
    """Load an NDJSON live-event stream back into records."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


class ProgressReporter:
    """Step-loop observer emitting ``job_progress`` events with a step
    rate and an ETA.

    The rate is measured over the last reporting window (not
    cumulative, so it tracks the current regime after a slow start-up).
    The ETA uses whichever bound the run will hit first: the remaining
    step budget at the current step rate, or the remaining simulated
    time at the current time-advance rate — the minimum of the
    estimates that exist.  ``eta_seconds`` is None until one window has
    elapsed.
    """

    def __init__(self, emit: Callable[..., object], job: int,
                 every: int = 10, max_steps: Optional[int] = None):
        self.emit = emit
        self.job = int(job)
        self.every = max(1, int(every))
        self.max_steps = max_steps
        self._last_step: Optional[int] = None
        self._last_time: Optional[float] = None
        self._last_wall: Optional[float] = None

    def __call__(self, hydro) -> None:
        if hydro.nstep % self.every:
            return
        wall = time.perf_counter()
        rate = None
        eta = None
        if self._last_wall is not None and wall > self._last_wall:
            window = wall - self._last_wall
            rate = (hydro.nstep - self._last_step) / window
            estimates = []
            if self.max_steps is not None and rate > 0:
                estimates.append((self.max_steps - hydro.nstep) / rate)
            time_end = getattr(hydro.controls, "time_end", None)
            if time_end is not None:
                sim_rate = (hydro.time - self._last_time) / window
                if sim_rate > 0:
                    estimates.append((time_end - hydro.time) / sim_rate)
            if estimates:
                eta = max(0.0, min(estimates))
        self._last_step = hydro.nstep
        self._last_time = hydro.time
        self._last_wall = wall
        self.emit("job_progress", job=self.job, step=int(hydro.nstep),
                  time=float(hydro.time),
                  steps_per_sec=(round(rate, 3)
                                 if rate is not None else None),
                  eta_seconds=(round(eta, 3)
                               if eta is not None else None))


def _fmt_eta(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    if seconds >= 60:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds}s"


class WatchRenderer:
    """Renders the live-event stream as a per-job status table
    (``bookleaf fleet --watch``).

    Attached to an :class:`EventBus` as a listener.  On a TTY the
    table redraws in place (cursor-up + erase); on a pipe it degrades
    to one plain line per lifecycle transition, so ``--watch`` output
    stays useful under ``tee`` and in CI logs.
    """

    #: events that change a job's displayed status
    _STATUS = {
        "job_queued": "queued",
        "job_started": "running",
        "job_retried": "retrying",
        "cache_hit": "cached",
        "job_done": "done",
        "job_failed": "failed",
    }

    def __init__(self, out: Optional[TextIO] = None,
                 live: Optional[bool] = None):
        self.out = out if out is not None else sys.stderr
        self.live = (self.out.isatty() if live is None else bool(live))
        self.jobs: Dict[int, dict] = {}
        self.stalled_workers: List[int] = []
        self._drawn_lines = 0

    # ------------------------------------------------------------------
    def __call__(self, rec: dict) -> None:
        event = rec["event"]
        job = rec.get("job")
        if job is not None:
            row = self.jobs.setdefault(int(job), {
                "status": "queued", "step": None, "rate": None,
                "eta": None, "attempt": 1, "detail": "",
            })
            if event in self._STATUS:
                row["status"] = self._STATUS[event]
            if event == "job_started":
                row["attempt"] = rec.get("attempt", 1)
            elif event == "job_progress":
                row["step"] = rec.get("step")
                row["rate"] = rec.get("steps_per_sec")
                row["eta"] = rec.get("eta_seconds")
            elif event == "job_checkpointed":
                row["detail"] = f"ckpt@{rec.get('step')}"
            elif event == "job_done":
                row["step"] = rec.get("nstep")
                row["eta"] = 0.0
                row["detail"] = f"{rec.get('wall_seconds', 0):.2f}s"
            elif event == "job_failed":
                row["detail"] = str(rec.get("error", ""))[:40]
            elif event == "fast_path_downgrade":
                row["detail"] = f"per-job ({rec.get('reason')})"
        elif event == "worker_stalled":
            self.stalled_workers.append(rec.get("worker"))
        elif event == "ensemble_batch":
            for j in rec.get("jobs", []):
                row = self.jobs.setdefault(int(j), {
                    "status": "queued", "step": None, "rate": None,
                    "eta": None, "attempt": 1, "detail": "",
                })
                row["status"] = "batched"
        if self.live:
            self._redraw()
        elif event in self._STATUS or event == "worker_stalled":
            self.out.write(self._line(rec) + "\n")
            self.out.flush()

    # ------------------------------------------------------------------
    def _line(self, rec: dict) -> str:
        if rec["event"] == "worker_stalled":
            return (f"[{rec['t']:8.2f}s] worker {rec.get('worker')} "
                    f"stalled ({rec.get('age_seconds', 0):.1f}s silent)")
        job = rec.get("job")
        row = self.jobs.get(int(job), {}) if job is not None else {}
        return (f"[{rec['t']:8.2f}s] job {job}: {row.get('status', '?')}"
                + (f" ({row['detail']})" if row.get("detail") else ""))

    def render(self) -> str:
        """The current table, as text (also the non-TTY final frame)."""
        headers = ("job", "status", "step", "steps/s", "eta", "note")
        body = []
        for job in sorted(self.jobs):
            row = self.jobs[job]
            rate = row["rate"]
            body.append((
                str(job), row["status"],
                "-" if row["step"] is None else str(row["step"]),
                "-" if rate is None else f"{rate:.1f}",
                _fmt_eta(row["eta"]), row["detail"],
            ))
        widths = [max(len(h), *(len(r[i]) for r in body)) if body
                  else len(h) for i, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(w)
                           for h, w in zip(headers, widths))]
        for r in body:
            lines.append("  ".join(c.ljust(w)
                                   for c, w in zip(r, widths)))
        if self.stalled_workers:
            lines.append(f"stalled workers: "
                         f"{sorted(set(self.stalled_workers))}")
        return "\n".join(lines)

    def _redraw(self) -> None:
        frame = self.render()
        if self._drawn_lines:
            # move to the top of the previous frame and erase downward
            self.out.write(f"\x1b[{self._drawn_lines}F\x1b[J")
        self.out.write(frame + "\n")
        self.out.flush()
        self._drawn_lines = frame.count("\n") + 1
