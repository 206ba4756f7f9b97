"""The fleet's process pool: one forked worker per slot, SIGKILL-safe.

Design constraints, in order:

* **A dead worker must never wedge the fleet.**  Workers are forked
  and watched by the ranks' own
  :class:`~repro.metrics.watchdog.Supervisor`: a private job pipe in,
  a private result pipe out, no shared lock a SIGKILLed holder could
  leave locked, and a death (its pipe's EOF) wakes the parent's one
  ``select`` exactly like a result would.
* **A job outlives its worker.**  Workers persist every outcome into
  the on-disk result store (the fleet's cache doubling as a spool,
  written atomically) *before* reporting done; the parent
  re-materialises results by key.  A worker killed between store and
  report costs one cheap retry — the replacement worker finds the
  stored entry and short-circuits.  A worker that dies while idle is
  replaced without spending an attempt.
* **A crashed job resumes, not restarts.**  With checkpointing on,
  serial jobs write periodic snapshots keyed by the job's cache key;
  the retry overlays the last one (:mod:`repro.fleet.checkpoint`) and
  continues bit-identically.
* **A wedged worker is detected, not waited on.**  With
  ``heartbeat_timeout`` set, the ``select`` also wakes by the board's
  next deadline, and the pool SIGKILLs any busy slot whose in-process
  ranks stopped beating its row — surfacing a
  :class:`~repro.utils.errors.StalledRankWarning` and a
  ``worker_stalled`` live event — after which the ordinary
  death/requeue path takes over.

Workers also stream **live events** back (``("event", pos, record)``
frames interleaved with results): step progress with rate/ETA,
checkpoint writes and resumes, forwarded to the fleet's
:class:`~repro.telemetry.bus.EventBus` — the sweep's one record.  A
finished job reports ``("done", pos, nstep)``.  The pool SIGKILLs its
workers on return; one whose parent dies leaves at its job pipe's EOF.

Fault injection (``FleetOptions.fault_steps``) is the chaos hook the
resume test proves itself with: the job's observer SIGKILLs its own
worker at a chosen step — a real, uncatchable death, first attempt
only.  ``stall_steps`` is the watchdog's twin: the observer wedges
(sleeps forever) instead of dying.
"""

from __future__ import annotations

import os
import signal
import time
import warnings
from collections import deque
from contextlib import suppress
from typing import Callable, Dict, List, Optional

from ..metrics.watchdog import (Heartbeat, Supervisor, read_frames,
                                send_frame)
# The engine imports this module only for ``workers > 0``, in the
# process every worker is then forked from.  So the job body is
# imported here, once, and with it what a worker's first progress
# event, checkpoint or ``ResultCache.store`` would otherwise load in
# every child after the fork: the progress reporter, the snapshot
# writer and the run report.
from ..output import restart as _restart  # noqa: F401
from ..telemetry import live as _live  # noqa: F401
from ..telemetry import report as _report  # noqa: F401
from ..utils.errors import FleetError, StalledRankWarning
from .batch import BatchJob
from .cache import ResultCache
from .engine import run_job


class _Injector:
    """Observer that, from a given step on, SIGKILLs its own process —
    or, with ``wedge``, wedges it: alive but silent, the failure mode
    only the heartbeat watchdog can see.  Attached after the checkpoint
    writer (:func:`_run_job`), so the write for that step comes first."""

    def __init__(self, at_step: int, wedge: bool = False):
        self.at_step, self.wedge = int(at_step), wedge

    def __call__(self, hydro) -> None:
        if hydro.nstep < self.at_step:
            return
        while self.wedge:  # pragma: no cover - killed by the watchdog
            time.sleep(3600)
        os.kill(os.getpid(), signal.SIGKILL)


def _observable(config) -> bool:
    """True when the job's ranks run in-process (observers attach)."""
    return config.resolved_backend() in ("serial", "threads")


def _run_job(doc: dict, store, checkpoint_dir: Optional[str],
             checkpoint_every: int, *, emit, heartbeat=None) -> int:
    """Execute one job document inside a worker, persist the outcome
    under its key and return the job's step count."""
    config = doc["config"]
    key = doc["key"]
    if store.has(key):
        # a previous attempt (or a twin job) finished the work
        return store.meta(key)["nstep"]
    observers = []
    if heartbeat is not None and _observable(config):
        observers.append(heartbeat)
    injectors = []
    if doc.get("fault_step") is not None:
        injectors.append(_Injector(doc["fault_step"]))
    if doc.get("stall_step") is not None:
        injectors.append(_Injector(doc["stall_step"], wedge=True))
    result = run_job(config, key, doc["pos"], emit=emit,
                     checkpoint_dir=checkpoint_dir,
                     checkpoint_every=checkpoint_every,
                     progress_every=doc.get("progress_every"),
                     observers=observers, injectors=injectors)
    store.store(key, result)
    return int(result.nstep)


def _worker_main(reply: int, jobs: int, heartbeat: Heartbeat,
                 store_root: str, checkpoint_dir: Optional[str],
                 checkpoint_every: int) -> None:
    """Worker loop: execute each job document read off ``jobs`` and
    report down ``reply``, until ``jobs`` reaches EOF.  In-process
    ranks call ``heartbeat`` (the slot's row of the board inherited
    through the fork) every step, so the parent can tell wedged from
    busy."""
    store = ResultCache(store_root)
    for doc in read_frames(jobs):
        def emit(event: str, **payload) -> None:
            with suppress(OSError):
                send_frame(reply, ("event", doc["pos"],
                                   {"event": event, **payload}))

        try:
            nstep = _run_job(doc, store, checkpoint_dir, checkpoint_every,
                             emit=emit, heartbeat=heartbeat)
            outcome = ("done", doc["pos"], nstep)
        except BaseException as exc:  # report, keep serving
            outcome = ("failed", doc["pos"], f"{type(exc).__name__}: {exc}")
        send_frame(reply, outcome)


class WorkerPool:
    """Parent-side scheduler over N forked workers, one per slot."""

    def __init__(self, nworkers: int, store_root: str, *,
                 emit: Callable,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 20,
                 max_attempts: int = 3,
                 heartbeat_timeout: Optional[float] = None,
                 progress_every: Optional[int] = None):
        #: the sweep's :meth:`~repro.telemetry.bus.EventBus.emit`: every
        #: dispatch, death, stall and outcome is a record there
        self.emit = emit
        self.max_attempts = max_attempts
        self.progress_every = progress_every
        #: what every worker is forked with, after its pipes
        self._worker_args = (store_root, checkpoint_dir, checkpoint_every)
        self._next_id = 0
        nslots = max(1, nworkers)
        #: one board row per worker slot, beaten by in-process ranks
        self.supervisor = Supervisor(nslots, heartbeat_timeout)
        #: per slot: the worker's id, its job and when the job started
        self.workers: List[dict] = [{}] * nslots
        for slot in range(nslots):
            self._spawn(slot)

    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        self.supervisor.fork(slot, _worker_main,
                             Heartbeat(self.supervisor.board, slot),
                             *self._worker_args, inbox=True)
        self.workers[slot] = {"id": self._next_id, "job": None,
                              "t_start": None}
        self._next_id += 1

    def _dispatch(self, slot: int, job: BatchJob, fault_steps,
                  stall_steps, pending: deque) -> None:
        """Send ``job`` to the idle worker in ``slot``, or back to the
        front of ``pending`` if that worker has died (its EOF is due)."""
        fault = stall = None
        if job.attempts == 0:
            fault = (fault_steps or {}).get(job.index)
            stall = (stall_steps or {}).get(job.index)
        doc = dict(pos=job.index, key=job.metadata["key"],
                   config=job.config, fault_step=fault, stall_step=stall,
                   progress_every=self.progress_every)
        try:
            self.supervisor.send(slot, doc)
        except BrokenPipeError:
            pending.appendleft(job)
            return
        w = self.workers[slot]
        w["job"] = job
        job.attempts += 1
        w["t_start"] = time.perf_counter()
        self.emit("job_started", job=job.index, worker=w["id"],
                  attempt=job.attempts)

    # ------------------------------------------------------------------
    def run(self, jobs: List[BatchJob],
            fault_steps: Optional[Dict[int, int]] = None,
            stall_steps: Optional[Dict[int, int]] = None
            ) -> Dict[int, str]:
        """Drive every job to a stored outcome; returns
        ``{job.index: key}``.  Dead workers are respawned and their
        in-flight job requeued (front of the queue) up to
        ``max_attempts`` total tries.  Every worker is gone on
        return."""
        pending = deque(jobs)
        done: Dict[int, str] = {}

        def on_frame(slot: int, msg) -> None:
            kind, pos, info = msg
            if kind == "event":
                self.emit(**info)
                return
            w = self.workers[slot]
            job, w["job"] = w["job"], None
            if kind == "failed":
                self.emit("job_failed", job=pos, error=info)
                raise FleetError(f"fleet job {pos} failed in worker "
                                 f"{w['id']}: {info}")
            done[pos] = job.metadata["key"]
            self.emit("job_done", job=pos, worker=w["id"], key=done[pos],
                      nstep=info, wall_seconds=round(
                          time.perf_counter() - w["t_start"], 6))

        def on_exit(slot: int, exitcode: int, killed: bool) -> None:
            # A worker died (SIGKILL, OOM, segfault): requeue its job
            # for the front of the line and replace the worker.
            w = self.workers[slot]
            job = w["job"]
            if job is not None:
                self.emit("worker_died", job=job.index, worker=w["id"],
                          attempt=job.attempts)
                if job.attempts >= self.max_attempts:
                    raise FleetError(
                        f"fleet job {job.index} crashed {job.attempts} "
                        f"time(s); giving up "
                        f"(max_attempts={self.max_attempts})")
                pending.appendleft(job)
                self.emit("job_retried", job=job.index,
                          attempt=job.attempts + 1)
            self._spawn(slot)

        try:
            while pending or any(w["job"] is not None
                                  for w in self.workers):
                for slot, w in enumerate(self.workers):
                    if w["job"] is None and pending:
                        self._dispatch(slot, pending.popleft(),
                                       fault_steps, stall_steps, pending)
                watched = [slot for slot, w in enumerate(self.workers)
                           if w["job"] and _observable(w["job"].config)]
                stale = self.supervisor.wait(watched, on_frame, on_exit)
                for slot, seen in stale.items():
                    self._stalled(slot, seen)
        finally:
            self.supervisor.close()
        return done

    def _stalled(self, slot: int, seen: dict) -> None:
        """SIGKILL a busy worker whose heartbeat went stale; the death
        then takes the ordinary requeue path."""
        w = self.workers[slot]
        if w["job"] is None:
            return  # it reported in the same round: not wedged
        self.emit("worker_stalled", worker=w["id"], job=w["job"].index,
                  age_seconds=round(seen["age_seconds"], 3))
        warnings.warn(
            f"fleet watchdog: worker {w['id']} (job {w['job'].index}) "
            f"sent no heartbeat within {self.supervisor.timeout:.1f}s "
            f"(last step {seen['step']}, {seen['age_seconds']:.1f}s "
            f"ago); killing it so the job can retry", StalledRankWarning)
        self.supervisor.kill(slot)
