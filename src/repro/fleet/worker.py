"""The fleet's process pool: fork-per-worker with SIGKILL-safe pipes.

Design constraints, in order:

* **A dead worker must never wedge the fleet.**  Each worker owns a
  private duplex :func:`multiprocessing.Pipe` — there is no shared
  queue whose internal lock a SIGKILLed holder could leave locked.
  The parent multiplexes worker pipes *and* process sentinels through
  one :func:`multiprocessing.connection.wait`, so a death wakes it
  exactly like a result would.
* **A job outlives its worker.**  Workers persist every outcome into
  the on-disk result store (the fleet's cache doubling as a spool,
  written atomically) *before* reporting done; the parent
  re-materialises results by key.  A worker killed between store and
  report costs one cheap retry — the replacement worker finds the
  stored entry and short-circuits.
* **A crashed job resumes, not restarts.**  With checkpointing on,
  serial jobs write periodic snapshots keyed by the job's cache key;
  the retry overlays the last one (:mod:`repro.fleet.checkpoint`) and
  continues bit-identically.
* **A wedged worker is detected, not waited on.**  With
  ``heartbeat_timeout`` set, every worker slot owns one row of a
  :class:`~repro.metrics.watchdog.HeartbeatBoard` in an anonymous
  shared mapping (created before the fork, inherited by the children,
  nothing to unlink); in-process
  ranks beat it per step, and the parent's wait loop SIGKILLs any
  busy slot whose beat goes stale — surfacing a
  :class:`~repro.utils.errors.StalledRankWarning` and a
  ``worker_stalled`` live event — after which the ordinary
  death/requeue path takes over.

Workers also stream **live events** back over their pipes
(``("event", pos, record)`` messages interleaved with results): step
progress with rate/ETA, checkpoint writes and resumes, forwarded to
the fleet's :class:`~repro.telemetry.bus.EventBus` — the sweep's one
record.  A finished job reports ``("done", pos, nstep)``.

Fault injection (``FleetOptions.fault_steps``) is the chaos hook the
resume test proves itself with: the job's observer SIGKILLs its own
worker at a chosen step — a real, uncatchable death, first attempt
only.  ``stall_steps`` is the watchdog's twin: the observer wedges
(sleeps forever) instead of dying.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
import warnings
import zipfile  # noqa: F401  (see below)
from collections import deque
from multiprocessing.connection import wait as _mp_wait
from typing import Callable, Dict, List, Optional

# The engine imports this module only for ``workers > 0``, in the
# process every worker is then forked from.  So the job body is
# imported here, once, and with it what a worker's first progress
# event, checkpoint or ``ResultCache.store`` would otherwise load in
# every child after the fork: the progress reporter, the snapshot
# writer, the run report, and ``zipfile`` under ``np.savez``.
from ..metrics.watchdog import Heartbeat, HeartbeatBoard
from ..output import restart as _restart  # noqa: F401
from ..telemetry import live as _live  # noqa: F401
from ..telemetry import report as _report  # noqa: F401
from ..utils.errors import FleetError, StalledRankWarning
from .batch import BatchJob
from .cache import ResultCache
from .engine import run_job


class _FaultInjector:
    """Observer that SIGKILLs its own process at a given step (after
    the checkpoint writer for that step has run — attach order in
    :func:`_run_job` guarantees it)."""

    def __init__(self, at_step: int):
        self.at_step = int(at_step)

    def __call__(self, hydro) -> None:
        if hydro.nstep >= self.at_step:
            os.kill(os.getpid(), signal.SIGKILL)


class _StallInjector:
    """Observer that wedges its process at a given step — alive but
    silent, the failure mode only the heartbeat watchdog can see."""

    def __init__(self, at_step: int):
        self.at_step = int(at_step)

    def __call__(self, hydro) -> None:
        if hydro.nstep >= self.at_step:
            while True:  # pragma: no cover - killed by the watchdog
                time.sleep(3600)


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
        injectors.append(_FaultInjector(doc["fault_step"]))
    if doc.get("stall_step") is not None:
        injectors.append(_StallInjector(doc["stall_step"]))
    result = run_job(config, key, doc["pos"], emit=emit,
                     checkpoint_dir=checkpoint_dir,
                     checkpoint_every=checkpoint_every,
                     progress_every=doc.get("progress_every"),
                     observers=observers, injectors=injectors)
    store.store(key, result)
    return int(result.nstep)


def _worker_main(conn, store_root: str, checkpoint_dir: Optional[str],
                 checkpoint_every: int, board=None,
                 slot: int = 0) -> None:
    """Worker loop: receive job documents, execute, report.

    ``board`` is the heartbeat board inherited through the fork (one
    row per worker slot); in-process ranks beat ``slot``'s row every
    step so the parent can tell wedged from busy.
    """
    store = ResultCache(store_root)
    heartbeat = Heartbeat(board, slot) if board is not None else None
    while True:
        try:
            doc = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if doc is None:
            return

        def emit(event: str, **payload) -> None:
            try:
                conn.send(("event", doc["pos"],
                           {"event": event, **payload}))
            except (BrokenPipeError, OSError):
                pass

        try:
            nstep = _run_job(doc, store, checkpoint_dir, checkpoint_every,
                             emit=emit, heartbeat=heartbeat)
            conn.send(("done", doc["pos"], nstep))
        except BaseException as exc:  # report, keep serving
            try:
                conn.send(("failed", doc["pos"],
                           f"{type(exc).__name__}: {exc}"))
            except BrokenPipeError:
                return


class WorkerPool:
    """Parent-side scheduler over N forked workers."""

    def __init__(self, nworkers: int, store_root: str, *,
                 emit: Callable,
                 checkpoint_dir: Optional[str] = None,
                 checkpoint_every: int = 20,
                 max_attempts: int = 3,
                 heartbeat_timeout: Optional[float] = None,
                 progress_every: Optional[int] = None):
        self.ctx = mp.get_context("fork")
        self.store_root = store_root
        #: the sweep's :meth:`~repro.telemetry.bus.EventBus.emit`: every
        #: dispatch, death, stall and outcome is a record there
        self.emit = emit
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_every = checkpoint_every
        self.max_attempts = max_attempts
        self.heartbeat_timeout = heartbeat_timeout
        self.progress_every = progress_every
        self._next_id = 0
        nslots = max(1, nworkers)
        #: one row per worker slot, shared with the workers it forks
        self.board = (HeartbeatBoard.allocate(nslots, shared=True)
                      if heartbeat_timeout is not None else None)
        self.workers = [self._spawn(slot) for slot in range(nslots)]

    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> dict:
        parent, child = self.ctx.Pipe(duplex=True)
        proc = self.ctx.Process(
            target=_worker_main,
            args=(child, self.store_root, self.checkpoint_dir,
                  self.checkpoint_every, self.board, slot),
            daemon=True,
        )
        proc.start()
        child.close()
        wid = self._next_id
        self._next_id += 1
        return {"id": wid, "slot": slot, "conn": parent, "proc": proc,
                "job": None, "monitor": False, "killed": False,
                "t_start": None}

    # ------------------------------------------------------------------
    def run(self, jobs: List[BatchJob],
            fault_steps: Optional[Dict[int, int]] = None,
            stall_steps: Optional[Dict[int, int]] = None
            ) -> Dict[int, str]:
        """Drive every job to a stored outcome; returns
        ``{job.index: key}``.  Dead workers are respawned and their
        in-flight job requeued (front of the queue) up to
        ``max_attempts`` total tries."""
        pending = deque(jobs)
        done: Dict[int, str] = {}
        timeout = None
        if self.board is not None and self.heartbeat_timeout:
            timeout = min(max(self.heartbeat_timeout / 4, 0.02), 1.0)
        while pending or any(w["job"] is not None for w in self.workers):
            for i, w in enumerate(self.workers):
                if w["job"] is None and pending:
                    job = pending.popleft()
                    fault = stall = None
                    if job.attempts == 0:
                        if fault_steps:
                            fault = fault_steps.get(job.index)
                        if stall_steps:
                            stall = stall_steps.get(job.index)
                    doc = {
                        "pos": job.index,
                        "key": job.metadata["key"],
                        "config": job.config,
                        "fault_step": fault,
                        "stall_step": stall,
                        "progress_every": self.progress_every,
                    }
                    try:
                        w["conn"].send(doc)
                    except (BrokenPipeError, OSError):
                        # the worker died while idle; replace and retry
                        pending.appendleft(job)
                        w["proc"].join()
                        self.workers[i] = self._spawn(w["slot"])
                        continue
                    w["job"] = job
                    w["killed"] = False
                    w["monitor"] = _observable(job.config)
                    job.attempts += 1
                    if self.board is not None:
                        self.board.beat(w["slot"], -1)
                    w["t_start"] = time.perf_counter()
                    self.emit("job_started", job=job.index,
                              worker=w["id"], attempt=job.attempts)
            busy = [w for w in self.workers if w["job"] is not None]
            if not busy:
                break
            ready = _mp_wait([w["conn"] for w in busy]
                             + [w["proc"].sentinel for w in busy],
                             timeout=timeout)
            for i, w in enumerate(self.workers):
                if w["job"] is None:
                    continue
                got_msg = False
                if w["conn"] in ready:
                    try:
                        msg = w["conn"].recv()
                        got_msg = True
                    except EOFError:
                        got_msg = False
                if got_msg:
                    kind, pos, info = msg
                    if kind == "event":
                        self.emit(**info)
                        continue
                    job = w["job"]
                    w["job"] = None
                    if kind == "done":
                        done[pos] = job.metadata["key"]
                        self.emit("job_done", job=pos, worker=w["id"],
                                  key=done[pos], nstep=info,
                                  wall_seconds=round(
                                      time.perf_counter() - w["t_start"],
                                      6))
                    else:
                        self.emit("job_failed", job=pos, error=info)
                        self.shutdown()
                        raise FleetError(
                            f"fleet job {pos} failed in worker "
                            f"{w['id']}: {info}"
                        )
                elif (w["proc"].sentinel in ready
                      and not w["proc"].is_alive()):
                    # Worker died mid-job (SIGKILL, OOM, segfault):
                    # requeue the job for the front of the line and
                    # replace the worker.
                    job = w["job"]
                    self.emit("worker_died", job=job.index,
                              worker=w["id"], attempt=job.attempts)
                    if job.attempts >= self.max_attempts:
                        self.shutdown()
                        raise FleetError(
                            f"fleet job {job.index} crashed "
                            f"{job.attempts} time(s); giving up "
                            f"(max_attempts={self.max_attempts})"
                        )
                    pending.appendleft(job)
                    self.emit("job_retried", job=job.index,
                              attempt=job.attempts + 1)
                    w["proc"].join()
                    self.workers[i] = self._spawn(w["slot"])
            self._check_stalls()
        self.shutdown()
        return done

    # ------------------------------------------------------------------
    def _check_stalls(self) -> None:
        """SIGKILL any busy, monitorable worker whose heartbeat went
        stale; the death then takes the ordinary requeue path."""
        if self.board is None or not self.heartbeat_timeout:
            return
        stale = self.board.stalled(self.heartbeat_timeout)
        for w in self.workers:
            if (w["slot"] not in stale or w["job"] is None
                    or w["killed"] or not w["monitor"]):
                continue
            info = stale[w["slot"]]
            message = (
                f"fleet watchdog: worker {w['id']} (job "
                f"{w['job'].index}) sent no heartbeat within "
                f"{self.heartbeat_timeout:.1f}s (last step "
                f"{info['step']}, {info['age_seconds']:.1f}s ago); "
                f"killing it so the job can retry"
            )
            self.emit("worker_stalled", worker=w["id"],
                      job=w["job"].index,
                      age_seconds=round(info["age_seconds"], 3))
            warnings.warn(message, StalledRankWarning)
            try:
                os.kill(w["proc"].pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
            w["killed"] = True

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        for w in self.workers:
            try:
                w["conn"].send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in self.workers:
            w["proc"].join(timeout=5)
            if w["proc"].is_alive():
                w["proc"].terminate()
                w["proc"].join(timeout=5)
            w["conn"].close()
