"""The ``processes`` backend: one OS process per rank over shared memory.

The threads backend overlaps rank work only inside GIL-releasing numpy
kernels; everything else serialises.  This backend runs each rank's
*unchanged* SPMD hydro loop — and the *unchanged* Typhon protocol,
:class:`~repro.parallel.typhon.TyphonComms` — in its own forked
process, so the ranks genuinely execute in parallel.  What changes is
only the transport underneath (:class:`SharedMemoryTransport`):

* **boards** — the protocol's staging, post/complete counters and dt
  combining cells live in ``multiprocessing.shared_memory`` segments
  (each rank's staging segment is its halo-sized *mailbox*, the
  compiled CommPlan's layout);
* **waiting** — a rank that needs a peer's counter polls it with
  sleep backoff; there is nobody to notify;
* **pipes** — the scalar collectives (the remap's collective skip
  decision, the metrics probe's sums/minima, the end-of-run
  rendezvous) gather over per-rank ``Pipe`` pairs rooted at rank 0, in
  ascending rank order.

Per-rank :class:`~repro.parallel.typhon.CommStats`, kernel timers,
trace spans and final states are marshalled back over a result queue
when the ranks finish and merged with the existing deterministic
rank-order rules, so ``gather`` is backend-agnostic.

Requires the ``fork`` start method (the run context — problem setup,
subdomains, schedules — is inherited, never pickled), i.e. Linux or
macOS-with-fork.  See docs/PARALLEL.md for the transport table.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
import traceback
import warnings
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...core.hydro import Hydro
from ...metrics.watchdog import (
    BOARD_COLS, Heartbeat, HeartbeatBoard, stall_message,
)
from ...utils.errors import BookLeafError, CommError, StalledRankWarning
from ...utils.timers import TimerRegistry
from ..commplan import CommPlan
from ..halo import Subdomain, local_state
from ..interface import BackendRun
from ..typhon import PEER_FAILED, SPIN_TIMEOUT, Transport, TyphonComms
from .threads import pick_primary_failure, raise_rank_failure

_FLOAT_BYTES = 8

#: what a waiter raises when a peer's pipe end is gone — a *secondary*
#: symptom, so failure attribution points at the rank that died
PIPE_CLOSED = "a peer rank closed its pipe; aborting collective"

#: polling backoff ceiling.  Virtual ranks oversubscribe the host, so a
#: waiter must *sleep*, not yield: every quantum it burns polling is a
#: quantum stolen from the very peer it is waiting on.  A handful of
#: free polls catch the already-arrived case; after that the sleep
#: doubles from 2 µs up to this ceiling.
SPIN_MAX_SLEEP = 500e-6


def spin_backoff(spins: int) -> float:
    """Sleep duration for the ``spins``-th unsuccessful poll."""
    if spins < 4:
        return 0.0
    return min(SPIN_MAX_SLEEP, 2e-6 * (1 << min(spins - 4, 10)))


class RemoteRankError(BookLeafError):
    """A failure that happened inside a rank process.

    Tracebacks cannot cross a process boundary as live objects, so the
    child formats its traceback and the parent chains this carrier —
    the remote stack stays readable in the exception report.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        self.remote_traceback = remote_traceback
        if remote_traceback:
            message = (f"{message}\n--- remote traceback ---\n"
                       f"{remote_traceback.rstrip()}")
        super().__init__(message)


class SharedMemoryTransport(Transport):
    """The shared-memory transport: boards in ``shared_memory``
    segments, waits that poll with sleep backoff, pipes for allgather.

    Built before the ranks fork, so every rank inherits the same
    segments, failure event and pipe ends (rank 0 holds the root end of
    one duplex pipe per peer).  Whoever builds it calls
    :meth:`cleanup`; every process drops its board views first
    (:meth:`drop_segment_views`) — an mmap cannot close while a numpy
    export is alive.
    """

    def __init__(self, plans: List[CommPlan]):
        ctx = mp.get_context("fork")
        self.failure = ctx.Event()
        self.root_conns: Dict[int, object] = {}
        self.leaf_conns: Dict[int, object] = {}
        for r in range(1, len(plans)):
            self.root_conns[r], self.leaf_conns[r] = ctx.Pipe(duplex=True)
        self.segments: List[shared_memory.SharedMemory] = []
        super().__init__(plans)

    def board(self, name: str, shape) -> np.ndarray:
        """A fresh segment (zero-filled by the OS) viewed as float64."""
        seg = shared_memory.SharedMemory(
            create=True, size=math.prod(shape) * _FLOAT_BYTES)
        self.segments.append(seg)
        return np.ndarray(shape, dtype=np.float64, buffer=seg.buf)

    # ------------------------------------------------------------------
    def wait(self, rank: int, ready, what: str) -> None:
        if ready():
            return
        deadline = time.monotonic() + SPIN_TIMEOUT
        spins = 0
        while True:
            if self.failure.is_set():
                raise CommError(PEER_FAILED)
            spins += 1
            time.sleep(spin_backoff(spins))
            if ready():
                return
            if spins % 64 == 0 and time.monotonic() > deadline:
                raise CommError(
                    f"rank {rank} timed out waiting for {what}")

    def notify(self, ranks) -> None:
        """Nothing to do: waiters poll the boards."""

    def allgather(self, rank: int, value) -> list:
        """Gather at rank 0 in ascending rank order, broadcast back."""
        if rank == 0:
            entries = [value]
            for r in range(1, self.size):
                entries.append(self._recv(self.root_conns[r]))
            for r in range(1, self.size):
                self._send(self.root_conns[r], entries)
            return entries
        conn = self.leaf_conns[rank]
        self._send(conn, value)
        return self._recv(conn)

    def abort(self) -> None:
        self.failure.set()

    # ------------------------------------------------------------------
    def _recv(self, conn) -> object:
        """Blocking pipe receive that fails fast when a peer died."""
        try:
            while not conn.poll(0.2):
                if self.failure.is_set():
                    raise CommError(PEER_FAILED)
            return conn.recv()
        except (EOFError, BrokenPipeError, OSError):
            raise CommError(PIPE_CLOSED) from None

    def _send(self, conn, payload) -> None:
        try:
            conn.send(payload)
        except (BrokenPipeError, OSError):
            raise CommError(PIPE_CLOSED) from None

    def close_pipes(self, keep_rank: Optional[int] = None) -> None:
        """Close every pipe end ``keep_rank`` does not own (all of them
        for the parent).  Fork duplicated every fd into every child;
        unowned copies would defeat EOF detection and leak
        descriptors."""
        if keep_rank != 0:
            for conn in self.root_conns.values():
                conn.close()
        for r, conn in self.leaf_conns.items():
            if r != keep_rank:
                conn.close()

    def drop_segment_views(self) -> None:
        """Release this process's board views (before interpreter
        teardown in a rank, before ``cleanup`` in the parent)."""
        self.staging = self.counters = self.dt_cells = None

    def cleanup(self) -> None:
        self.drop_segment_views()
        self.close_pipes()
        for seg in self.segments:
            try:
                seg.close()
            except BufferError:
                pass  # a view outlived its owner; still unlink the name
            seg.unlink()


class _ProcessRunContext:
    """Everything the rank processes share, created pre-fork.

    Fork semantics are load-bearing: children inherit this object (the
    setup, subdomains and schedules are never pickled); only the
    transport, the queues and the heartbeat board are truly shared.
    """

    def __init__(self, driver, max_steps: Optional[int]):
        ctx = mp.get_context("fork")
        self.setup = driver.setup
        self.subdomains: List[Subdomain] = driver.subdomains
        self.size = driver.nranks
        self.max_steps = max_steps
        self.trace = driver.trace
        self.collect_steps = driver.collect_step_series
        self.build_probe = driver.build_probe
        self.watchdog_timeout = driver.watchdog_timeout
        self.epoch_ns = time.perf_counter_ns()
        #: schedule every rank endpoint runs ("packed"/"overlap")
        self.comm_mode: str = driver.comm_plan
        self.transport = SharedMemoryTransport(driver.compiled_plans())
        #: SimpleQueue: the put is synchronous, so a failing child can
        #: os._exit right after reporting without losing the record
        self.errors = ctx.SimpleQueue()
        self.results: mp.Queue = ctx.Queue()
        # Heartbeat board: one more shared board the ranks beat into and
        # the parent's stall monitor polls (CLOCK_MONOTONIC is
        # system-wide, so the stamps compare across processes).
        # Launch-stamped pre-fork.
        self.heartbeat = HeartbeatBoard(
            self.transport.board("heartbeat", (self.size, BOARD_COLS)))
        self.heartbeat.launch()

    def cleanup(self) -> None:
        self.heartbeat.array = None
        self.transport.cleanup()


def _rank_main(rc: _ProcessRunContext, rank: int) -> None:
    """Entry point of one rank process (runs in the forked child)."""
    try:
        transport = rc.transport
        transport.close_pipes(keep_rank=rank)
        sub = rc.subdomains[rank]
        state = local_state(sub, rc.setup.state)
        tracer = None
        if rc.trace:
            from ...telemetry.spans import Tracer

            tracer = Tracer(rank=rank, epoch_ns=rc.epoch_ns)
        comms = TyphonComms(transport, sub, tracer=tracer,
                            mode=rc.comm_mode)
        timers = TimerRegistry()
        timers.tracer = tracer
        probe = rc.build_probe(rank, cell_global=sub.cell_global)
        hydro = Hydro(state, rc.setup.table, rc.setup.controls,
                      timers=timers, comms=comms, probe=probe)
        hydro.observers.append(Heartbeat(rc.heartbeat, rank))
        series = None
        if rank == 0 and rc.collect_steps:
            from ...telemetry.report import StepSeries

            series = StepSeries()
            hydro.observers.append(series)
        hydro.run(max_steps=rc.max_steps)
        # Collective end-of-run point: every rank is past its last
        # staging read before anyone tears its mailbox views down.
        transport.allgather(rank, None)
        # Halo-sized mailboxes cannot carry the final state; ship it
        # over the result queue (one pickle at end of run).
        timers.tracer = None  # tracer spans travel separately
        rc.results.put((rank, {
            "nstep": hydro.nstep,
            "time": hydro.time,
            "timers": timers,
            "spans": tracer.spans if tracer is not None else [],
            "comm": comms.stats.as_dict(),
            "state": hydro.state.arrays(),
            "step_rows": series.rows if series is not None else None,
            "metrics_rows": probe.rows if probe is not None else None,
            "metrics": probe.registry if probe is not None else None,
        }))
        # Release the shared-segment views before interpreter teardown:
        # an mmap cannot close while a numpy export is alive.
        transport.drop_segment_views()
        rc.heartbeat.array = None
    except BaseException as exc:
        rc.errors.put((
            rank, type(exc).__name__, str(exc), traceback.format_exc(),
        ))
        rc.transport.abort()
        os._exit(1)


class ProcessesBackend:
    """Launch one forked process per rank; marshal everything back."""

    name = "processes"

    # ------------------------------------------------------------------
    def prepare(self, driver) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise BookLeafError(
                "the processes backend needs the 'fork' start method "
                "(Linux/macOS); use backend='threads' here"
            )
        # Rank objects live in the children; the driver keeps only the
        # decomposition (and, after run, the marshalled BackendRun).

    # ------------------------------------------------------------------
    def execute(self, driver, max_steps: Optional[int] = None) -> BackendRun:
        rc = _ProcessRunContext(driver, max_steps)
        try:
            return self._execute(driver, rc)
        finally:
            rc.cleanup()

    def _execute(self, driver, rc: _ProcessRunContext) -> BackendRun:
        ctx = mp.get_context("fork")
        procs = [
            ctx.Process(target=_rank_main, args=(rc, r), name=f"rank{r}")
            for r in range(rc.size)
        ]
        for p in procs:
            p.start()
        # Parent's copies of the pipe ends are not used; close them so
        # fd accounting stays tight (children hold their own copies).
        rc.transport.close_pipes()

        results: Dict[int, dict] = {}
        error_records: List[Tuple[int, str, str, str]] = []
        dead: Dict[int, int] = {}
        board = rc.heartbeat
        timeout = rc.watchdog_timeout
        stalled: Dict[int, dict] = {}

        def drain() -> None:
            while True:
                try:
                    rank, payload = rc.results.get_nowait()
                except Exception:
                    break
                results[rank] = payload
            while not rc.errors.empty():
                error_records.append(rc.errors.get())

        while True:
            drain()
            for r, p in enumerate(procs):
                if (not p.is_alive() and p.exitcode not in (0, None)
                        and r not in dead):
                    dead[r] = p.exitcode
                    rc.transport.abort()  # free peers stuck in waits/pipes
                    if timeout is not None and r not in stalled:
                        # A dead rank has definitively stopped beating;
                        # the watchdog reports it immediately rather
                        # than waiting out the timeout.
                        stalled[r] = board.last_seen()[r]
            if timeout is not None and not stalled:
                for r, seen in board.stalled(timeout).items():
                    if r not in results:
                        stalled[r] = seen
                if stalled:
                    rc.transport.abort()  # diagnose the hang, don't share it
            if len(results) == rc.size:
                break
            if all(not p.is_alive() for p in procs):
                break
            if stalled and all(
                not procs[r].is_alive()
                for r in range(rc.size) if r not in stalled
            ):
                break  # only wedged ranks left; terminate them below
            time.sleep(0.01)
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        drain()

        if stalled:
            message = stall_message(stalled, board, timeout)
            warnings.warn(message, StalledRankWarning)

        failures: List[Tuple[int, BaseException]] = []
        for rank, etype, emsg, tb in error_records:
            if etype == "CommError":
                failures.append((rank, CommError(emsg)))
            else:
                failures.append(
                    (rank, RemoteRankError(f"[{etype}] {emsg}", tb))
                )
        reported = {rank for rank, _ in failures}
        for rank, exitcode in sorted(dead.items()):
            if rank not in reported and rank not in results:
                failures.append((rank, RemoteRankError(
                    f"rank process terminated abnormally "
                    f"(exitcode {exitcode})"
                )))
        if stalled and all(isinstance(exc, CommError) for _, exc in failures):
            # The wedge itself never raised (that is what a wedge is);
            # the peers only carry the secondary abort cascade — the
            # watchdog verdict is the primary failure.
            raise BookLeafError(f"run aborted: {message}")
        if failures:
            rank, exc = pick_primary_failure(failures)
            raise_rank_failure(rank, exc)
        if len(results) != rc.size:
            missing = sorted(set(range(rc.size)) - set(results))
            raise BookLeafError(
                f"ranks {missing} exited without reporting results"
            )

        steps = {results[r]["nstep"] for r in range(rc.size)}
        times = {round(results[r]["time"], 14) for r in range(rc.size)}
        if len(steps) != 1 or len(times) != 1:
            raise BookLeafError(
                f"ranks desynchronised: steps={steps} times={times}"
            )
        # a pickle round-trip of float64 arrays is exact
        states = [
            local_state(rc.subdomains[r], rc.setup.state)
            .overlay(results[r]["state"])
            for r in range(rc.size)
        ]
        return BackendRun(
            backend=self.name,
            nranks=rc.size,
            nstep=results[0]["nstep"],
            time=results[0]["time"],
            states=states,
            timers=[results[r]["timers"] for r in range(rc.size)],
            spans=[results[r]["spans"] for r in range(rc.size)],
            comm_per_rank=[results[r]["comm"] for r in range(rc.size)],
            step_rows=results[0]["step_rows"],
            metrics_rows=results[0].get("metrics_rows"),
            metrics=results[0].get("metrics"),
        )
