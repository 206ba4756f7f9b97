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

Each child has the driver it inherited build its rank
(``driver.build_rank``) and ships that rank's ``driver.report(...)`` —
counters, kernel timers and their trace spans, the final state as
arrays — back over a result queue; the parent's wait loop watches exit
codes and the heartbeat board, hands what it saw to the driver's one
verdict (:func:`~repro.parallel.distributed.judge_ranks`) and returns
the reports, so everything downstream is backend-agnostic.

Requires the ``fork`` start method (the driver — problem setup,
subdomains, schedules — is inherited, never pickled), i.e. Linux or
macOS-with-fork.  See docs/PARALLEL.md for the transport table.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

from ...metrics.watchdog import BOARD_COLS, HeartbeatBoard
from ...utils.errors import BookLeafError, CommError
from ..commplan import CommPlan
from ..distributed import judge_ranks
from ..typhon import PEER_FAILED, SPIN_TIMEOUT, Transport

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
    """What the parent and the rank processes share beyond the driver
    itself, created pre-fork: the transport, the two queues and the
    heartbeat board.  Everything else a rank needs it reads off the
    driver it inherited."""

    def __init__(self, driver, max_steps: Optional[int]):
        ctx = mp.get_context("fork")
        self.max_steps = max_steps
        self.epoch_ns = time.perf_counter_ns()
        self.transport = SharedMemoryTransport(driver.compiled_plans())
        #: SimpleQueue: the put is synchronous, so a failing child can
        #: os._exit right after reporting without losing the record
        self.errors = ctx.SimpleQueue()
        self.results: mp.Queue = ctx.Queue()
        # Heartbeat board: one more shared board the ranks beat into and
        # the parent's wait loop polls (CLOCK_MONOTONIC is system-wide,
        # so the stamps compare across processes).  Launch-stamped
        # pre-fork.
        self.heartbeat = HeartbeatBoard(
            self.transport.board("heartbeat", (driver.nranks, BOARD_COLS)))
        self.heartbeat.launch()

    def cleanup(self) -> None:
        self.heartbeat.array = None
        self.transport.cleanup()


def _rank_main(driver, rc: _ProcessRunContext, rank: int) -> None:
    """Entry point of one rank process (runs in the forked child)."""
    try:
        transport = rc.transport
        transport.close_pipes(keep_rank=rank)
        hydro = driver.build_rank(rank, transport, epoch_ns=rc.epoch_ns,
                                  board=rc.heartbeat)
        hydro.run(max_steps=rc.max_steps)
        # Collective end-of-run point: every rank is past its last
        # staging read before anyone tears its mailbox views down.
        transport.allgather(rank, None)
        rc.results.put(driver.report(hydro).marshalled())
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
    """Launch one forked process per rank; marshal the reports back."""

    name = "processes"

    # ------------------------------------------------------------------
    def prepare(self, driver) -> None:
        if "fork" not in mp.get_all_start_methods():
            raise BookLeafError(
                "the processes backend needs the 'fork' start method "
                "(Linux/macOS); use backend='threads' here"
            )

    # ------------------------------------------------------------------
    def execute(self, driver, max_steps: Optional[int] = None) -> list:
        rc = _ProcessRunContext(driver, max_steps)
        try:
            return self._execute(driver, rc)
        finally:
            rc.cleanup()

    def _execute(self, driver, rc: _ProcessRunContext) -> list:
        ctx = mp.get_context("fork")
        size = driver.nranks
        procs = [
            ctx.Process(target=_rank_main, args=(driver, rc, r),
                        name=f"rank{r}")
            for r in range(size)
        ]
        for p in procs:
            p.start()
        # Parent's copies of the pipe ends are not used; close them so
        # fd accounting stays tight (children hold their own copies).
        rc.transport.close_pipes()

        results: Dict[int, object] = {}
        failures: List[Tuple[int, BaseException]] = []
        dead: Dict[int, int] = {}
        board = rc.heartbeat
        timeout = driver.watchdog_timeout
        stalled: Dict[int, dict] = {}

        def drain() -> None:
            while True:
                try:
                    report = rc.results.get_nowait()
                except Exception:
                    break
                results[report.rank] = report
            while not rc.errors.empty():
                rank, etype, emsg, tb = rc.errors.get()
                failures.append((rank, CommError(emsg) if etype == "CommError"
                                 else RemoteRankError(f"[{etype}] {emsg}", tb)))

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
            if len(results) == size:
                break
            if all(not p.is_alive() for p in procs):
                break
            if stalled and all(
                not procs[r].is_alive()
                for r in range(size) if r not in stalled
            ):
                break  # only wedged ranks left; terminate them below
            time.sleep(0.01)
        for p in procs:
            p.join(timeout=10.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        drain()

        reported = {rank for rank, _ in failures}
        for rank, exitcode in sorted(dead.items()):
            if rank not in reported and rank not in results:
                failures.append((rank, RemoteRankError(
                    f"rank process terminated abnormally "
                    f"(exitcode {exitcode})"
                )))
        judge_ranks(failures, stalled, board, timeout)
        if len(results) != size:
            missing = sorted(set(range(size)) - set(results))
            raise BookLeafError(
                f"ranks {missing} exited without reporting results"
            )
        return list(results.values())
