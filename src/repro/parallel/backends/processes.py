"""The ``processes`` backend: one forked OS process per rank.

Each rank's *unchanged* SPMD hydro loop and Typhon protocol
(:class:`~repro.parallel.typhon.TyphonComms`) runs in its own forked
process, so the ranks genuinely execute in parallel, not only inside
GIL-releasing kernels as with threads.  Only the transport underneath
differs (:class:`SharedMemoryTransport`), made of plain POSIX
primitives before the fork:

* **boards** — the protocol's staging (each rank's halo-sized
  *mailbox*, the compiled CommPlan's layout), post/complete counters
  and dt combining cells, plus a one-cell failure flag, live in
  anonymous shared ``mmap`` regions: nothing named, nothing to unlink;
* **waiting** — each rank owns a non-blocking *wake pipe*: ``notify``
  writes one byte to it, ``wait`` re-checks its predicate and blocks
  in ``select`` on it;
* **collectives** — the scalar collectives (the remap's collective
  skip decision, the metrics probe's sums/minima) gather over
  ``os.pipe`` pairs rooted at rank 0, in ascending rank order, as
  length-prefixed pickles.

Each child has the driver it inherited build its rank
(``driver.build_rank``) and writes one frame — its
``driver.report(...)`` or its error — down its result pipe.  The fleet
pool forks and waits the same way
(:class:`~repro.metrics.watchdog.Supervisor`); the ranks' own rule on
top: a death or a stale row aborts the transport, wedged ranks are
SIGKILLed once only they are left, and deaths and stalls go to
:func:`~repro.parallel.distributed.judge_ranks`.

Requires ``os.fork`` (the driver — problem setup, subdomains,
schedules — is inherited, never pickled), i.e. Linux or macOS.  See
docs/PARALLEL.md for the transport table.
"""

from __future__ import annotations

import os
import select
import time
import traceback
from contextlib import suppress
from typing import Dict, List, Optional

from ...metrics.watchdog import (CHUNK, Supervisor, require_fork,
                                 send_frame, shared_zeros, take_frames)
from ...utils.errors import BookLeafError, CommError
from ..commplan import CommPlan
from ..distributed import judge_ranks
from ..typhon import PEER_FAILED, SPIN_TIMEOUT, Transport


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


def _drain(fd: int) -> None:
    """Empty a non-blocking wake pipe."""
    with suppress(BlockingIOError):
        while os.read(fd, 4096):
            pass


class SharedMemoryTransport(Transport):
    """Boards in anonymous shared mappings, waits on wake pipes,
    allgather over pipe pairs rooted at rank 0.

    Built before the ranks fork, so every rank inherits the same
    mappings and pipes; the parent aborts a run through the same
    failure flag and wake pipes.  Whoever builds it calls
    :meth:`cleanup`, which closes this process's pipe ends (the
    mappings go with their last view).
    """

    def __init__(self, plans: List[CommPlan]):
        self.fds: List[int] = []
        #: one cell every waiter reads, set by :meth:`abort`
        self.failure = shared_zeros((1,))
        #: per rank: the (read, write) ends of its wake pipe
        self.wake = [self._pipe(blocking=False) for _ in plans]
        #: per leaf rank r: its value travels up, the entries come down
        self.up = {r: self._pipe() for r in range(1, len(plans))}
        self.down = {r: self._pipe() for r in range(1, len(plans))}
        self._pending: Dict[int, bytearray] = {}
        super().__init__(plans)

    def _pipe(self, blocking: bool = True) -> tuple:
        ends = os.pipe()
        self.fds += ends
        if not blocking:
            for fd in ends:
                os.set_blocking(fd, False)
        return ends

    def board(self, name: str, shape):
        return shared_zeros(shape)

    def wait(self, rank: int, ready, what: str) -> None:
        if ready():
            return
        deadline = time.monotonic() + SPIN_TIMEOUT
        wake = self.wake[rank][0]
        while True:
            _drain(wake)
            if ready():
                return
            if self.failure[0]:
                raise CommError(PEER_FAILED)
            left = deadline - time.monotonic()
            if left <= 0:
                raise CommError(
                    f"rank {rank} timed out waiting for {what}")
            select.select([wake], [], [], left)

    def notify(self, ranks) -> None:
        for r in ranks:
            try:
                os.write(self.wake[r][1], b"\0")
            except BlockingIOError:
                pass  # a full pipe: that rank has wake-ups pending

    def allgather(self, rank: int, value) -> list:
        """Gather at rank 0 in ascending rank order, broadcast back."""
        if rank == 0:
            entries = [value]
            for r in range(1, self.size):
                entries.append(self._recv(0, self.up[r][0]))
            for r in range(1, self.size):
                send_frame(self.down[r][1], entries)
            return entries
        send_frame(self.up[rank][1], value)
        return self._recv(rank, self.down[rank][0])

    def abort(self) -> None:
        self.failure[0] = 1.0
        self.notify(range(self.size))

    def cleanup(self) -> None:
        for fd in self.fds:
            os.close(fd)
        self.fds = []

    def _recv(self, rank: int, fd: int) -> object:
        """Receive one frame, failing fast once a peer has failed."""
        buf = self._pending.setdefault(fd, bytearray())
        wake = self.wake[rank][0]
        while True:
            if fd not in select.select([fd, wake], [], [])[0]:
                if self.failure[0]:
                    raise CommError(PEER_FAILED)
                _drain(wake)
                continue
            chunk = os.read(fd, CHUNK)
            if not chunk:  # EOF: every writer's end is closed
                raise CommError(PEER_FAILED)
            buf += chunk
            done = take_frames(buf)
            if done:
                return done[0]


def _rank_main(reply: int, driver, transport, board, rank: int,
               max_steps: Optional[int], epoch_ns: int) -> None:
    """Body of one forked rank: run and write one frame down
    ``reply`` — the report, or an error record before it re-raises."""
    try:
        hydro = driver.build_rank(rank, transport, epoch_ns=epoch_ns,
                                  board=board)
        hydro.run(max_steps=max_steps)
        send_frame(reply, ("report", driver.report(hydro).marshalled()))
    except BaseException as exc:
        if not isinstance(exc, CommError):
            exc = RemoteRankError(f"[{type(exc).__name__}] {exc}",
                                  traceback.format_exc())
        with suppress(OSError):  # else the parent is gone: nobody to tell
            send_frame(reply, ("error", exc))
        transport.abort()
        raise


class ProcessesBackend:
    """Fork one process per rank; read the reports back."""

    name = "processes"

    def prepare(self, driver) -> None:
        require_fork()

    def execute(self, driver, max_steps: Optional[int] = None) -> list:
        transport = SharedMemoryTransport(driver.compiled_plans())
        ranks = Supervisor(driver.nranks, driver.watchdog_timeout)
        epoch_ns = time.perf_counter_ns()
        try:
            for rank in range(driver.nranks):
                ranks.fork(rank, _rank_main, driver, transport,
                           ranks.board, rank, max_steps, epoch_ns)
            return self._supervise(driver, transport, ranks)
        finally:
            ranks.close()
            transport.cleanup()

    def _supervise(self, driver, transport, ranks: Supervisor) -> list:
        """Read every rank's one frame until its pipe closes, then judge."""
        timeout = ranks.timeout
        #: rank → ("report", marshalled report) or ("error", exception)
        frames: Dict[int, tuple] = {}
        stalled: Dict[int, dict] = {}

        def on_exit(rank: int, exitcode: int, killed: bool) -> None:
            if exitcode == 0 or killed:
                return
            transport.abort()  # free peers stuck in waits and pipes
            frames.setdefault(rank, ("error", RemoteRankError(
                f"rank process terminated abnormally "
                f"(exitcode {exitcode})")))
            if timeout is not None:
                # a dead rank has definitively stopped beating;
                # reported now rather than after the timeout
                stalled.setdefault(rank, ranks.board.last_seen()[rank])

        while ranks.children:
            stale = ranks.wait([r for r in ranks.children
                                if r not in frames and r not in stalled],
                               frames.__setitem__, on_exit)
            if stale:
                stalled.update(stale)
                transport.abort()  # diagnose the hang, don't share it
            if stalled and all(r in stalled for r in ranks.children):
                # only wedged ranks are left; SIGKILL closes their pipes
                for rank in list(ranks.children):
                    ranks.kill(rank)
        judge_ranks([(r, exc) for r, (kind, exc) in frames.items()
                     if kind == "error"], stalled, ranks.board, timeout)
        reports = {r: rep for r, (kind, rep) in frames.items()
                   if kind == "report"}
        missing = sorted(set(range(driver.nranks)) - set(reports))
        if missing:
            raise BookLeafError(
                f"ranks {missing} exited without reporting results")
        return list(reports.values())
