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
(``driver.build_rank``), writes one framed pickle — its
``driver.report(...)``, the final state as arrays, or its error —
down a private result pipe and leaves through ``os._exit``.  That
pipe's EOF is also its death notice: the parent blocks in one
``select`` over the result pipes (until the heartbeat board's next
deadline when a watchdog is set), reaps a child on EOF — a partial
frame is never unpickled — and hands deaths and stalls to the driver's
one verdict (:func:`~repro.parallel.distributed.judge_ranks`).

Requires ``os.fork`` (the driver — problem setup, subdomains,
schedules — is inherited, never pickled), i.e. Linux or macOS.  See
docs/PARALLEL.md for the transport table.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
import time
import traceback
from contextlib import suppress
from typing import Dict, List, Optional

from ...metrics.watchdog import HeartbeatBoard, shared_zeros
from ...utils.errors import BookLeafError, CommError
from ..commplan import CommPlan
from ..distributed import judge_ranks
from ..typhon import PEER_FAILED, SPIN_TIMEOUT, Transport

#: every frame on a pipe: the pickle's byte length in this many
#: little-endian bytes, then the pickle
_HEADER = 8

#: largest read from a pipe in one call
_CHUNK = 1 << 20


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


def _send_frame(fd: int, obj) -> None:
    """Write ``obj`` as one length-prefixed pickle (blocking)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    for part in (len(data).to_bytes(_HEADER, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _take_frames(buf: bytearray) -> list:
    """Unpickle and remove every complete frame at the front of
    ``buf``; an incomplete tail stays where it is."""
    done = []
    while len(buf) >= _HEADER:
        end = _HEADER + int.from_bytes(buf[:_HEADER], "little")
        if len(buf) < end:
            break
        with memoryview(buf) as view:
            done.append(pickle.loads(view[_HEADER:end]))
        del buf[:end]
    return done


def _drain(fd: int) -> None:
    """Empty a non-blocking wake pipe."""
    with suppress(BlockingIOError):
        while os.read(fd, 4096):
            pass


def _flush_stdio() -> None:
    """Flush Python's stdio buffers: before a fork, so no child prints
    the parent's pending text again, and before ``os._exit``."""
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError, ValueError):
            stream.flush()


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
                _send_frame(self.down[r][1], entries)
            return entries
        _send_frame(self.up[rank][1], value)
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
            chunk = os.read(fd, _CHUNK)
            if not chunk:  # EOF: every writer's end is closed
                raise CommError(PEER_FAILED)
            buf += chunk
            done = _take_frames(buf)
            if done:
                return done[0]


def _rank_main(driver, transport, board, rank: int,
               max_steps: Optional[int], epoch_ns: int, fd: int) -> None:
    """Body of one forked rank: run, write one frame — the report or
    an error record — down ``fd``, leave through ``os._exit``."""
    status = 1
    try:
        hydro = driver.build_rank(rank, transport, epoch_ns=epoch_ns,
                                  board=board)
        hydro.run(max_steps=max_steps)
        _send_frame(fd, ("report", driver.report(hydro).marshalled()))
        status = 0
    except BaseException as exc:
        if not isinstance(exc, CommError):
            exc = RemoteRankError(f"[{type(exc).__name__}] {exc}",
                                  traceback.format_exc())
        with suppress(OSError):  # else the parent is gone: nobody to tell
            _send_frame(fd, ("error", exc))
        transport.abort()
    finally:
        _flush_stdio()
        os._exit(status)


class ProcessesBackend:
    """Fork one process per rank; read the reports back."""

    name = "processes"

    def prepare(self, driver) -> None:
        if not hasattr(os, "fork"):
            raise BookLeafError("the processes backend needs os.fork "
                                "(Linux/macOS); use backend='threads' here")

    def execute(self, driver, max_steps: Optional[int] = None) -> list:
        transport = SharedMemoryTransport(driver.compiled_plans())
        # launch-stamped pre-fork; CLOCK_MONOTONIC is system-wide, so
        # the ranks' stamps compare in the parent
        board = HeartbeatBoard.allocate(driver.nranks, shared=True)
        epoch_ns = time.perf_counter_ns()
        #: rank → (pid, read end of its result pipe), until reaped
        self.children: Dict[int, tuple] = {}
        try:
            _flush_stdio()
            for rank in range(driver.nranks):
                read_fd, write_fd = os.pipe()
                pid = os.fork()
                if pid == 0:
                    _rank_main(driver, transport, board, rank, max_steps,
                               epoch_ns, write_fd)
                os.close(write_fd)
                self.children[rank] = (pid, read_fd)
            return self._supervise(driver, transport, board)
        finally:
            for rank in list(self.children):
                self._kill(rank)
                self._reap(rank)
            transport.cleanup()

    def _kill(self, rank: int) -> None:
        with suppress(ProcessLookupError):
            os.kill(self.children[rank][0], signal.SIGKILL)

    def _reap(self, rank: int) -> int:
        """Close ``rank``'s result pipe and return its exit code
        (``-signal`` for a signalled death)."""
        pid, fd = self.children.pop(rank)
        os.close(fd)
        return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])

    def _supervise(self, driver, transport, board) -> list:
        """Read every rank's frames until its pipe closes, then judge."""
        timeout = driver.watchdog_timeout
        pending = {rank: bytearray() for rank in self.children}
        results: Dict[int, object] = {}
        failures: List[tuple] = []
        stalled: Dict[int, dict] = {}
        killed: set = set()
        while self.children:
            watched = [r for r in self.children
                       if r not in results and r not in stalled]
            wake_in = None
            if timeout is not None and watched:
                # until the stalest watched beat would go stale
                wake_in = max(0.0, board.array[watched, 1].min()
                              + timeout - time.monotonic())
            by_fd = {fd: rank for rank, (_, fd) in self.children.items()}
            for fd in select.select(list(by_fd), [], [], wake_in)[0]:
                rank = by_fd[fd]
                chunk = os.read(fd, _CHUNK)
                pending[rank] += chunk
                for kind, payload in _take_frames(pending[rank]):
                    if kind == "report":
                        results[rank] = payload
                    else:
                        failures.append((rank, payload))
                if chunk:
                    continue
                exitcode = self._reap(rank)  # EOF: the rank has exited
                if exitcode == 0 or rank in killed:
                    continue
                transport.abort()  # free peers stuck in waits and pipes
                if rank not in results and rank not in dict(failures):
                    failures.append((rank, RemoteRankError(
                        f"rank process terminated abnormally "
                        f"(exitcode {exitcode})")))
                if timeout is not None:
                    # a dead rank has definitively stopped beating;
                    # reported now rather than after the timeout
                    stalled.setdefault(rank, board.last_seen()[rank])
            if timeout is not None:
                stale = {r: seen
                         for r, seen in board.stalled(timeout).items()
                         if r in self.children and r not in results
                         and r not in stalled}
                if stale:
                    stalled.update(stale)
                    transport.abort()  # diagnose the hang, don't share it
            if stalled and all(r in stalled for r in self.children):
                # only wedged ranks are left; SIGKILL closes their pipes
                for rank in set(self.children) - killed:
                    self._kill(rank)
                    killed.add(rank)
        judge_ranks(failures, stalled, board, timeout)
        if len(results) != driver.nranks:
            missing = sorted(set(range(driver.nranks)) - set(results))
            raise BookLeafError(
                f"ranks {missing} exited without reporting results")
        return list(results.values())
