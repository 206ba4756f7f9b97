"""Rank heartbeats, and the one fork supervisor that watches them.

A decomposed run is lockstep: every rank must reach every barrier and
collective.  When one rank stops making progress — wedged in a kernel,
killed by the OOM killer, SIGKILLed — its peers hang *silently* at the
next dt reduction, and the run looks alive forever.  Heartbeats turn
that silence into a diagnosis:

* every rank publishes ``(step, wallclock)`` heartbeats into a shared
  :class:`HeartbeatBoard` — a plain (nranks, 2) float64 array for the
  ``threads`` backend, the same layout in an anonymous shared mapping
  (:func:`shared_zeros`, made before the fork) for ``processes`` and
  for the fleet's pool workers;
* nothing watches it from a thread of its own: each launcher's wait
  loop asks :meth:`HeartbeatBoard.stalled` — the ``threads`` backend's
  join loop, or the one ``select`` of the :class:`Supervisor` both
  process launchers (``processes`` ranks, fleet pool workers) fork and
  watch their children with.  The launcher decides what a stale row
  means: for ranks an aborted run and a
  :class:`~repro.utils.errors.StalledRankWarning` worded by
  :func:`stall_message`, carrying every rank's last-seen step; for the
  pool a SIGKILL and a requeued job.

Heartbeats are two float stores per step — always on for decomposed
runs; only the monitoring (and hence the timeout policy) is opt-in via
``--watchdog-timeout``.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import sys
import time
from contextlib import suppress
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, Optional

import numpy as np

from ..utils.errors import BookLeafError

#: board layout: one row per rank, columns = (last step, monotonic stamp)
BOARD_COLS = 2

#: step value meaning "launched but no step completed yet"
LAUNCHED = -1.0


def shared_zeros(shape) -> np.ndarray:
    """A zero-filled float64 array in an anonymous shared mapping.

    Made before a fork, it is the same memory in the parent and every
    child: nothing is named, so nothing is left to unlink, and the
    mapping goes with the last process holding a view of it.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count, 1) * 8)  # MAP_SHARED | MAP_ANONYMOUS
    return np.frombuffer(buf, dtype=np.float64, count=count).reshape(shape)


class HeartbeatBoard:
    """Shared (nranks, 2) array of per-rank (step, wallclock) beats.

    The storage is caller-provided so one class serves every launcher:
    the threads backend allocates a process-local array, the processes
    backend and the fleet pool a :func:`shared_zeros` one.  Writers
    only ever touch their own row, so no locking is needed (float64
    stores are atomic enough for a monitor that tolerates a torn read
    as one stale poll).
    """

    def __init__(self, array: np.ndarray):
        if array.ndim != 2 or array.shape[1] != BOARD_COLS:
            raise ValueError(f"heartbeat board must be (nranks, "
                             f"{BOARD_COLS}), got {array.shape}")
        self.array = array

    @classmethod
    def allocate(cls, nranks: int, shared: bool = False) -> "HeartbeatBoard":
        """A launched board; ``shared`` puts it in an anonymous shared
        mapping, for launchers that fork after allocating it."""
        zeros = shared_zeros if shared else np.zeros
        board = cls(zeros((nranks, BOARD_COLS)))
        board.launch()
        return board

    @property
    def nranks(self) -> int:
        return self.array.shape[0]

    # ------------------------------------------------------------------
    def launch(self) -> None:
        """Stamp every row 'launched now' — a rank that never completes
        a single step still ages from launch, not from epoch zero."""
        self.array[:, 0] = LAUNCHED
        self.array[:, 1] = time.monotonic()

    def beat(self, rank: int, step: int) -> None:
        self.array[rank, 0] = float(step)
        self.array[rank, 1] = time.monotonic()

    def last_seen(self) -> Dict[int, dict]:
        """Every rank's last beat: ``{rank: {step, age_seconds}}``."""
        now = time.monotonic()
        return {
            r: {"step": int(self.array[r, 0]),
                "age_seconds": now - float(self.array[r, 1])}
            for r in range(self.nranks)
        }

    def stalled(self, timeout: float) -> Dict[int, dict]:
        """Ranks whose last beat is older than ``timeout`` seconds."""
        return {r: seen for r, seen in self.last_seen().items()
                if seen["age_seconds"] > timeout}


class Heartbeat:
    """Per-rank step observer: one board write per completed step."""

    def __init__(self, board: HeartbeatBoard, rank: int):
        self.board = board
        self.rank = rank

    def __call__(self, hydro) -> None:
        self.board.beat(self.rank, hydro.nstep)


def stall_message(stalled: Dict[int, dict],
                  board: HeartbeatBoard, timeout: float) -> str:
    """The StalledRankWarning text: who stalled, everyone's last step."""
    who = ", ".join(
        f"rank {r} (last step {info['step']}, "
        f"{info['age_seconds']:.1f}s ago)"
        for r, info in sorted(stalled.items())
    )
    steps = [int(s) for s in board.array[:, 0]]
    return (f"watchdog: no heartbeat within {timeout:.1f}s from {who}; "
            f"per-rank last-seen steps: {steps}")


#: every frame on a pipe: the pickle's byte length in this many
#: little-endian bytes, then the pickle
_HEADER = 8

#: largest read from a pipe in one call
CHUNK = 1 << 20

#: the pipe ends this process was handed by the supervisor that forked
#: it; its own children close them, so each EOF waits on one process
_INHERITED: tuple = ()


def require_fork() -> None:
    """The one check both launchers make: no ``os.fork``, no children."""
    if not hasattr(os, "fork"):
        raise BookLeafError(
            "rank and worker processes need os.fork (Linux/macOS); run "
            "fleet jobs with workers=0 and ranks with backend='threads' "
            "here")


def send_frame(fd: int, obj) -> None:
    """Write ``obj`` as one length-prefixed pickle (blocking)."""
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    for part in (len(data).to_bytes(_HEADER, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def take_frames(buf: bytearray) -> list:
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


def read_frames(fd: int):
    """Yield every frame arriving on ``fd`` until its EOF (blocking)."""
    buf = bytearray()
    while chunk := os.read(fd, CHUNK):
        buf += chunk
        yield from take_frames(buf)


def _flush_stdio() -> None:
    """Flush Python's stdio buffers: before a fork, so no child prints
    the parent's pending text again, and before ``os._exit``."""
    for stream in (sys.stdout, sys.stderr):
        with suppress(AttributeError, OSError, ValueError):
            stream.flush()


class Supervisor:
    """Forked children, keyed by board row (a rank, a pool worker's
    slot): each leaves through ``os._exit`` (0 if its body returned, 1
    if it raised) and talks back in frames over a private result pipe,
    whose EOF is its death notice.  Requires ``os.fork``: what a child
    runs is inherited, never pickled."""

    def __init__(self, rows: int, timeout: Optional[float] = None):
        require_fork()
        #: launched before the fork; CLOCK_MONOTONIC is system-wide,
        #: so the children's stamps compare in the parent
        self.board = HeartbeatBoard.allocate(rows, shared=True)
        self.timeout = timeout  # None: no row is ever stale
        #: live children: pid, result pipe read end and its unframed
        #: bytes, job pipe write end (or None), killed
        self.children: Dict[int, SimpleNamespace] = {}

    def fork(self, key: int, body: Callable, *args,
             inbox: bool = False) -> None:
        """Fork child ``key`` running ``body(reply, *args)``, or
        ``body(reply, jobs, *args)`` with an ``inbox``: the write end
        of its result pipe, the read end of its job pipe."""
        global _INHERITED
        read_fd, reply = os.pipe()
        jobs, job_fd = os.pipe() if inbox else (None, None)
        _flush_stdio()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                theirs = [fd for c in self.children.values()
                          for fd in (c.fd, c.inbox)]
                for fd in (*theirs, *_INHERITED, read_fd, job_fd):
                    if fd is not None:
                        os.close(fd)
                _INHERITED = (reply,) if jobs is None else (reply, jobs)
                body(*_INHERITED, *args)
                status = 0
            finally:
                _flush_stdio()
                os._exit(status)
        for fd in (reply, jobs):
            if fd is not None:
                os.close(fd)
        self.children[key] = SimpleNamespace(
            pid=pid, fd=read_fd, buf=bytearray(), inbox=job_fd,
            killed=False)

    def send(self, key: int, job) -> None:
        """One frame down ``key``'s job pipe (``BrokenPipeError`` once
        that child has exited); its row reads launched now."""
        send_frame(self.children[key].inbox, job)
        self.board.beat(key, LAUNCHED)

    def kill(self, key: int) -> None:
        """SIGKILL child ``key``; its pipe's EOF follows."""
        child = self.children[key]
        child.killed = True
        with suppress(ProcessLookupError):
            os.kill(child.pid, signal.SIGKILL)

    def _reap(self, key: int) -> int:
        """Close ``key``'s pipes; its exit code (``-signal`` if
        signalled)."""
        child = self.children.pop(key)
        for fd in (child.fd, child.inbox):
            if fd is not None:
                os.close(fd)
        return os.waitstatus_to_exitcode(os.waitpid(child.pid, 0)[1])

    def wait(self, watched: Iterable[int], on_frame: Callable,
             on_exit: Callable) -> dict:
        """One round: block in one ``select`` over every result pipe
        until one is readable or the stalest ``watched`` row would go
        stale.  Frames go to ``on_frame(key, frame)``; at EOF the child
        is reaped and ``on_exit(key, exitcode, killed)`` called.
        Returns the watched rows now stale, ``{key: last seen}``; a
        killed child is not watched, and a caller that keeps a stale
        row alive leaves it out of ``watched``."""
        watched = [k for k in watched if not self.children[k].killed]
        wake_in = None
        if self.timeout is not None and watched:
            wake_in = max(0.0, self.board.array[watched, 1].min()
                          + self.timeout - time.monotonic())
        by_fd = {child.fd: key for key, child in self.children.items()}
        for fd in select.select(list(by_fd), [], [], wake_in)[0]:
            key = by_fd[fd]
            child = self.children[key]
            chunk = os.read(fd, CHUNK)
            child.buf += chunk
            for frame in take_frames(child.buf):
                on_frame(key, frame)
            if not chunk:  # EOF: the child has exited
                on_exit(key, self._reap(key), child.killed)
        if self.timeout is None or not watched:
            return {}
        return {k: seen for k, seen in self.board.stalled(
                    self.timeout).items()
                if k in watched and k in self.children}

    def close(self) -> None:
        """SIGKILL and reap every child still here."""
        for key in list(self.children):
            self.kill(key)
            self._reap(key)
