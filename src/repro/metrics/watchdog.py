"""Rank heartbeats: the board every stall watchdog asks.

A decomposed run is lockstep: every rank must reach every barrier and
collective.  When one rank stops making progress — wedged in a kernel,
killed by the OOM killer, SIGKILLed — its peers hang *silently* at the
next dt reduction, and the run looks alive forever.  Heartbeats turn
that silence into a diagnosis:

* every rank publishes ``(step, wallclock)`` heartbeats into a shared
  :class:`HeartbeatBoard` — a plain (nranks, 2) float64 array for the
  ``threads`` backend, a ``shared_memory``-backed view of the same
  layout for ``processes`` and for the fleet's pool workers;
* nothing here watches it: whoever launched the ranks already sits in
  a wait loop (the threads backend's join loop, the processes
  backend's parent, the fleet pool's dispatcher) and asks
  :meth:`HeartbeatBoard.stalled` from there.  A rank silent for longer
  than the configured timeout gets the run aborted (releasing the
  peers stuck in barriers) and a
  :class:`~repro.utils.errors.StalledRankWarning` worded by
  :func:`stall_message`, carrying every rank's last-seen step.

Heartbeats are two float stores per step — always on for decomposed
runs; only the monitoring (and hence the timeout policy) is opt-in via
``--watchdog-timeout``.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

#: board layout: one row per rank, columns = (last step, monotonic stamp)
BOARD_COLS = 2

#: step value meaning "launched but no step completed yet"
LAUNCHED = -1.0


class HeartbeatBoard:
    """Shared (nranks, 2) array of per-rank (step, wallclock) beats.

    The storage is caller-provided so one class serves both backends:
    threads hand in a process-local array, processes hand in a view of
    a ``shared_memory`` segment.  Writers only ever touch their own
    row, so no locking is needed (float64 stores are atomic enough for
    a monitor that tolerates a torn read as one stale poll).
    """

    def __init__(self, array: np.ndarray):
        if array.ndim != 2 or array.shape[1] != BOARD_COLS:
            raise ValueError(f"heartbeat board must be (nranks, "
                             f"{BOARD_COLS}), got {array.shape}")
        self.array = array

    @classmethod
    def allocate(cls, nranks: int) -> "HeartbeatBoard":
        board = cls(np.zeros((nranks, BOARD_COLS)))
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
