"""The ``threads`` backend: every rank is a thread in this process.

The driver builds every rank (``driver.build_rank``) over the
in-process transport this backend supplies
(:class:`~repro.parallel.typhon.TyphonContext`): the boards are plain
arrays every thread can see and a waiting rank sleeps on its own
condition variable.  Rank threads run the unchanged SPMD hydro loop,
each recording into its own timer registry (traced, all on one clock
epoch taken here, so the rank streams share a time axis).
Numpy releases the GIL inside its kernels so the ranks overlap there,
but the Python-level glue between kernels serialises on the GIL —
which is exactly what the ``processes`` backend exists to remove.

Failure handling: worker exceptions are collected through a
thread-safe queue as ``(rank, exc)`` pairs (never a shared dict — rank
threads must not race on the error container) and the Typhon context
is aborted so every peer blocked in a wait wakes up.  The join loop
doubles as the stall monitor: with a watchdog timeout it asks the
heartbeat board which live ranks went silent, aborts their peers and
abandons the wedged threads.  What to raise from all that is the
driver's one verdict (:func:`~repro.parallel.distributed.judge_ranks`).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Optional, Tuple

from ...metrics.watchdog import HeartbeatBoard
from ..distributed import judge_ranks
from ..typhon import TyphonContext


class ThreadsBackend:
    """Launch one thread per rank inside this process."""

    name = "threads"

    # ------------------------------------------------------------------
    def prepare(self, driver) -> None:
        """Build the shared Typhon context and have the driver build
        the ranks on it — ``driver.context`` and ``driver.hydros`` are
        this backend's public surface: tests and embedding code attach
        observers to ``driver.hydros[0]``, and the sampling profiler
        reads each rank's ``hydro.timers``."""
        driver.context = TyphonContext(driver.subdomains,
                                       plans=driver.compiled_plans())
        self.board = HeartbeatBoard.allocate(driver.nranks)
        epoch = time.perf_counter_ns()
        for rank in range(driver.nranks):
            driver.hydros.append(driver.build_rank(
                rank, driver.context, epoch_ns=epoch, board=self.board))

    # ------------------------------------------------------------------
    def execute(self, driver, max_steps: Optional[int] = None) -> list:
        failures: "queue.Queue[Tuple[int, BaseException]]" = queue.Queue()

        def worker(rank: int) -> None:
            try:
                driver.hydros[rank].run(max_steps=max_steps)
            except BaseException as exc:  # propagate to the caller
                failures.put((rank, exc))
                driver.context.abort()

        # Daemon threads: a stalled rank may be wedged forever, and the
        # process must still be able to exit after we abandon it below.
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank{r}",
                             daemon=True)
            for r in range(driver.nranks)
        ]
        board, timeout = self.board, driver.watchdog_timeout
        board.launch()
        for t in threads:
            t.start()
        stalled: Dict[int, dict] = {}
        while True:
            alive = [r for r, t in enumerate(threads) if t.is_alive()]
            if timeout is not None:
                # every pass: the first rank flagged may be a waiting
                # peer, and the wedged one goes stale after it; a
                # returned rank has stopped beating for the best of
                # reasons
                stale = {r: seen
                         for r, seen in board.stalled(timeout).items()
                         if r in alive and r not in stalled}
                if stale:
                    stalled.update(stale)
                    driver.context.abort()  # diagnose the hang, don't share it
            if all(r in stalled for r in alive):
                break  # everyone returned, or only wedged ranks are left
            threads[alive[0]].join(timeout=0.05)  # then ask the board again

        errors = []
        while not failures.empty():
            errors.append(failures.get())
        judge_ranks(errors, stalled, board, timeout)
        return [driver.report(hydro) for hydro in driver.hydros]
