"""The ``threads`` backend: every rank is a thread in this process.

Rank threads run the unchanged SPMD hydro loop, each with a
:class:`~repro.parallel.typhon.TyphonComms` endpoint over the
in-process transport (:class:`~repro.parallel.typhon.TyphonContext`):
the boards are plain arrays every thread can see and a waiting rank
sleeps on its own condition variable.  Numpy releases the
GIL inside its kernels so the ranks overlap there, but the Python-level
glue between kernels serialises on the GIL — which is exactly what the
``processes`` backend exists to remove.

Failure handling: worker exceptions are collected through a
thread-safe queue as ``(rank, exc)`` pairs (never a shared dict — rank
threads must not race on the error container), the Typhon context is
aborted so every peer blocked in a wait wakes up, and the first
*primary* failure (lowest rank, preferring real errors over the
secondary :class:`~repro.utils.errors.CommError` cascades the abort
causes) is re-raised chained to the original traceback.
"""

from __future__ import annotations

import queue
import threading
import warnings
from typing import List, Optional, Tuple

from ...core.hydro import Hydro
from ...utils.errors import BookLeafError, CommError, StalledRankWarning
from ...utils.timers import TimerRegistry
from ..halo import local_state
from ..interface import BackendRun
from ..typhon import TyphonComms, TyphonContext


def pick_primary_failure(errors: List[Tuple[int, BaseException]]
                         ) -> Tuple[int, BaseException]:
    """The failure to report: a real error beats the CommError cascade
    it caused on the other ranks; ties break to the lowest rank."""
    return min(errors, key=lambda e: (isinstance(e[1], CommError), e[0]))


def raise_rank_failure(rank: int, exc: BaseException) -> None:
    """Wrap a rank's failure with its rank context, chaining the
    original traceback (``from exc`` keeps the full remote stack)."""
    if isinstance(exc, BookLeafError):
        message = f"rank {rank} failed: {exc}"
    else:
        # Non-BookLeaf errors keep their type visible in the message —
        # the wrapper must not launder a TypeError into a hydro error.
        message = f"rank {rank} failed: [{type(exc).__name__}] {exc}"
    raise BookLeafError(message) from exc


class ThreadsBackend:
    """Launch one thread per rank inside this process."""

    name = "threads"

    # ------------------------------------------------------------------
    def prepare(self, driver) -> None:
        """Build the shared Typhon context and the per-rank hydros.

        Everything lives on the driver (``driver.context``,
        ``driver.hydros``, ``driver.tracers``) — the in-process rank
        objects are part of this backend's public surface: tests and
        embedding code attach observers to ``driver.hydros[0]``.
        """
        setup = driver.setup
        driver.context = TyphonContext(driver.subdomains,
                                       plans=driver.compiled_plans())
        if driver.trace:
            import time

            from ...telemetry.spans import Tracer

            epoch = time.perf_counter_ns()
            driver.tracers = [Tracer(rank=r, epoch_ns=epoch)
                              for r in range(driver.nranks)]
        for sub in driver.subdomains:
            state = local_state(sub, setup.state)
            tracer = driver.tracers[sub.rank] if driver.tracers else None
            comms = TyphonComms(driver.context, sub, tracer=tracer,
                                mode=driver.comm_plan)
            timers = TimerRegistry()
            timers.tracer = tracer
            driver.hydros.append(Hydro(
                state, setup.table, setup.controls,
                timers=timers, comms=comms,
                probe=driver.build_probe(sub.rank,
                                         cell_global=sub.cell_global),
            ))

    # ------------------------------------------------------------------
    def execute(self, driver, max_steps: Optional[int] = None) -> BackendRun:
        step_series = None
        if driver.collect_step_series:
            from ...telemetry.report import StepSeries

            step_series = StepSeries()
            driver.hydros[0].observers.append(step_series)

        # Heartbeats: one board write per rank per step (always on —
        # two float stores); the stall monitor only runs when a
        # watchdog timeout was configured.
        from ...metrics.watchdog import (
            Heartbeat, HeartbeatBoard, Watchdog, stall_message,
        )

        board = HeartbeatBoard.allocate(driver.nranks)
        for rank, hydro in enumerate(driver.hydros):
            hydro.observers.append(Heartbeat(board, rank))
        watchdog = None
        if driver.watchdog_timeout is not None:
            watchdog = Watchdog(
                board, driver.watchdog_timeout,
                on_stall=lambda stalled: driver.context.abort(),
            )
            watchdog.start()

        failures: "queue.Queue[Tuple[int, BaseException]]" = queue.Queue()

        def worker(rank: int) -> None:
            try:
                driver.hydros[rank].run(max_steps=max_steps)
            except BaseException as exc:  # propagate to the caller
                failures.put((rank, exc))
                driver.context.abort()

        # Daemon threads: a watchdog-confirmed stalled rank may be
        # wedged forever, and the process must still be able to exit
        # after we abandon it below.
        threads = [
            threading.Thread(target=worker, args=(r,), name=f"rank{r}",
                             daemon=True)
            for r in range(driver.nranks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            while t.is_alive():
                t.join(timeout=0.1)
                if watchdog is not None and watchdog.stalled is not None \
                        and int(t.name[4:]) in watchdog.stalled:
                    break  # abandon the wedged rank's thread
        if watchdog is not None:
            watchdog.stop()

        errors: List[Tuple[int, BaseException]] = []
        while True:
            try:
                errors.append(failures.get_nowait())
            except queue.Empty:
                break

        if errors or (watchdog is not None and watchdog.stalled is not None):
            for hydro in driver.hydros:
                if hydro.probe is not None:
                    hydro.probe.close()  # the failure path skips finish()
        if watchdog is not None and watchdog.stalled is not None:
            # Warn from the main thread (daemon-thread warnings are
            # invisible to pytest.warns and user filters), then raise:
            # the surviving ranks only carry the secondary CommError
            # cascade — the stall itself is the primary failure.
            message = stall_message(watchdog.stalled, board,
                                    driver.watchdog_timeout)
            warnings.warn(message, StalledRankWarning)
            raise BookLeafError(f"run aborted: {message}")
        if errors:
            raise_rank_failure(*pick_primary_failure(errors))

        steps = {h.nstep for h in driver.hydros}
        times = {round(h.time, 14) for h in driver.hydros}
        if len(steps) != 1 or len(times) != 1:
            raise BookLeafError(
                f"ranks desynchronised: steps={steps} times={times}"
            )
        probe = driver.hydros[0].probe
        return BackendRun(
            backend=self.name,
            nranks=driver.nranks,
            nstep=driver.hydros[0].nstep,
            time=driver.hydros[0].time,
            states=[h.state for h in driver.hydros],
            timers=[h.timers for h in driver.hydros],
            spans=[t.spans for t in driver.tracers] if driver.tracers
                  else [[] for _ in range(driver.nranks)],
            comm_per_rank=driver.context.per_rank_stats(),
            step_rows=step_series.rows if step_series else None,
            metrics_rows=probe.rows if probe is not None else None,
            metrics=probe.registry if probe is not None else None,
        )
