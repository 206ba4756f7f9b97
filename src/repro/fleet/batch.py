"""The fleet's same-mesh fast path: batched ensemble execution with
lane refill.

The coalescer (:meth:`repro.fleet.engine.Fleet._coalesce`) decides
which queued jobs share a batch — it is the only way here, and it has
already checked every job against the one eligibility table (serial,
same mesh topology, no per-job telemetry).  A batch steps its jobs as
lanes of one :class:`~repro.ensemble.driver.EnsembleHydro` pass
instead of N separate step loops.  On top of that sits **refill**:
when a lane finishes early (its own CFL clock hit ``time_end``) and
jobs are still queued, the batch is rebuilt at full width — the
still-active lanes are *carried* into the new batch as the ``Hydro``
objects they are (state, clocks, ALE remapper with its pristine
Eulerian target, probe, step rows and step budget travel together)
and the retired rows are refilled from the queue, so the kernel pass
never shrinks while work remains.

Bit-identity is preserved through a rebuild for both populations: a
carried lane is the same driver on a new segment of a new union (the
compaction path already proves batch-layout changes are bit-neutral),
and a fresh lane entering mid-flight is a ``Hydro`` at step 0, which
takes its initial dt like any other.
"""

from __future__ import annotations

import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..utils.errors import BookLeafError
from ..utils.timers import TimerRegistry


@dataclass
class BatchJob:
    """One queued unit of work: a config, its submission index and the
    per-lane control overrides (ensemble sweeps)."""

    index: int
    config: Any
    override: Optional[Dict[str, Any]] = None
    #: retry bookkeeping (worker-pool path)
    attempts: int = 0
    metadata: dict = field(default_factory=dict)


def make_jobs(configs: Sequence, control_overrides=None) -> List[BatchJob]:
    """Pair configs with their per-lane overrides, one entry each."""
    configs = list(configs)
    if not configs:
        raise BookLeafError("submit needs at least one RunConfig")
    if control_overrides is None:
        overrides: List[Optional[Dict[str, Any]]] = [None] * len(configs)
    else:
        overrides = list(control_overrides)
        if len(overrides) != len(configs):
            raise BookLeafError(
                "control_overrides must be one entry per config "
                f"({len(overrides)} != {len(configs)})"
            )
    return [BatchJob(index=i, config=config, override=override)
            for i, (config, override) in enumerate(zip(configs, overrides))]


def run_ensemble_jobs(jobs: Sequence[BatchJob], *, emit: Callable,
                      width: Optional[int] = None,
                      timers: Optional[TimerRegistry] = None):
    """Run ``jobs`` through batched ensemble passes; one
    :class:`~repro.api.RunResult` per job, in job order.

    ``width`` caps the live batch (default: all jobs in one batch); a
    queue longer than the width drains through lane refill.  ``emit``
    (an :meth:`~repro.telemetry.bus.EventBus.emit`) takes one
    ``ensemble_batch`` record per pass and a ``lane_retired`` /
    ``lane_refill`` record as lanes finish and the batch refills.
    """
    from ..api import RunResult
    from ..ensemble.driver import EnsembleHydro
    from ..metrics.health import dump_path
    from ..metrics.probe import DiagnosticsProbe

    jobs = list(jobs)
    n = len(jobs)
    timers = timers if timers is not None else TimerRegistry()
    width = n if width is None else width

    def make_lane(pos: int):
        job = jobs[pos]
        # The coalescer already built one setup per bucket to read its
        # boundary driver; the job it came from runs on it.
        setup = job.metadata.pop("setup", None) or job.config.build_setup()
        if job.override:
            setup.controls = \
                setup.controls.with_(**job.override).validated()
        every = job.config.resolved_metrics_every()
        probe = None
        if every > 0:
            snapshot_path = None
            if job.config.snapshot_dir:
                snapshot_path = dump_path(f"lane{job.index}",
                                          job.config.snapshot_dir)
            probe = DiagnosticsProbe(
                every=every, sink_path=job.config.metrics, record=True,
                snapshot_path=snapshot_path)
        return setup, probe

    pending = deque(range(n))
    #: job position -> its setup, and its lane once it has retired
    setups: Dict[int, Any] = {}
    done: Dict[int, Any] = {}
    #: the lanes still active in the batch just abandoned — carried
    #: into the next one as they are — and each one's job position
    carried: List[Any] = []
    batch_pos: List[int] = []
    start = _time.perf_counter()
    while pending or carried:
        take = min(max(width - len(carried), 0), len(pending))
        fresh = [pending.popleft() for _ in range(take)]
        probes = []
        for pos in fresh:
            setups[pos], probe = make_lane(pos)
            probes.append(probe)
        emit("ensemble_batch",
             jobs=[jobs[pos].index for pos in batch_pos + fresh],
             carried=[jobs[pos].index for pos in batch_pos],
             fresh=[jobs[pos].index for pos in fresh],
             width=len(batch_pos) + len(fresh), queued=len(pending))
        eh = EnsembleHydro(
            [setups[pos] for pos in fresh], probes=probes, timers=timers,
            max_steps=[jobs[pos].config.max_steps for pos in fresh],
            carried=carried,
        )
        eh.begin()
        batch_pos += fresh
        while eh.order:
            try:
                retired = eh.advance()
            except BookLeafError as exc:
                # The driver names the failing lane of *this* batch;
                # after a refill that is not the job's index.
                lane = getattr(exc, "lane", None)
                if lane is not None:
                    exc.job = jobs[batch_pos[lane]].index
                    exc.args = (f"job {exc.job}, {exc}",)
                raise
            for lane in retired:
                done[batch_pos[lane]] = eh.lanes[lane]
                emit("lane_retired", job=jobs[batch_pos[lane]].index,
                     nstep=int(eh.lanes[lane].nstep))
            if retired and eh.order and pending:
                # Refill: rebuild at full width around the lanes still
                # in flight.
                emit("lane_refill",
                     carried=[jobs[batch_pos[lane]].index
                              for lane in eh.order],
                     queued=len(pending))
                break
        batch_pos = [batch_pos[lane] for lane in eh.order]
        carried = eh.active
    wall = _time.perf_counter() - start

    results = []
    for pos, job in enumerate(jobs):
        hydro = done[pos]
        results.append(RunResult(
            config=job.config,
            setup=setups[pos],
            backend="ensemble",
            nranks=1,
            nstep=hydro.nstep,
            time=hydro.time,
            wall_seconds=wall,
            state=hydro.state,
            timers=timers,
            spans=[],
            comm_per_rank=[],
            step_rows=hydro.step_rows,
            comm_summary=None,
            metrics_rows=(hydro.probe.rows if hydro.probe is not None
                          else None),
            driver=hydro,
            lane=job.index,
            cache_hit=False,
        ))
    return results
