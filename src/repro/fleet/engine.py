"""The fleet engine: cached, resumable many-run scheduling behind
:func:`repro.api.submit`.

One :class:`Fleet` drives a whole sweep.  Every submitted config
becomes a :class:`~repro.fleet.batch.BatchJob`; the engine then

1. **serves repeats from the result cache** — each job is keyed by its
   config's canonical hash (:func:`repro.fleet.cache.job_key`); keys
   already in ``cache_dir`` come back as ``cache_hit=True`` results
   without executing;
2. **coalesces compatible jobs onto the same-mesh fast path** — serial
   jobs sharing a mesh spec batch into one
   :func:`~repro.fleet.batch.run_ensemble_jobs` pass (vectorised
   kernels + lane refill) instead of N separate step loops; the
   coalescer is the only way onto that path, and a job carrying
   control overrides always takes it;
3. **runs the rest on a crash-tolerant process pool**
   (:class:`~repro.fleet.worker.WorkerPool`) or inline when
   ``workers=0`` — with periodic checkpoints so a killed job resumes
   bit-identically instead of restarting;
4. **merges the telemetry**: one NDJSON stream / Prometheus export
   across all jobs, plus a sweep summary document the ``bookleaf
   compare`` "fleet" kind diffs by per-job outcome digest.

Every scheduling fact is emitted once, on the sweep's
:class:`~repro.telemetry.bus.EventBus`, whose stream is the sweep's
only record.  ``handle.schedule_log`` is a view of it (the stream
without its lifecycle-only records), so tests (and curious users) can
assert how work was routed.

The sweep-scope observability plane reads the same stream
(docs/OBSERVABILITY.md, "Sweep-scope observability"):

* the bus streams it live (``events_path`` NDJSON + in-process
  ``event_listeners`` — the ``fleet --watch`` renderer is one);
* ``trace_path`` forces per-job tracing and merges every job's span
  shard into ONE Perfetto-loadable sweep trace
  (:class:`~repro.telemetry.sweep_trace.SweepTraceBuilder`) — worker
  process rows, per-job thread rows, cache-hit/checkpoint instants and
  kill → resume flow events, placed by the folded stream
  (:func:`~repro.telemetry.live.fold_jobs`, which the
  ``dashboard_path`` timeline reads too);
* ``profile_dir`` attaches the sampling profiler to every job and
  aggregates the per-job collapsed stacks into one sweep flamegraph;
* :func:`summary` flags cross-job outliers
  (:mod:`repro.metrics.anomaly`) for ``compare --gate-outliers``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time as _time
import warnings
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..telemetry.bus import EventBus
from ..utils.errors import (BookLeafError, EnsembleDowngradeWarning,
                            FleetError, SnapshotError)
from .artifacts import ArtifactCache
from .batch import BatchJob, make_jobs, run_ensemble_jobs
from .cache import ResultCache, job_key, state_digest
from .checkpoint import CheckpointWriter, restore_into

#: fleet summary document layout version
FLEET_SCHEMA_VERSION = 2


@dataclass
class FleetOptions:
    """Everything :func:`repro.api.submit` accepts beyond the configs."""

    #: process-pool width; 0 executes jobs inline in this process
    workers: int = 0
    #: content-addressed result cache root (None disables caching)
    cache_dir: Optional[str] = None
    #: checkpoint root for resumable serial jobs (None disables)
    checkpoint_dir: Optional[str] = None
    #: steps between checkpoints
    checkpoint_every: int = 20
    #: same-mesh fast path policy: "auto" coalesces compatible jobs,
    #: "off" forces per-job execution
    ensemble: str = "auto"
    #: live-lane cap for batched passes (None = all lanes in one batch;
    #: a finite width drains longer queues through lane refill)
    batch_width: Optional[int] = None
    #: total tries per job before the fleet gives up on a crasher
    max_attempts: int = 3
    #: chaos hook: ``{job_index: step}`` SIGKILLs that job's worker at
    #: the given step, first attempt only (needs ``workers > 0``)
    fault_steps: Optional[Dict[int, int]] = None
    #: chaos hook: ``{job_index: step}`` wedges (sleeps forever) that
    #: job's worker at the given step, first attempt only — the
    #: failure mode only the heartbeat watchdog detects (needs
    #: ``workers > 0`` and ``heartbeat_timeout``)
    stall_steps: Optional[Dict[int, int]] = None
    #: merged NDJSON stream of every job's metrics rows
    metrics_path: Optional[str] = None
    #: merged Prometheus textfile export
    prom_path: Optional[str] = None
    #: NDJSON sink for the live lifecycle event stream
    events_path: Optional[str] = None
    #: in-process live-event listeners (``fleet --watch`` attaches its
    #: renderer here; tests attach plain callables)
    event_listeners: Optional[Sequence[Callable]] = None
    #: merged sweep-level Chrome/Perfetto trace output; setting it
    #: forces per-job tracing (span shards ship back through the spool)
    trace_path: Optional[str] = None
    #: self-contained HTML sweep dashboard, written at end of run
    dashboard_path: Optional[str] = None
    #: per-job collapsed-stack flamegraph directory; setting it turns
    #: the sampling profiler on for every job and writes the aggregate
    #: ``sweep.folded`` alongside the per-job files
    profile_dir: Optional[str] = None
    #: SIGKILL a pool worker whose heartbeat goes silent for this many
    #: seconds (the job retries); None disables stall monitoring
    heartbeat_timeout: Optional[float] = None
    #: steps between ``job_progress`` events (when the event plane is
    #: active: ``events_path`` or ``event_listeners`` set)
    progress_every: int = 10


def _parse_options(options: dict) -> FleetOptions:
    valid = {f.name for f in fields(FleetOptions)}
    unknown = set(options) - valid
    if unknown:
        raise BookLeafError(
            f"unknown fleet option(s): {', '.join(sorted(unknown))}"
        )
    opts = FleetOptions(**options)
    if opts.ensemble not in ("auto", "off"):
        raise BookLeafError(
            f"ensemble must be 'auto' or 'off', not {opts.ensemble!r}"
        )
    if opts.workers < 0:
        raise BookLeafError("workers must be >= 0")
    if opts.fault_steps and opts.workers < 1:
        raise FleetError(
            "fault injection kills worker processes; it needs "
            "workers >= 1 (an inline fault would kill the scheduler)"
        )
    if opts.stall_steps:
        if opts.workers < 1:
            raise FleetError(
                "stall injection wedges worker processes; it needs "
                "workers >= 1"
            )
        if not opts.heartbeat_timeout:
            raise FleetError(
                "stall injection without heartbeat_timeout would hang "
                "the sweep forever — set a timeout"
            )
    if opts.heartbeat_timeout is not None and opts.heartbeat_timeout <= 0:
        raise BookLeafError("heartbeat_timeout must be > 0 seconds")
    if opts.progress_every < 1:
        raise BookLeafError("progress_every must be >= 1")
    if opts.checkpoint_every < 1:
        raise BookLeafError("checkpoint_every must be >= 1")
    if opts.batch_width is not None and opts.batch_width < 1:
        raise BookLeafError("batch_width must be >= 1")
    if opts.max_attempts < 1:
        raise BookLeafError("max_attempts must be >= 1")
    return opts


def _unbatchable(job: BatchJob, reason: str) -> BookLeafError:
    return BookLeafError(
        f"fleet job {job.index} carries control overrides, which only "
        f"the batched fast path applies, but cannot batch: {reason!r} "
        "(see docs/FLEET.md, 'Fast-path eligibility')"
    )


def run_job(config, key: str, index: int, *, emit: Callable,
            checkpoint_dir: Optional[str] = None,
            checkpoint_every: int = 20,
            progress_every: Optional[int] = None,
            observers: Sequence = (), injectors: Sequence = (),
            artifacts: Any = None):
    """The one job body — the inline engine and the pool worker both
    call it: ``config`` through :func:`repro.api._execute_run` with the
    fleet's observers around it.

    ``emit`` takes the job's records (progress, checkpoint writes and
    resumes) for the sweep's event stream.  ``observers`` attach first,
    ``injectors`` last — after the checkpoint writer, so the write for
    step N precedes anything that kills the process at step N.  A
    serial job with a ``checkpoint_dir`` resumes from
    ``<key>.ckpt`` when there is one; an unreadable one counts as
    absent (``checkpoint_unreadable``, the job runs from step 0), one
    under another job key raises :class:`FleetError`.
    """
    from ..api import _execute_run

    observers = list(observers)
    backend = config.resolved_backend()
    if progress_every and backend in ("serial", "threads"):
        from ..telemetry.live import ProgressReporter

        observers.append(ProgressReporter(
            emit, index, every=progress_every,
            max_steps=config.max_steps))
    on_prepared = None
    if checkpoint_dir and config.nranks == 1 and backend == "serial":
        path = os.path.join(checkpoint_dir, f"{key}.ckpt")
        observers.append(CheckpointWriter(
            path, checkpoint_every, key=key,
            on_write=lambda step: emit("job_checkpointed", job=index,
                                       step=step)))
        if os.path.exists(path):
            def on_prepared(driver, max_steps):
                try:
                    budget = restore_into(driver, path, key=key,
                                          max_steps=max_steps)
                except SnapshotError as exc:
                    emit("checkpoint_unreadable", job=index, path=path,
                         reason=str(exc))
                    return None
                emit("checkpoint_resume", job=index, path=path)
                return budget
    observers.extend(injectors)
    return _execute_run(config, observers=observers or None,
                        artifacts=artifacts, on_prepared=on_prepared)


def submit(configs: Sequence, *,
           control_overrides: Optional[Sequence] = None,
           observers: Optional[Sequence] = None,
           **options) -> "FleetHandle":
    """Build a :class:`Fleet` over ``configs`` and hand back its
    :class:`FleetHandle`.  Execution is lazy — the sweep runs on the
    first :meth:`FleetHandle.results` call and is memoised."""
    opts = _parse_options(options)
    jobs = make_jobs(configs, control_overrides)
    if opts.ensemble == "off" and any(job.override for job in jobs):
        raise BookLeafError(
            "control_overrides ride the ensemble path; they cannot be "
            "applied with ensemble='off'"
        )
    return FleetHandle(Fleet(jobs, opts, observers=observers))


class FleetHandle:
    """The caller's view of a submitted sweep."""

    def __init__(self, fleet: "Fleet"):
        self._fleet = fleet

    def results(self) -> List[Any]:
        """One :class:`~repro.api.RunResult` per config, in submission
        order (executes the sweep on first call)."""
        return self._fleet.results()

    def summary(self) -> dict:
        """The sweep-level summary document (per-job keys, digests,
        anomaly flags, cache/scheduling counters) — the ``bookleaf
        compare`` "fleet" input."""
        return self._fleet.summary()

    @property
    def schedule_log(self) -> List[dict]:
        """Every scheduling record of the event stream, in order (the
        stream without its lifecycle-only records)."""
        from ..telemetry.live import schedule_log

        return schedule_log(self.events)

    @property
    def events(self) -> List[dict]:
        """The sweep's live lifecycle event records, in emission order."""
        return self._fleet.bus.events if self._fleet.bus else []

    def __len__(self) -> int:
        return len(self._fleet.jobs)


class Fleet:
    """The scheduler proper (use :func:`submit`; this is the engine)."""

    def __init__(self, jobs: List[BatchJob], options: FleetOptions,
                 observers: Optional[Sequence] = None):
        self.jobs = jobs
        self.options = options
        self.observers = list(observers) if observers else None
        self.artifacts = ArtifactCache()
        self.cache: Optional[ResultCache] = None
        self.bus: Any = None
        self._results: Optional[List[Any]] = None
        self._wall: Optional[float] = None
        self._trace_forced = False
        self._profile_doc: Optional[dict] = None

    # ------------------------------------------------------------------
    def results(self) -> List[Any]:
        if self._results is None:
            start = _time.perf_counter()
            try:
                self._results = self._execute()
            finally:
                if self.bus is not None:
                    self.bus.close()
            self._wall = _time.perf_counter() - start
            self._finalize_outputs()
        return self._results

    # ------------------------------------------------------------------
    def _key(self, job: BatchJob) -> str:
        if "key" not in job.metadata:
            job.metadata["key"] = job_key(job.config, job.override)
        return job.metadata["key"]

    @property
    def _live(self) -> bool:
        """True when someone is watching: progress observers attach."""
        return bool(self.options.events_path
                    or self.options.event_listeners)

    # ------------------------------------------------------------------
    def _execute(self) -> List[Any]:
        opts = self.options
        n = len(self.jobs)
        results: List[Any] = [None] * n
        self.bus = EventBus(path=opts.events_path,
                            listeners=opts.event_listeners)
        self.bus.emit("sweep_started", jobs=n, workers=opts.workers)
        self._prepare_observability()
        need_keys = bool(opts.cache_dir) or opts.workers > 0
        if opts.cache_dir:
            self.cache = ResultCache(opts.cache_dir)
        if need_keys:
            for job in self.jobs:
                self._key(job)
        for job in self.jobs:
            self.bus.emit("job_queued", job=job.index)

        # -- stage 1: serve repeats from the result cache ---------------
        remaining: List[BatchJob] = []
        for job in self.jobs:
            if (self.cache is not None and not self.observers
                    and self.cache.has(self._key(job))):
                try:
                    results[job.index] = self.cache.load(
                        self._key(job), job.config,
                        override=job.override, hit=True)
                except SnapshotError as exc:
                    # evicted by the cache; a miss from here on
                    self.bus.emit("cache_corrupt", job=job.index,
                                  key=self._key(job), reason=str(exc))
                else:
                    self.bus.emit("cache_hit", job=job.index,
                                  key=self._key(job))
                    continue
            if self.cache is not None:
                self.cache.misses += 1
            remaining.append(job)

        # -- stage 2: route the rest ------------------------------------
        if remaining and opts.ensemble == "auto":
            groups, remaining = self._coalesce(remaining)
            for group in groups:
                self._run_batched(group, results)

        if remaining:
            if opts.workers > 0:
                self._run_pool(remaining, results)
            else:
                for job in remaining:
                    results[job.index] = self._run_inline(job)

        # -- stage 3: merged telemetry ----------------------------------
        self._merge_outputs(results)
        self.bus.emit("sweep_done", jobs=n,
                      wall_seconds=round(self.bus.elapsed, 6))
        return results

    # ------------------------------------------------------------------
    def _prepare_observability(self) -> None:
        """Force per-job telemetry the sweep-level outputs need."""
        opts = self.options
        if opts.trace_path:
            forced = [j.index for j in self.jobs if not j.config.trace]
            for job in self.jobs:
                if not job.config.trace:
                    job.config = job.config.replace(trace=True)
            self._trace_forced = True
            self.bus.emit("trace_forced", jobs=forced)
        if opts.profile_dir:
            os.makedirs(opts.profile_dir, exist_ok=True)
            for job in self.jobs:
                if not job.config.profile:
                    job.config = job.config.replace(
                        profile=os.path.join(opts.profile_dir,
                                             f"job{job.index}.folded"))

    # ------------------------------------------------------------------
    def _ineligible(self, job: BatchJob) -> Optional[str]:
        """The fast path's one eligibility table: why ``job`` cannot
        ride a batched pass, or None.  (A driven boundary is the one
        further reason; it needs a built setup, so :meth:`_coalesce`
        checks it per bucket.)"""
        c = job.config
        if self.observers:
            return "observers"
        if c.nranks != 1:
            return "nranks"
        if c.resolved_backend() != "serial":
            return "backend"
        for reason in ("trace", "trace_allocations", "profile"):
            if getattr(c, reason):
                return reason
        return None

    def _coalesce(self, jobs: List[BatchJob]):
        """Partition jobs into same-mesh batchable groups and per-job
        singles — the only way onto the batched path.

        A bucket batches when it holds two or more jobs, or any job
        with control overrides (only the batched path applies them, so
        such a job batches even alone, and one that fails the
        eligibility table is a :class:`BookLeafError` naming the job
        and the reason).  A job carrying per-job telemetry (tracing,
        allocation tracking, profiling) is otherwise never batched —
        the vectorised kernels do not record per-lane spans — and
        the downgrade is announced: a ``fast_path_downgrade`` record
        plus an :class:`EnsembleDowngradeWarning` naming the reason (the
        warning is suppressed when the engine itself forced tracing for
        a sweep-level ``trace_path``; docs/FLEET.md, 'Fast-path
        eligibility').  A bucket with a driven boundary records one
        ``fast_path_downgrade`` per job, reason ``bc_driver``.
        """
        buckets: Dict[tuple, List[BatchJob]] = {}
        singles: List[BatchJob] = []
        for job in jobs:
            reason = self._ineligible(job)
            if reason is not None:
                if job.override:
                    raise _unbatchable(job, reason)
                if reason in ("trace", "trace_allocations", "profile"):
                    self.bus.emit("fast_path_downgrade", job=job.index,
                                  reason=reason)
                    if not self._trace_forced:
                        warnings.warn(
                            f"fleet job {job.index} requests "
                            f"{reason!r} and leaves the same-mesh "
                            f"batched fast path (per-job telemetry "
                            f"does not thread through the vectorised "
                            f"kernels; see docs/FLEET.md)",
                            EnsembleDowngradeWarning,
                        )
                singles.append(job)
                continue
            c = job.config
            deck = os.path.realpath(c.deck) if c.deck else None
            kwargs_key = tuple(sorted(
                (k, repr(v)) for k, v in c.problem_kwargs.items()))
            bucket = (c.problem, deck, c.nx, c.ny, kwargs_key)
            buckets.setdefault(bucket, []).append(job)
        groups: List[List[BatchJob]] = []
        for bucket, members in buckets.items():
            overridden = [j for j in members if j.override]
            if len(members) < 2 and not overridden:
                singles.extend(members)
                continue
            # Driven boundaries (e.g. Kidder's piston) advance per-lane
            # wall-clock state the batched kernels don't model; probe
            # one setup per bucket and keep such jobs on the per-job
            # path.  An accepted bucket's probed setup is its first
            # job's own, so that lane runs on it instead of rebuilding.
            probe_setup = members[0].config.build_setup()
            if getattr(probe_setup.initial.bc, "driver", None) is not None:
                if overridden:
                    raise _unbatchable(overridden[0], "bc_driver")
                for job in members:
                    self.bus.emit("fast_path_downgrade", job=job.index,
                                  reason="bc_driver")
                singles.extend(members)
                continue
            members[0].metadata["setup"] = probe_setup
            groups.append(members)
        singles.sort(key=lambda j: j.index)
        return groups, singles

    # ------------------------------------------------------------------
    def _run_batched(self, group: List[BatchJob],
                     results: List[Any]) -> None:
        group_results = run_ensemble_jobs(
            group, width=self.options.batch_width, emit=self.bus.emit)
        for job, result in zip(group, group_results):
            results[job.index] = result
            self._finish(job, result)

    # ------------------------------------------------------------------
    def _run_inline(self, job: BatchJob):
        opts = self.options
        self.bus.emit("job_started", job=job.index, attempt=1, worker=None)
        result = run_job(
            job.config, self._key(job) if opts.checkpoint_dir else "",
            job.index, emit=self.bus.emit,
            checkpoint_dir=opts.checkpoint_dir,
            checkpoint_every=opts.checkpoint_every,
            progress_every=opts.progress_every if self._live else None,
            observers=self.observers or (), artifacts=self.artifacts)
        self._finish(job, result)
        return result

    def _finish(self, job: BatchJob, result) -> None:
        """A job that ran in this process is done: record and cache."""
        self.bus.emit("job_done", job=job.index, nstep=int(result.nstep),
                      wall_seconds=round(result.wall_seconds, 6))
        if self.cache is not None:
            self.cache.store(self._key(job), result)

    # ------------------------------------------------------------------
    def _run_pool(self, jobs: List[BatchJob],
                  results: List[Any]) -> None:
        from .worker import WorkerPool

        opts = self.options
        if self.observers:
            raise BookLeafError(
                "observers need inline execution (workers=0); worker "
                "processes cannot call back into this process"
            )
        spool = self.cache
        tmp_root = None
        if spool is None:
            tmp_root = tempfile.mkdtemp(prefix="bookleaf-fleet-spool-")
            spool = ResultCache(tmp_root)
        if opts.checkpoint_dir:
            os.makedirs(opts.checkpoint_dir, exist_ok=True)
        try:
            done = WorkerPool(
                min(opts.workers, len(jobs)), spool.root,
                emit=self.bus.emit,
                checkpoint_dir=opts.checkpoint_dir,
                checkpoint_every=opts.checkpoint_every,
                max_attempts=opts.max_attempts,
                heartbeat_timeout=opts.heartbeat_timeout,
                progress_every=(opts.progress_every if self._live
                                else None),
            ).run(jobs, fault_steps=opts.fault_steps,
                  stall_steps=opts.stall_steps)
            for job in jobs:
                if job.index not in done:
                    raise FleetError(
                        f"fleet job {job.index} has no stored outcome"
                    )
                results[job.index] = spool.load(
                    done[job.index], job.config,
                    override=job.override, hit=False)
        finally:
            # a loaded result holds copies, never the spool's files
            if tmp_root is not None:
                shutil.rmtree(tmp_root, ignore_errors=True)

    # ------------------------------------------------------------------
    def _merge_outputs(self, results: List[Any]) -> None:
        opts = self.options
        if opts.metrics_path:
            root = os.path.dirname(os.path.abspath(opts.metrics_path))
            os.makedirs(root, exist_ok=True)
            with open(opts.metrics_path, "w", encoding="utf-8") as fh:
                for job, result in zip(self.jobs, results):
                    for rec in (result.metrics_rows or []):
                        fh.write(json.dumps(
                            {"job": job.index, **rec}) + "\n")
        if opts.prom_path:
            from ..metrics.prometheus import exposition

            samples = [
                ("fleet_jobs_total", "counter", {}, len(results)),
                ("fleet_cache_hits_total", "counter", {},
                 sum(1 for r in results if r.cache_hit)),
            ]
            for job, result in zip(self.jobs, results):
                labels = {"job": job.index, "backend": result.backend}
                samples += [
                    ("fleet_job_steps", "gauge", labels, result.nstep),
                    ("fleet_job_time", "gauge", labels, result.time),
                    ("fleet_job_wall_seconds", "gauge", labels,
                     result.wall_seconds),
                ]
                if result.metrics_rows:
                    final = result.metrics_rows[-1]
                    samples += [(f"fleet_job_{name}", "gauge", labels,
                                 final[name])
                                for name in ("mass", "total_energy",
                                             "mass_drift", "energy_drift")]
            with open(opts.prom_path, "w", encoding="utf-8") as fh:
                fh.write(exposition(samples))

    # ------------------------------------------------------------------
    def _finalize_outputs(self) -> None:
        """End-of-sweep artefacts: the merged trace, the aggregated
        profile and the dashboard (needs the memoised results)."""
        opts = self.options
        if opts.profile_dir:
            self._aggregate_profiles()
        if opts.trace_path:
            from ..telemetry.sweep_trace import write_sweep_trace

            write_sweep_trace(self.build_sweep_trace(), opts.trace_path)
        if opts.dashboard_path:
            from ..telemetry.dashboard import write_dashboard

            write_dashboard(self.summary(), self.bus.events,
                            opts.dashboard_path)

    def _aggregate_profiles(self) -> None:
        from ..telemetry.sampling import (merge_folded, read_collapsed,
                                          top_stacks, write_collapsed)

        opts = self.options
        profiles = []
        for job in self.jobs:
            path = job.config.profile
            if path and os.path.exists(path):
                profiles.append(read_collapsed(path))
        merged = merge_folded(profiles)
        sweep_path = os.path.join(opts.profile_dir, "sweep.folded")
        write_collapsed(merged, sweep_path)
        self._profile_doc = {
            "jobs_profiled": len(profiles),
            "samples": sum(merged.values()),
            "path": sweep_path,
            "top_stacks": [
                {"stack": stack, "samples": count,
                 "fraction": round(frac, 4)}
                for stack, count, frac in top_stacks(merged, 5)
            ],
        }

    # ------------------------------------------------------------------
    def build_sweep_trace(self):
        """Assemble the merged sweep trace from the recorded span
        shards and the folded event stream: a job's row is the worker
        of its completing attempt (the scheduler's when it ran inline
        or was served from the cache), and each ``worker_died`` draws
        a flow to the job's next ``job_started``."""
        from ..telemetry.live import fold_jobs
        from ..telemetry.sweep_trace import SweepTraceBuilder

        results = self.results()
        builder = SweepTraceBuilder(epoch_ns=self.bus.epoch_ns)
        folded = fold_jobs(self.bus.events)

        def ns(seconds: float) -> int:
            return max(0, int(seconds * 1e9))

        def pid(attempt: dict) -> int:
            return 0 if attempt["worker"] is None else attempt["worker"] + 1

        for job, result in zip(self.jobs, results):
            fold = folded[job.index]
            attempts = fold["attempts"]
            ran = next((a for a in reversed(attempts)
                        if a["outcome"] == "done"),
                       {"worker": None, "start": 0.0})
            label = (job.config.problem
                     or os.path.basename(job.config.deck or "")
                     or "")
            if job.config.nx:
                label += f" {job.config.nx}x{job.config.ny or job.config.nx}"
            start = (ran["start"] if fold["cache_hit"] is None
                     else fold["cache_hit"])
            builder.add_job(job.index, pid=pid(ran), start_ns=ns(start),
                            spans=(result.spans
                                   if not result.cache_hit else []),
                            label=label.strip())
            if fold["cache_hit"] is not None:
                builder.add_instant(job.index, "cache_hit", ns(start),
                                    args={"key": self._key(job)[:12]})
            for t, step in fold["checkpoints"]:
                builder.add_instant(job.index, "checkpoint", ns(t),
                                    args={"step": step})
            for died, retry in zip(attempts, attempts[1:]):
                if died["outcome"] == "died":
                    builder.add_flow(job.index, from_pid=pid(died),
                                     from_ns=ns(died["end"]),
                                     to_pid=pid(retry),
                                     to_ns=ns(retry["start"]))
        return builder.build()

    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Sweep summary: one entry per job with its canonical key,
        outcome digest and performance metrics, plus cross-job anomaly
        flags and scheduling/cache counters.  The "fleet" document
        kind of ``bookleaf compare``."""
        from ..metrics.anomaly import detect_anomalies
        from ..telemetry.live import schedule_log

        results = self.results()
        job_docs = []
        for job, result in zip(self.jobs, results):
            config = job.config
            wall = float(result.wall_seconds)
            job_docs.append({
                "index": job.index,
                "key": self._key(job),
                "cache_hit": bool(result.cache_hit),
                "lane": result.lane,
                "backend": result.backend,
                "problem": config.problem,
                "deck": (os.path.basename(config.deck)
                         if config.deck else None),
                "nx": config.nx,
                "ny": config.ny,
                "nranks": int(config.nranks),
                "nstep": int(result.nstep),
                "time": float(result.time),
                "wall_seconds": wall,
                "steps_per_sec": (round(result.nstep / wall, 3)
                                  if wall > 0 else None),
                "kernel_seconds": round(float(result.timers.total()), 6),
                "comm_bytes": (result.comm_total or {}).get("bytes"),
                "digest": state_digest(result.state, result.nstep,
                                       result.time,
                                       result.metrics_rows),
            })
        anomalies = detect_anomalies(job_docs)
        counts = {
            "jobs": len(results),
            "cache_hits": sum(1 for r in results if r.cache_hit),
            "ensemble_jobs": sum(1 for r in results
                                 if r.backend == "ensemble"),
            "events": len(schedule_log(self.bus.events)),
            "anomalies": len(anomalies),
        }
        doc = {
            "fleet_sweep": 1,
            "schema_version": FLEET_SCHEMA_VERSION,
            "jobs": job_docs,
            "counts": counts,
            "anomalies": anomalies,
            "wall_seconds": self._wall,
            "cache": self.cache.stats() if self.cache else None,
            "artifacts": self.artifacts.stats(),
        }
        if self._profile_doc is not None:
            doc["profile"] = self._profile_doc
        return doc
