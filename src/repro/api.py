"""The supported embedding surface: submit configs, collect results.

Every way the mini-app executes — one serial run, a thread- or
process-parallel run, a batched same-mesh ensemble, or a cached
many-run sweep — goes through one submission surface::

    from repro.api import RunConfig, submit, run

    handle = submit([RunConfig(problem="noh", nx=64),
                     RunConfig(problem="sod", nx=64)])
    for result in handle.results():
        print(result.lane, result.cache_hit, result.nstep)

:func:`run` is a thin wrapper over a single-job fleet, so every path
shares config resolution and result assembly; whether jobs batch onto
the same-mesh ensemble path is the fleet's decision.
:class:`RunConfig` is a frozen dataclass (construct it from argparse,
a TOML table, a test fixture — anything; derive variants with
:meth:`RunConfig.replace`) whose
:meth:`RunConfig.canonical_key` content-addresses the fleet's result
cache.  :class:`RunResult` carries the gathered final state plus every
telemetry stream the run produced (merged kernel timers, trace spans,
per-rank communication counters, the step rows, the diagnostics rows)
with deterministic rank-order merge rules — the one record of the run
— and :meth:`RunResult.report` (the JSON run report) and
:func:`repro.metrics.prometheus.run_samples` (the Prometheus
exposition) are views of it — a pooled job's or a cache hit's as much
as a live run's, since the result cache stores these fields.  The CLI
(:mod:`repro.cli`) is a thin adapter onto this module; see
docs/PARALLEL.md for the backend matrix and docs/FLEET.md for the
fleet scheduler.

The pre-redesign embedding keywords (``ranks=``, ``method=``) have
completed their deprecation cycle and now raise
:class:`~repro.utils.errors.DeprecatedOptionError`.
"""

from __future__ import annotations

import hashlib
import time as _time
from dataclasses import dataclass, field, fields, replace as _dc_replace
from typing import Any, Dict, List, Optional, Sequence

from .core.state import HydroState
from .fleet.cache import canonical_hash
from .fleet.engine import submit as _fleet_submit
from .parallel.distributed import DistributedHydro
from .parallel.interface import comm_sum
from .problems import (
    describe_problem,
    load_problem,
    problem_names,
    setup_from_deck,
)
from .problems.base import ProblemSetup
from .utils.errors import BookLeafError, DeprecatedOptionError
from .utils.timers import TimerRegistry
from .version import __version__ as _CODE_VERSION

#: removed legacy keyword → RunConfig field (now a structured error)
_LEGACY_ALIASES = {"ranks": "nranks", "method": "partition"}

#: bump when the canonical-key layout changes — cache entries written
#: under an older layout must miss, never alias.  The key layout only:
#: an entry whose diagnostics rows carry another schema version is
#: refused by ``ResultCache.load`` itself and re-run
CANONICAL_KEY_VERSION = 4


@dataclass(frozen=True)
class RunConfig:
    """Everything that defines one mini-app run.

    Give either ``problem`` (a bundled problem name, with optional
    ``nx``/``ny``/``problem_kwargs`` overrides) or ``deck`` (an input
    deck path) — not both.

    ``backend="auto"`` resolves to ``serial`` for one rank and
    ``threads`` otherwise; any registered backend name
    (:func:`repro.parallel.available_backends`) may be forced
    explicitly.

    The dataclass is frozen: the fleet's result cache and
    compiled-artifact cache key off configs, so a config must mean the
    same run for its whole lifetime.  Derive variants with
    :meth:`replace`; the content hash is :meth:`canonical_key`.
    """

    problem: Optional[str] = None
    deck: Optional[str] = None
    nx: Optional[int] = None
    ny: Optional[int] = None
    time_end: Optional[float] = None
    max_steps: Optional[int] = None
    nranks: int = 1
    backend: str = "auto"
    partition: str = "rcb"
    #: ``"overlap"`` (default) runs the split-phase exchanges with
    #: interior/boundary compute overlap and the binomial-tree dt
    #: reduction; ``"packed"`` keeps the single-barrier collectives —
    #: bit-identical, retained as the equivalence baseline
    #: (docs/PARALLEL.md).  The pre-plan ``"legacy"`` protocol was
    #: removed and now raises ``DeprecatedOptionError``.
    comm_plan: str = "overlap"
    trace: bool = False
    trace_allocations: bool = False
    #: collapsed-stack flamegraph output path; setting it turns the
    #: sampling profiler on for the run (serial/threads backends —
    #: the sampler reads the in-process span stacks).  Pure
    #: observability: excluded from the canonical key.
    profile: Optional[str] = None
    log_every: int = 0
    #: NDJSON live-metrics stream path (``--metrics out.ndjson``);
    #: setting it turns the diagnostics probe on at the default cadence
    metrics: Optional[str] = None
    #: probe cadence in steps; ``None`` = default (10) when any metrics
    #: output is requested, ``0`` = force-off even with a path set
    metrics_every: Optional[int] = None
    #: flag a rank as stalled after this many seconds without a
    #: heartbeat (threads/processes backends; ``None`` = no watchdog)
    watchdog_timeout: Optional[float] = None
    #: directory for HealthError forensic snapshots (default: CWD)
    snapshot_dir: Optional[str] = None
    problem_kwargs: Dict[str, Any] = field(default_factory=dict)

    #: probe cadence used when metrics are requested without an
    #: explicit ``metrics_every``
    DEFAULT_METRICS_EVERY = 10

    def resolved_backend(self) -> str:
        if self.backend == "auto":
            return "serial" if self.nranks == 1 else "threads"
        return self.backend

    def replace(self, **changes) -> "RunConfig":
        """A copy of this config with ``changes`` applied (the frozen
        analogue of assigning to fields)."""
        unknown = set(changes) - {f.name for f in fields(self)}
        if unknown:
            raise BookLeafError(
                f"unknown RunConfig field(s): {', '.join(sorted(unknown))}"
            )
        return _dc_replace(self, **changes)

    def __hash__(self):
        rest = tuple(
            getattr(self, f.name) for f in fields(self)
            if f.name != "problem_kwargs"
        )
        return hash((rest, _hashable(self.problem_kwargs)))

    def canonical_dict(self) -> Dict[str, Any]:
        """The resolved, semantically-relevant view of this config.

        Two configs that would produce the same physics and the same
        result payload canonicalise identically: ``backend="auto"``
        resolves, a deck path is replaced by the deck *content* hash,
        and pure observability knobs (output paths, tracing, log
        cadence, the watchdog) are excluded — they never change what a
        run computes.  The layout is pinned by a golden test; bump
        ``CANONICAL_KEY_VERSION`` on any deliberate change.
        """
        deck_sha = None
        if self.deck:
            with open(self.deck, "rb") as fh:
                deck_sha = hashlib.sha256(fh.read()).hexdigest()
        return {
            "key_version": CANONICAL_KEY_VERSION,
            "code_version": _CODE_VERSION,
            "problem": self.problem,
            "deck_sha256": deck_sha,
            "nx": self.nx,
            "ny": self.ny,
            "time_end": self.time_end,
            "max_steps": self.max_steps,
            "nranks": int(self.nranks),
            "backend": self.resolved_backend(),
            "partition": self.partition,
            "comm_plan": self.comm_plan,
            "metrics_every": self.resolved_metrics_every(),
            "problem_kwargs": {
                str(k): self.problem_kwargs[k]
                for k in sorted(self.problem_kwargs)
            },
        }

    def canonical_key(self) -> str:
        """Content address of this config: the sha256 of the
        sorted-key JSON of :meth:`canonical_dict`.  Keys the fleet's
        on-disk result cache."""
        return canonical_hash(self.canonical_dict())

    def resolved_metrics_every(self) -> int:
        """The effective probe cadence (0 = no probe, hot loop
        untouched).  An explicit ``metrics_every=0`` wins over a
        ``metrics`` path; a path or cadence alone enables the rest."""
        if self.metrics_every is not None:
            return int(self.metrics_every)
        if self.metrics is not None:
            return self.DEFAULT_METRICS_EVERY
        return 0

    def build_setup(self) -> ProblemSetup:
        """Materialise the :class:`ProblemSetup` this config describes."""
        if self.problem and self.deck:
            raise BookLeafError(
                "give either RunConfig.problem or RunConfig.deck, not both"
            )
        if self.deck:
            if self.nx or self.ny or self.problem_kwargs:
                raise BookLeafError(
                    "nx/ny/problem_kwargs apply to bundled problems; "
                    "set mesh sizes in the deck file"
                )
            setup = setup_from_deck(self.deck)
            if self.time_end is not None:
                setup.controls = setup.controls.with_(time_end=self.time_end)
            return setup
        if self.problem:
            kwargs = dict(self.problem_kwargs)
            if self.nx:
                kwargs["nx"] = self.nx
            if self.ny:
                kwargs["ny"] = self.ny
            if self.time_end is not None:
                kwargs["time_end"] = self.time_end
            return load_problem(self.problem, **kwargs)
        raise BookLeafError(
            "nothing to run: set RunConfig.problem or RunConfig.deck"
        )


def _hashable(value: Any) -> Any:
    """A stand-in for a ``problem_kwargs`` value that hashes as ``==``
    compares: a dict by its items, a list or tuple by its entries,
    anything else unhashable by its ``repr``.  Numbers keep their own
    hashes, which agree across ``int``, ``float`` and numpy scalars of
    one value (``np.float32(1.0)``, ``1.0`` and ``1`` hash alike)."""
    if isinstance(value, dict):
        return frozenset((k, _hashable(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_hashable(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


@dataclass
class RunResult:
    """What one run produced: the physics and all its telemetry."""

    config: RunConfig
    setup: ProblemSetup
    backend: str
    nranks: int
    nstep: int
    time: float
    wall_seconds: float
    state: HydroState
    timers: TimerRegistry
    spans: List[Any]
    comm_per_rank: List[dict]
    #: one row per step (``Hydro.step_rows``)
    step_rows: List[dict]
    comm_summary: Optional[dict]
    #: the live-metrics sample records (None when metrics were off)
    metrics_rows: Optional[List[dict]] = None
    driver: Any = None
    #: scheduling provenance — which queue position (ensemble lane /
    #: sweep slot) produced this result; None for a direct single run
    lane: Optional[int] = None
    #: True when the fleet served this result from its content-addressed
    #: cache instead of executing the job
    cache_hit: bool = False

    @property
    def comm_total(self) -> Optional[dict]:
        """Whole-run traffic totals (the sum of ``comm_per_rank``);
        None for a one-rank run."""
        return comm_sum(self.comm_per_rank) if self.nranks > 1 else None

    def report(self) -> dict:
        """The schema-versioned JSON run report for this run
        (identical shape to ``bookleaf run --report``), rendered from
        the result's own fields — live, pooled, lane or cache hit."""
        from .telemetry.report import build_report

        return build_report(
            self.setup.describe(), self.timers,
            steps=self.nstep, time_reached=self.time,
            wall_seconds=self.wall_seconds, ranks=self.nranks,
            partition=self.config.partition,
            comm_total=self.comm_total,
            comm_per_rank=self.comm_per_rank,
            step_rows=self.step_rows,
            diagnostics=(self.metrics_rows[-1]
                         if self.metrics_rows else None),
        )

    def diagnostics(self) -> dict:
        """Conservation scalars of the gathered final state."""
        return {
            "mass": self.state.total_mass(),
            "total_energy": self.state.total_energy(),
            "rho_max": float(self.state.rho.max()),
        }


def _config_from_kwargs(kwargs: Dict[str, Any]) -> RunConfig:
    for old, new in _LEGACY_ALIASES.items():
        if old in kwargs:
            raise DeprecatedOptionError(f"{old}=", f"{new}=")
    valid = {f.name for f in fields(RunConfig)}
    unknown = set(kwargs) - valid
    if unknown:
        raise BookLeafError(
            f"unknown run option(s): {', '.join(sorted(unknown))}"
        )
    return RunConfig(**kwargs)


def _execute_run(config: RunConfig, *,
                 observers: Optional[Sequence] = None,
                 artifacts: Any = None,
                 on_prepared: Any = None) -> RunResult:
    """Execute one config in-process and assemble its RunResult.

    The single execution body behind every submission path.  ``artifacts``
    is an optional :class:`repro.fleet.artifacts.ArtifactCache` the
    driver may pull pre-compiled partitions/CommPlans from;
    ``on_prepared(driver, max_steps)`` is the fleet's
    checkpoint-restore hook — called after the driver is built but
    before stepping, it may overlay a saved state and return an
    adjusted remaining step budget (or ``None`` to keep ``max_steps``).
    """
    setup = config.build_setup()
    backend = config.resolved_backend()
    # The sampling profiler attributes wall time to the open-span
    # stack, so profiling implies tracing for the run's duration.
    trace = config.trace or bool(config.profile)
    driver = DistributedHydro(
        setup, config.nranks, method=config.partition,
        trace=trace, backend=backend,
        log_every=config.log_every,
        trace_allocations=config.trace_allocations,
        metrics_path=config.metrics,
        metrics_every=config.resolved_metrics_every(),
        watchdog_timeout=config.watchdog_timeout,
        snapshot_dir=config.snapshot_dir,
        comm_plan=config.comm_plan,
        artifacts=artifacts,
    )
    if observers:
        if not driver.hydros:
            raise BookLeafError(
                f"the {backend!r} backend runs ranks out-of-process; "
                "in-process observers are not supported — every "
                "result carries its step rows (RunResult.step_rows)"
            )
        driver.hydros[0].observers.extend(observers)
    max_steps = config.max_steps
    if on_prepared is not None:
        adjusted = on_prepared(driver, max_steps)
        if adjusted is not None:
            max_steps = adjusted
    profiler = None
    if config.profile:
        if driver.hydros:
            from .telemetry.sampling import SamplingProfiler

            profiler = SamplingProfiler([h.timers for h in driver.hydros])
        else:
            import warnings

            warnings.warn(
                f"profiling needs in-process span stacks; the "
                f"{backend!r} backend runs ranks out-of-process — "
                f"skipping the sampler for this run"
            )
    start = _time.perf_counter()
    if profiler is not None:
        profiler.start()
    try:
        driver.run(max_steps=max_steps)
    finally:
        if profiler is not None:
            profiler.stop()
    wall = _time.perf_counter() - start
    if profiler is not None:
        from .telemetry.sampling import write_collapsed

        write_collapsed(profiler.folded(), config.profile)
    return RunResult(
        config=config,
        setup=setup,
        backend=backend,
        nranks=config.nranks,
        nstep=driver.nstep,
        time=driver.time,
        wall_seconds=wall,
        state=driver.gather(),
        timers=driver.merged_timers(),
        spans=driver.merged_spans(),
        comm_per_rank=driver.per_rank_comm(),
        step_rows=driver.result.step_rows,
        comm_summary=driver.comm_summary() if config.nranks > 1 else None,
        metrics_rows=driver.result.metrics_rows,
        driver=driver,
    )


def submit(configs: Sequence[RunConfig], *,
           control_overrides: Optional[Sequence] = None,
           observers: Optional[Sequence] = None,
           **options) -> "Any":
    """Submit a batch of configs to the fleet; returns a
    :class:`repro.fleet.FleetHandle` whose :meth:`results` yields one
    :class:`RunResult` per config, in submission order.

    This is the one submission surface — :func:`run` is a thin wrapper
    over it.  ``control_overrides`` gives one dict of
    :class:`HydroControls` field overrides (or None) per config; a job
    carrying one always runs as a lane of a batched pass.  ``options``
    are :class:`repro.fleet.FleetOptions` fields: ``workers``
    (process-pool size; 0 executes inline), ``cache_dir``
    (content-addressed result cache),
    ``checkpoint_dir``/``checkpoint_every`` (resumable jobs),
    ``ensemble`` (``"auto"`` coalesces compatible same-mesh jobs into
    batched passes, ``"off"`` disables).  See docs/FLEET.md.
    """
    return _fleet_submit(configs, control_overrides=control_overrides,
                         observers=observers, **options)


def run(config: Optional[RunConfig] = None, *,
        observers: Optional[Sequence] = None,
        **kwargs) -> RunResult:
    """Run the mini-app described by ``config`` and return the result.

    Keyword form ``run(problem="sod", nranks=2, ...)`` builds the
    :class:`RunConfig` for you.  The pre-redesign keywords ``ranks``
    and ``method`` completed their deprecation cycle and now raise
    :class:`~repro.utils.errors.DeprecatedOptionError`.

    ``observers`` are attached to rank 0's step loop (serial and
    threads backends only — the processes backend runs its ranks in
    child processes, so in-process observers cannot see them; every
    result carries its step rows, ``RunResult.step_rows``, instead).
    """
    if config is None:
        config = _config_from_kwargs(kwargs)
    elif kwargs:
        raise BookLeafError(
            "pass either a RunConfig or keyword options, not both"
        )
    return submit([config], observers=observers,
                  ensemble="off").results()[0]


def run_ensemble(*args, **kwargs):
    """Removed: batching is the fleet's decision — submit the configs
    (with ``control_overrides`` for per-lane controls)."""
    raise DeprecatedOptionError("run_ensemble()",
                                "submit(configs, control_overrides=...)",
                                context="repro.api")


__all__ = ["RunConfig", "RunResult", "run", "submit",
           "problem_names", "describe_problem"]
