"""The distributed (SPMD) hydro driver — backend-agnostic.

Runs one :class:`~repro.problems.base.ProblemSetup` decomposed over N
ranks: partition the cells (RCB or the spectral METIS substitute),
build subdomains with ghost layers, restrict the global initial state
to each rank, and march every rank's *unchanged*
:class:`~repro.core.hydro.Hydro` loop with a conforming
:class:`~repro.parallel.interface.CommEndpoint` plugged into the
communication seam.

This module is the one *rank program*: what a rank is
(:meth:`DistributedHydro.build_rank`), what a finished rank hands back
(:class:`RankReport`), how the reports become the run's
:class:`~repro.parallel.interface.BackendRun`
(:meth:`DistributedHydro.assemble`, desynchronisation check included)
and how a launch that lost ranks is judged (:func:`judge_ranks`).
*Where* the ranks execute is all a backend says
(:mod:`repro.parallel.backends`): ``serial`` runs the one rank inline,
``threads`` runs them as threads of this process, ``processes`` forks
one process per rank over shared memory — the same Typhon protocol
over two transports.  Either way the result is numerically equivalent
to the serial run (identical up to floating-point summation order —
verified by the integration tests) and the two distributed backends
are bit-identical to each other, with per-rank kernel timers, trace
spans and communication statistics merged back under the same
deterministic rank-order rules.

The supported embedding surface is :func:`repro.api.run`; this class
is the engine underneath it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..core.comms import SerialComms
from ..core.hydro import Hydro
from ..core.state import HydroState
from ..mesh.boundary import BoundaryConditions
from ..problems.base import ProblemSetup
from ..utils.errors import (
    BookLeafError, CommError, DeprecatedOptionError, StalledRankWarning,
)
from ..utils.timers import TimerRegistry
from .backends import get_backend
from .halo import Subdomain, build_subdomains, local_state
from .interface import BackendRun, comm_sum
from .partition.interface import partition


@dataclass
class RankReport:
    """What a finished rank hands back, whichever backend ran it."""

    rank: int
    nstep: int
    time: float
    #: the rank's final local state — live in-process; its
    #: ``arrays()`` dict while crossing a process boundary
    state: Any
    #: the rank's kernel timers and, traced, its span stream
    timers: TimerRegistry
    #: the rank's CommStats counters (``None`` on the one serial rank)
    comm: Optional[dict]
    #: the rank's step rows (``Hydro.step_rows``)
    step_rows: List[dict]
    #: the diagnostics samples rank 0 records (``None`` unprobed)
    metrics_rows: Optional[List[dict]] = None

    def marshalled(self) -> "RankReport":
        """The form that crosses a process boundary: the halo-sized
        mailboxes cannot carry the final state, so it travels as its
        arrays (one pickle at end of run; a round-trip of float64
        arrays is exact)."""
        return replace(self, state=self.state.arrays())


def judge_ranks(failures: List[Tuple[int, BaseException]],
                stalled: Dict[int, dict], board, timeout) -> None:
    """The verdict on a launch, called by every concurrent launcher
    once its wait loop ends: returns if every rank finished cleanly.

    ``failures`` are the ``(rank, exc)`` pairs the ranks reported,
    ``stalled`` what the launcher's poll of the heartbeat ``board``
    flagged.  A stall is warned about from the calling (main) thread —
    warnings from rank threads are invisible to ``pytest.warns`` and
    user filters.  A wedge never raises (that is what a wedge is) and
    its peers only carry the :class:`~repro.utils.errors.CommError`
    cascade of the abort, so then the stall is the primary failure;
    otherwise a real error beats the cascade it caused, lowest rank
    first.
    """
    if stalled:
        from ..metrics.watchdog import stall_message

        message = stall_message(stalled, board, timeout)
        warnings.warn(message, StalledRankWarning)
        if all(isinstance(exc, CommError) for _, exc in failures):
            raise BookLeafError(f"run aborted: {message}")
    if not failures:
        return
    rank, exc = min(failures,
                    key=lambda f: (isinstance(f[1], CommError), f[0]))
    if isinstance(exc, BookLeafError):
        message = f"rank {rank} failed: {exc}"
    else:
        # Non-BookLeaf errors keep their type visible in the message —
        # the wrapper must not launder a TypeError into a hydro error.
        message = f"rank {rank} failed: [{type(exc).__name__}] {exc}"
    # ``from exc`` chains the original (or remote) traceback
    raise BookLeafError(message) from exc


class DistributedHydro:
    """Decomposed mini-app run over virtual ranks.

    Parameters
    ----------
    setup:
        The problem to run (state + materials + controls).
    nranks:
        Rank count (1 for the ``serial`` backend).
    method:
        Cell partitioner, ``"rcb"`` or ``"spectral"``.
    trace:
        Give every rank a traced
        :class:`~repro.utils.timers.TimerRegistry` (sharing one clock
        epoch so the per-rank streams line up); :meth:`merged_spans`
        then returns the deterministically merged stream.
    backend:
        Execution backend name (``serial``, ``threads`` or
        ``processes`` — see :mod:`repro.parallel.backends`).
    comm_plan:
        ``"overlap"`` (default): the kernels post a halo, compute
        their interior partition, and complete it against the
        *neighbouring* ranks' counters only (no global barrier).
        ``"packed"``: the kernels call the blocking exchanges — the
        same post and complete back to back — bit-identical to
        ``overlap`` and retained as the equivalence baseline.  One
        protocol over the same compiled
        :class:`~repro.parallel.commplan.CommPlan` layouts either
        way; the dt reduction is a binomial combining tree.  The
        pre-plan ``"legacy"`` protocol was removed; requesting it (or
        passing ``None``) raises
        :class:`~repro.utils.errors.DeprecatedOptionError`.

    For the in-process backends the ranks are built here, once — the
    per-rank ``hydros`` (and, for ``threads``, the
    shared ``context``) are live attributes that embedding code may
    inspect or attach observers to, and successive :meth:`run` legs
    continue the same ranks; the ``processes`` backend builds its ranks
    in the children and exposes only the marshalled
    :class:`BackendRun` (``self.result``).
    """

    def __init__(self, setup: ProblemSetup, nranks: int,
                 method: str = "rcb", trace: bool = False,
                 backend: str = "threads", log_every: int = 0,
                 trace_allocations: bool = False,
                 metrics_path: Optional[str] = None,
                 metrics_every: int = 0,
                 watchdog_timeout: Optional[float] = None,
                 snapshot_dir: Optional[str] = None,
                 comm_plan: str = "overlap",
                 artifacts=None):
        if nranks > 1 and setup.controls.ale_on \
                and setup.controls.ale_mode != "eulerian":
            raise BookLeafError(
                "decomposed runs support Lagrangian and Eulerian-remap "
                "modes; 'relax' needs cross-rank neighbour averaging"
            )
        self.setup = setup
        self.nranks = nranks
        self.method = method
        self.trace = trace
        self.log_every = log_every
        self.trace_allocations = trace_allocations
        #: live-metrics configuration (repro.metrics): a cadence of 0
        #: means no probe is built — the hot loop stays bit-identical
        self.metrics_path = metrics_path
        self.metrics_every = int(metrics_every or 0)
        if watchdog_timeout is not None and watchdog_timeout <= 0:
            raise BookLeafError("watchdog_timeout must be > 0 seconds")
        self.watchdog_timeout = watchdog_timeout
        self.snapshot_dir = snapshot_dir
        if comm_plan in (None, "legacy"):
            raise DeprecatedOptionError(
                "comm_plan='legacy'", "comm_plan='packed'",
                context="repro.parallel.DistributedHydro",
            )
        if comm_plan not in ("packed", "overlap"):
            raise BookLeafError(
                f"unknown comm plan {comm_plan!r} "
                "(expected 'overlap' or 'packed')"
            )
        #: exchange mode the backends hand every endpoint
        self.comm_plan: str = comm_plan
        self.global_mesh = setup.state.mesh
        self._backend = get_backend(backend)
        self.backend_name = self._backend.name
        self.result: Optional[BackendRun] = None
        #: optional :class:`repro.fleet.artifacts.ArtifactCache` — the
        #: fleet attaches one so repeated same-mesh jobs reuse the
        #: partition/subdomains/CommPlans instead of recompiling
        self.artifacts = artifacts
        # The in-process ranks, populated by prepare() from
        # build_rank() (the processes backend builds in its children):
        self.hydros: List[Hydro] = []
        self.context = None
        if self.backend_name == "serial":
            self.part = None
            self.subdomains: List[Subdomain] = []
        elif artifacts is not None:
            self.part, self.subdomains = artifacts.decomposition(
                self.global_mesh, nranks, method
            )
        else:
            self.part = partition(self.global_mesh, nranks, method)
            self.subdomains = build_subdomains(
                self.global_mesh, self.part, nranks
            )
        self._backend.prepare(self)

    # ------------------------------------------------------------------
    def compiled_plans(self):
        """This decomposition's packed-exchange CommPlans — from the
        artifact cache when one is attached, else compiled fresh.
        The plans are pure functions of (mesh topology, partition), so
        reuse across same-mesh jobs is exact."""
        from .commplan import compile_plans

        if self.artifacts is not None:
            return self.artifacts.comm_plans(
                self.global_mesh, self.nranks, self.method,
                self.subdomains,
            )
        return compile_plans(self.subdomains)

    # ------------------------------------------------------------------
    # the rank program: build, report, assemble
    # ------------------------------------------------------------------
    def build_rank(self, rank: int, transport=None,
                   epoch_ns: Optional[int] = None, board=None) -> Hydro:
        """Bring rank ``rank`` into being — the only place one is built.

        ``transport`` is the Typhon transport its endpoint runs over
        (``None``: the one serial rank, on the global state with
        ``SerialComms``), ``epoch_ns`` the clock origin all ranks'
        span streams share, ``board`` the launcher's
        :class:`~repro.metrics.watchdog.HeartbeatBoard`.  Observers are
        attached here, once, so a rank run for several legs keeps one
        heartbeat (and the rank one list of step rows).  In-process
        backends keep the rank in ``self.hydros``; a forked child lets
        go of it after its run (its memory is what the result pickle
        reuses).
        """
        setup = self.setup
        # step banners and tracemalloc are serial niceties: per-rank
        # printing would interleave and tracemalloc is process-global
        serial = transport is None
        trace_allocations = serial and self.trace_allocations
        if self.trace:
            timers = TimerRegistry.traced(
                rank, epoch_ns, trace_allocations=trace_allocations)
        else:
            timers = TimerRegistry(trace_allocations=trace_allocations)
        logger = None
        if serial:
            state, comms, cell_global = setup.state, SerialComms(), None
            if self.log_every:
                from ..utils.log import StepLogger

                logger = StepLogger(every=self.log_every)
        else:
            from .typhon import TyphonComms

            sub = self.subdomains[rank]
            state = local_state(sub, setup.state)
            comms = TyphonComms(transport, sub, timers=timers,
                                mode=self.comm_plan)
            cell_global = sub.cell_global
        hydro = Hydro(state, setup.table, setup.controls,
                      timers=timers, logger=logger, comms=comms,
                      probe=self.build_probe(rank, cell_global=cell_global))
        if board is not None:
            from ..metrics.watchdog import Heartbeat

            # one board write per completed step — always on for
            # decomposed runs; only the monitoring is opt-in
            hydro.observers.append(Heartbeat(board, rank))
        return hydro

    def report(self, hydro: Hydro) -> RankReport:
        """What the rank built here around ``hydro`` hands back."""
        rank, probe = hydro.comms.rank, hydro.probe
        stats = getattr(hydro.comms, "stats", None)
        return RankReport(
            rank=rank, nstep=hydro.nstep, time=hydro.time,
            state=hydro.state, timers=hydro.timers,
            comm=stats.as_dict() if stats is not None else None,
            step_rows=hydro.step_rows,
            metrics_rows=probe.rows if probe is not None else None,
        )

    def assemble(self, reports: List[RankReport]) -> BackendRun:
        """One :class:`BackendRun` from every rank's report, per-rank
        lists in ascending rank order (the deterministic merge rule)."""
        reports = sorted(reports, key=lambda r: r.rank)
        steps = {r.nstep for r in reports}
        times = {round(r.time, 14) for r in reports}
        if len(steps) != 1 or len(times) != 1:
            raise BookLeafError(
                f"ranks desynchronised: steps={steps} times={times}"
            )
        first = reports[0]
        return BackendRun(
            nstep=first.nstep,
            time=first.time,
            states=[r.state if isinstance(r.state, HydroState)
                    else self._unmarshal(r.rank, r.state)
                    for r in reports],
            timers=[r.timers for r in reports],
            comm_per_rank=[r.comm for r in reports if r.comm is not None],
            step_rows=first.step_rows,
            metrics_rows=first.metrics_rows,
        )

    def _unmarshal(self, rank: int, arrays: Dict[str, np.ndarray]
                   ) -> HydroState:
        """Rank ``rank``'s state from its marshalled ``arrays()``, on
        its subdomain mesh, with its restriction of the boundary
        driver."""
        sub = self.subdomains[rank]
        driver = self.setup.state.bc.driver
        return HydroState.from_arrays(
            sub.mesh, arrays,
            driver.subset(sub.node_global) if driver is not None else None)

    def run(self, max_steps: Optional[int] = None) -> int:
        """Run all ranks to completion; returns the step count."""
        try:
            reports = self._backend.execute(self, max_steps=max_steps)
        except BaseException:
            for hydro in self.hydros:
                if hydro.probe is not None:
                    hydro.probe.close()  # the failure path skips finish()
            raise
        self.result = self.assemble(reports)
        return self.result.nstep

    # ------------------------------------------------------------------
    def build_probe(self, rank: int, cell_global=None):
        """Rank ``rank``'s :class:`~repro.metrics.probe.DiagnosticsProbe`
        per the metrics config, or ``None`` when metrics are off.

        Rank 0 carries the NDJSON sink and the in-memory record (the
        sampled totals are global, identical on every rank — one writer
        is enough); the other ranks probe purely for their own sentinel
        scans and the collective participation those require.
        """
        if self.metrics_every < 1:
            return None
        from ..metrics import DiagnosticsProbe
        from ..metrics.health import dump_path

        snapshot_path = dump_path(f"rank{rank}", self.snapshot_dir)
        if rank == 0:
            return DiagnosticsProbe(
                every=self.metrics_every, sink_path=self.metrics_path,
                record=True,
                snapshot_path=snapshot_path, cell_global=cell_global,
            )
        return DiagnosticsProbe(
            every=self.metrics_every, record=False,
            snapshot_path=snapshot_path, cell_global=cell_global,
        )

    # ------------------------------------------------------------------
    # views of the finished run (of the live ranks before the first run)
    # ------------------------------------------------------------------
    def _view(self) -> BackendRun:
        if self.result is not None:
            return self.result
        return self.assemble([self.report(h) for h in self.hydros])

    @property
    def time(self) -> float:
        return self._view().time

    @property
    def nstep(self) -> int:
        return self._view().nstep

    def gather(self) -> HydroState:
        """Assemble the global state from the ranks' owned data."""
        states = self._view().states
        if self.backend_name == "serial":
            return states[0]
        mesh = self.global_mesh
        layout = HydroState.layout(mesh)
        out = {name: np.empty(*layout[name])
               for name in HydroState.field_names()}
        ncell_filled = 0
        node_filled = np.zeros(mesh.nnode, dtype=bool)
        for sub, state in zip(self.subdomains, states):
            owned_local = np.flatnonzero(sub.owned_cell_mask)
            gcells = sub.cell_global[owned_local]
            for name in HydroState.field_names("cell", "corner"):
                out[name][gcells] = getattr(state, name)[owned_local]
            ncell_filled += gcells.size
            active = sub.active_node_mask
            gnodes = sub.node_global[active]
            fresh = ~node_filled[gnodes]
            take = gnodes[fresh]
            local = np.flatnonzero(active)[fresh]
            for name in HydroState.FIELDS["node"]:
                out[name][take] = getattr(state, name)[local]
            node_filled[take] = True
        if ncell_filled != mesh.ncell or not node_filled.all():
            raise BookLeafError("gather left cells or nodes unfilled")
        # only the boundary planes come from the global initial state
        bc = self.setup.state.bc
        return HydroState(
            mesh=mesh, **out,
            bc=BoundaryConditions(bc.flags.copy(), bc.ux.copy(),
                                  bc.uy.copy(), driver=bc.driver))

    # ------------------------------------------------------------------
    # telemetry merge paths (deterministic rank-order rules)
    # ------------------------------------------------------------------
    def merged_timers(self) -> TimerRegistry:
        """Sum of all ranks' kernel timers (Table II-style aggregate)."""
        merged = TimerRegistry()
        for timers in self._view().timers:
            merged.merge(timers)
        return merged

    def merged_spans(self) -> list:
        """All ranks' trace spans, merged deterministically: ranks in
        ascending order, each rank's stream in recording order — *not*
        by timestamp, which would make the order vary run-to-run with
        scheduling noise.  Two runs of one problem give identical
        (name, cat, rank, depth) sequences; only the clocks differ."""
        return [span for timers in self._view().timers
                for span in timers.spans or ()]

    def per_rank_comm(self) -> List[dict]:
        """Every rank's comm counters in rank order (report input)."""
        return self._view().comm_per_rank

    def comm_totals(self) -> Dict[str, int]:
        """Whole-run traffic totals as a JSON-ready dict."""
        return comm_sum(self.per_rank_comm())

    def comm_summary(self) -> dict:
        """Traffic totals for the whole run (perf-model inputs)."""
        total = self.comm_totals()
        steps = self.nstep
        return {
            "nranks": self.nranks,
            "steps": steps,
            "backend": self.backend_name,
            "comm_plan": self.comm_plan,
            **total,
            "bytes_per_step": total["bytes"] / steps if steps else 0.0,
            "messages_per_step": (total["messages"] / steps
                                  if steps else 0.0),
            "halo_nodes": sum(s.halo_node_count() for s in self.subdomains),
            "shared_nodes": sum(s.shared_node_count() for s in self.subdomains),
        }
