"""The distributed (SPMD) hydro driver — backend-agnostic.

Runs one :class:`~repro.problems.base.ProblemSetup` decomposed over N
ranks: partition the cells (RCB or the spectral METIS substitute),
build subdomains with ghost layers, restrict the global initial state
to each rank, and march every rank's *unchanged*
:class:`~repro.core.hydro.Hydro` loop with a conforming
:class:`~repro.parallel.interface.CommEndpoint` plugged into the
communication seam.

*Where* the ranks execute is the backend's business
(:mod:`repro.parallel.backends`): ``threads`` runs them as threads of
this process, ``processes`` runs each rank in its own forked process
over shared memory — the same Typhon protocol over two transports.
Either way the result is numerically equivalent to the serial run
(identical up to floating-point summation order — verified by the
integration tests) and the two distributed backends are bit-identical to each
other, with per-rank kernel timers, trace spans and communication
statistics merged back under the same deterministic rank-order rules.

The supported embedding surface is :func:`repro.api.run`; this class
is the engine underneath it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.state import HydroState
from ..problems.base import ProblemSetup
from ..utils.errors import BookLeafError, DeprecatedOptionError
from ..utils.timers import TimerRegistry
from .backends import get_backend
from .halo import Subdomain, build_subdomains
from .interface import BackendRun
from .partition.interface import partition

#: counters every per-rank comm entry carries
_COMM_FIELDS = ("messages", "bytes", "halo_exchanges", "reductions",
                "dt_reductions", "dt_hops")


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
        Give every rank its own
        :class:`~repro.telemetry.spans.Tracer` (sharing one clock epoch
        so the per-rank streams line up); :meth:`merged_spans` then
        returns the deterministically merged stream.
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

    For the in-process backends the per-rank ``hydros`` (and, for
    ``threads``, the shared ``context``) are live attributes that
    embedding code may inspect or attach observers to; the
    ``processes`` backend keeps its rank objects in the children and
    exposes only the marshalled :class:`BackendRun` (``self.result``).
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
        #: serial-backend niceties (step banners, tracemalloc); the
        #: concurrent backends ignore them — per-rank step printing
        #: would interleave and tracemalloc is process-global
        self.log_every = log_every
        self.trace_allocations = trace_allocations
        #: live-metrics configuration (repro.metrics): a cadence of 0
        #: means no probe is built — the hot loop stays bit-identical
        self.metrics_path = metrics_path
        self.metrics_every = int(metrics_every or 0)
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
        #: set before ``run`` to have rank 0 record a per-step series
        #: (returned as ``self.result.step_rows``)
        self.collect_step_series = False
        self.result: Optional[BackendRun] = None
        #: optional :class:`repro.fleet.artifacts.ArtifactCache` — the
        #: fleet attaches one so repeated same-mesh jobs reuse the
        #: partition/subdomains/CommPlans instead of recompiling
        self.artifacts = artifacts
        # Per-backend rank machinery, populated by prepare():
        self.hydros: List = []
        self.tracers: List = []
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
    def run(self, max_steps: Optional[int] = None) -> int:
        """Run all ranks to completion; returns the step count."""
        self.result = self._backend.execute(self, max_steps=max_steps)
        return self.result.nstep

    # ------------------------------------------------------------------
    def build_probe(self, rank: int, cell_global=None):
        """Rank ``rank``'s :class:`~repro.metrics.probe.DiagnosticsProbe`
        per the metrics config, or ``None`` when metrics are off.

        Rank 0 carries the NDJSON sink, the in-memory record and the
        :class:`~repro.metrics.registry.MetricsRegistry` (the sampled
        totals are global, identical on every rank — one writer is
        enough); the other ranks probe purely for their own sentinel
        scans and the collective participation those require.
        """
        if self.metrics_every < 1:
            return None
        import os

        from ..metrics import DiagnosticsProbe, MetricsRegistry

        snapshot_path = None
        if self.snapshot_dir:
            snapshot_path = os.path.join(
                self.snapshot_dir, f"HEALTH_snapshot_rank{rank}.npz")
        if rank == 0:
            return DiagnosticsProbe(
                every=self.metrics_every, sink_path=self.metrics_path,
                registry=MetricsRegistry(), record=True,
                snapshot_path=snapshot_path, cell_global=cell_global,
            )
        return DiagnosticsProbe(
            every=self.metrics_every, record=False,
            snapshot_path=snapshot_path, cell_global=cell_global,
        )

    # ------------------------------------------------------------------
    @property
    def time(self) -> float:
        if self.result is not None:
            return self.result.time
        return self.hydros[0].time

    @property
    def nstep(self) -> int:
        if self.result is not None:
            return self.result.nstep
        return self.hydros[0].nstep

    def _final_states(self) -> List[HydroState]:
        """Per-rank final local states, ascending rank order."""
        if self.result is not None:
            return self.result.states
        return [h.state for h in self.hydros]

    def gather(self) -> HydroState:
        """Assemble the global state from the ranks' owned data."""
        states = self._final_states()
        if self.backend_name == "serial":
            return states[0]
        template = self.setup.state
        out = template.copy()
        node_filled = np.zeros(self.global_mesh.nnode, dtype=bool)
        for sub, state in zip(self.subdomains, states):
            owned_local = np.flatnonzero(sub.owned_cell_mask)
            gcells = sub.cell_global[owned_local]
            for name in HydroState.field_names("cell", "corner"):
                getattr(out, name)[gcells] = getattr(state, name)[owned_local]
            active = sub.active_node_mask
            gnodes = sub.node_global[active]
            fresh = ~node_filled[gnodes]
            take = gnodes[fresh]
            local = np.flatnonzero(active)[fresh]
            for name in HydroState.FIELDS["node"]:
                getattr(out, name)[take] = getattr(state, name)[local]
            node_filled[take] = True
        if not node_filled.all():
            raise BookLeafError("gather left nodes unfilled")
        out.invalidate_node_mass()
        return out

    # ------------------------------------------------------------------
    # telemetry merge paths (deterministic rank-order rules)
    # ------------------------------------------------------------------
    def merged_timers(self) -> TimerRegistry:
        """Sum of all ranks' kernel timers (Table II-style aggregate)."""
        merged = TimerRegistry()
        if self.result is not None:
            for timers in self.result.timers:
                merged.merge(timers)
        else:
            for hydro in self.hydros:
                merged.merge(hydro.timers)
        return merged

    def merged_spans(self) -> list:
        """All ranks' trace spans, merged deterministically (ascending
        rank order, per-rank recording order preserved)."""
        if self.result is not None:
            return self.result.merged_spans()
        from ..telemetry.spans import merge_spans

        return merge_spans(self.tracers)

    def per_rank_comm(self) -> List[dict]:
        """Every rank's comm counters in rank order (report input)."""
        if self.result is not None:
            return self.result.comm_per_rank
        return self.context.per_rank_stats() if self.context else []

    def comm_totals(self) -> Dict[str, int]:
        """Whole-run traffic totals as a JSON-ready dict."""
        total = {key: 0 for key in _COMM_FIELDS}
        for entry in self.per_rank_comm():
            for key in _COMM_FIELDS:
                total[key] += int(entry.get(key, 0))
        return total

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
