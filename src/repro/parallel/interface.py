"""The typed communication seam: ``CommEndpoint`` and ``CommBackend``.

The hydro kernels talk to *any* communication layer through exactly one
seam (docs/PARALLEL.md): the three per-step exchange points of the
Lagrangian step plus the cell-field/gradient halos of the distributed
remap.  This module makes the seam a formal, typed API:

* :class:`CommEndpoint` — a :class:`typing.Protocol` describing one
  rank's endpoint (what a kernel may call on ``comms``).  There are
  two implementations: :class:`~repro.core.comms.SerialComms` for one
  rank, and :class:`~repro.parallel.typhon.TyphonComms` for every
  decomposed run — the same protocol class whether the ranks are
  threads or processes; only the transport handed to it differs.
* :class:`CommBackend` — a Protocol for an execution backend: the
  object that decides where the ranks of a run execute and hands their
  reports back; the driver assembles those into a :class:`BackendRun`.
* :class:`CommStats` — the traffic counters a decomposed endpoint
  keeps; its fields are :data:`COMM_FIELDS`, the counters of every
  comm entry in the run report;
* :data:`SEAM_METHODS` — the seam's method table, read off
  :class:`CommEndpoint` and used by ``tests/parallel/test_protocol.py``
  to structurally verify that both implementations cover the *full*
  seam with compatible signatures.

Backends register themselves in :mod:`repro.parallel.backends`; the
supported selection surface is ``repro.api.RunConfig(backend=...)``.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any, Dict, List, Optional, Protocol, Tuple, runtime_checkable,
)

import numpy as np


@runtime_checkable
class CommEndpoint(Protocol):
    """One rank's communication endpoint (what kernels see as ``comms``).

    Every exchange is split-phase and has no other form: ``post_*``
    starts it, ``complete_*`` finishes it, and the kernel does whatever
    needs no halo in between.  The Lagrangian step posts and completes
    one kinematic halo and one nodal-sum completion and calls
    :meth:`reduce_dt` once per step (paper Section IV-A); the
    distributed remap adds the cell-field and gradient halos, two more
    nodal-sum completions and the collective skip decision.  The
    live-metrics probe (docs/OBSERVABILITY.md) adds the two vector
    collectives :meth:`allreduce_sum` / :meth:`allreduce_min` for its
    global conservation sums and extrema — called only on sampled
    steps, and symmetrically on every rank (the sampling cadence is
    SPMD state).
    """

    rank: int
    size: int

    def post_kinematics(self, state) -> None: ...

    def complete_kinematics(self, state) -> Tuple[np.ndarray, np.ndarray]: ...

    def post_node_sums(self, state, *partials: np.ndarray) -> None: ...

    def complete_node_sums(self, state, *partials: np.ndarray
                           ) -> Tuple[np.ndarray, ...]: ...

    def reduce_dt(self, candidates): ...

    def allreduce_max(self, value: float) -> float: ...

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray: ...

    def allreduce_min(self, values: np.ndarray) -> np.ndarray: ...

    def owned_cell_mask(self, state) -> Optional[np.ndarray]: ...

    def post_cell_arrays(self, *arrays: np.ndarray) -> None: ...

    def complete_cell_arrays(self, *arrays: np.ndarray) -> None: ...

    def post_cell_fields(self, state) -> None: ...

    def complete_cell_fields(self, state) -> None: ...

    def physical_boundary_sides(self, state) -> Optional[np.ndarray]: ...

    def physical_boundary_side_mask(self, state) -> Optional[np.ndarray]: ...


def _positional(fn) -> Tuple[str, ...]:
    """Positional parameter names of ``fn`` after ``self`` (``*`` marks
    a variadic one)."""
    return tuple(
        ("*" if p.kind is p.VAR_POSITIONAL else "") + p.name
        for p in inspect.signature(fn).parameters.values()
        if p.name != "self" and p.kind in (
            p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)
    )


#: the full comms seam, read off the Protocol: method name ->
#: positional parameter names.  The structural-conformance test checks
#: every implementation against this table.
SEAM_METHODS: Dict[str, Tuple[str, ...]] = {
    name: _positional(member) for name, member in vars(CommEndpoint).items()
    if not name.startswith("_") and callable(member)
}

#: attributes every endpoint must expose (per-rank identity)
SEAM_ATTRIBUTES: Tuple[str, ...] = ("rank", "size")


@dataclass
class CommStats:
    """Per-rank traffic counters (the perf model's inputs), kept by a
    decomposed endpoint as ``stats``.  Its fields are the counters every
    comm entry of the run report carries (:data:`COMM_FIELDS`)."""

    messages: int = 0
    #: float64 payload bytes sent
    bytes: int = 0
    halo_exchanges: int = 0
    reductions: int = 0
    #: dt reductions performed (each charges DT_REDUCE_VALUES once,
    #: whatever the tree shape — topology honesty lives in dt_hops)
    dt_reductions: int = 0
    #: combining messages *received* during dt up-sweeps: this rank's
    #: child count summed over reductions.  The per-reduction maximum
    #: over ranks is the tree's critical-path fan-in — ⌈log2 P⌉ for
    #: the binomial tree vs. P−1 for the old rank-0 root gather.
    dt_hops: int = 0

    def account(self, nvalues: int, messages: int = 1) -> None:
        """Charge ``nvalues`` float64 payload carried by ``messages``
        logical messages (1 per packed block per neighbour)."""
        self.messages += messages
        self.bytes += nvalues * 8

    def as_dict(self) -> dict:
        """JSON-ready counters (one ``comm`` entry of the run report)."""
        return asdict(self)


#: the comm counter names, in report order — the one list of them
COMM_FIELDS: Tuple[str, ...] = tuple(f.name for f in fields(CommStats))


def comm_sum(per_rank: List[dict]) -> Dict[str, int]:
    """A run's traffic totals: the sum of its ranks' comm entries."""
    return {k: sum(int(e[k]) for e in per_rank) for k in COMM_FIELDS}


@dataclass
class BackendRun:
    """One finished execution, assembled by the driver from the
    per-rank reports every backend hands back alike
    (``DistributedHydro.assemble``), so the telemetry merge path,
    ``gather`` and the run report are backend-agnostic.  Per-rank lists
    are in ascending rank order (the deterministic merge rule).
    """

    nstep: int
    time: float
    #: each rank's final local state (the live one in-process, the
    #: marshalled arrays overlaid on a fresh restriction for processes)
    states: List[Any]
    #: each rank's kernel timer registry (and, traced, span stream)
    timers: List[Any]
    #: each rank's CommStats counters as dicts
    comm_per_rank: List[dict]
    #: rank 0's step rows (``Hydro.step_rows``)
    step_rows: List[dict]
    #: rank 0's recorded diagnostics samples (when live metrics were on)
    metrics_rows: Optional[List[dict]] = None


@runtime_checkable
class CommBackend(Protocol):
    """An execution backend: *where* the ranks of a run execute.

    What a rank is, what it reports and how a failed launch is judged
    belong to the driver (:mod:`repro.parallel.distributed`).
    ``prepare`` is called from ``DistributedHydro.__init__``: an
    in-process backend builds its transport and has the driver build
    every rank on it.  ``execute`` runs all ranks to completion and
    returns each rank's ``driver.report(...)``, marshalled back if the
    ranks live elsewhere.  A failure anywhere must abort every rank and
    surface through ``judge_ranks`` as one
    :class:`~repro.utils.errors.BookLeafError` naming the failing rank.
    """

    name: str

    def prepare(self, driver) -> None: ...

    def execute(self, driver, max_steps: Optional[int] = None) -> list: ...


def seam_violations(cls) -> List[str]:
    """Structural conformance check of a class against
    :data:`SEAM_METHODS`.

    Returns a list of human-readable problems (empty = conforming):
    missing methods, or positional parameters (names, variadics) that
    drifted from the protocol's.
    """
    problems: List[str] = []
    for name, expected in SEAM_METHODS.items():
        fn = getattr(cls, name, None)
        if fn is None or not callable(fn):
            problems.append(f"{cls.__name__}.{name} is missing")
        elif _positional(fn) != expected:
            problems.append(
                f"{cls.__name__}.{name} signature drifted: "
                f"expected {expected}, got {_positional(fn)}"
            )
    return problems
