"""The ensemble driver: N same-mesh runs through one Lagrangian step.

Every lane of an :class:`EnsembleHydro` is a real
:class:`repro.core.hydro.Hydro` — its own controls, clocks, remapper,
probe, observers, step rows and step budget, built the way a solo
serial job's is
— whose ``state`` is the lane's segment view of one disjoint-union
mesh (:mod:`repro.ensemble.state`).  The batch runs no step loop of
its own: per step it asks each lane for its dt (``Hydro.choose_dt``),
makes *one* call of :func:`repro.core.lagstep.lagstep` on the union
with every lane at its own dt and viscosity coefficients (per-node /
per-cell vectors, constant over a lane's segment), and hands each lane
back to ``Hydro.finish_step`` for the remap, the clocks and the probe.

What is left here is what only a batch can do: lay the lanes out on
the union, compute ``getdt``'s two fields once for all of them (each
lane reduces its own contiguous segment), copy a remapped lane's
rebound arrays back into its segment, *retire* finished lanes — the
final state is extracted and the union rebuilt from the survivors, so
the rest keep running in a dense block (no masked dead rows, no
``0 · inf`` hazards) — and name the lane on any error raised on a
lane's behalf.

The correctness contract is strict: lane ``i`` of the ensemble is
bit-identical — state arrays, step count, dt sequence, diagnostics
records — to the same problem run through the serial driver.  The
kernels and the step halves are the serial driver's own, and every
gather and nodal sum stays inside its lane in the serial order; CI
gates this on Noh and Sod.

Jobs reach a batch through the fleet: ``repro.api.submit`` coalesces
same-mesh serial jobs (and every job with control overrides) onto it
(:mod:`repro.fleet.batch`).  :class:`EnsembleHydro` is the driver to
embed directly.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import repeat
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.corners import StepCorners
from ..core.hydro import Hydro
from ..core.lagstep import lagstep
from ..core.timestep import dt_candidates, dt_fields
from ..eos.multimaterial import MaterialTable
from ..perf.workspace import Workspace
from ..problems.base import ProblemSetup
from ..utils.errors import BookLeafError, TangledMeshError
from ..utils.timers import TimerRegistry
from .state import EnsembleState

#: controls the step reads as one scalar (or branches on) for the whole
#: union and which therefore must be uniform across lanes — cq1/cq2/γ
#: are per-cell vectors and everything in getdt's scalar stage is
#: per-lane already
UNIFORM_CONTROLS = ("viscosity_form", "use_limiter", "subzonal_kappa",
                    "filter_kappa", "dencut", "ccut")


class _LaneTables:
    """``getpc`` for a union whose lanes carry different materials:
    each lane's own :class:`MaterialTable` on that lane's contiguous
    segment (it computes nothing itself)."""

    def __init__(self, tables: List[MaterialTable], ncell: int):
        self.tables = tables
        self.ncell = ncell

    def getpc(self, mat, rho, e, out, ws=None):
        n = self.ncell
        for i, table in enumerate(self.tables):
            seg = slice(i * n, (i + 1) * n)
            table.getpc(mat[seg], rho[seg], e[seg],
                        out=(out[0][seg], out[1][seg]), ws=ws)
        return out


def _same_materials(a: MaterialTable, b: MaterialTable) -> bool:
    """Same EoS types with identical coefficients, material by material."""
    return all(type(x) is type(y) and vars(x) == vars(y)
               for x, y in zip(a.eos, b.eos))


def _in_lane(exc: BookLeafError, lane: int) -> BookLeafError:
    """Name the failing lane on ``exc`` and in its message."""
    exc.lane = lane
    exc.args = (f"ensemble lane {lane}: {exc}",)
    return exc


class EnsembleHydro:
    """Time-marches N same-mesh problems as one disjoint-union mesh.

    Parameters
    ----------
    setups:
        One :class:`ProblemSetup` per fresh lane.  All lanes must share
        mesh topology, material layout and boundary conditions (checked
        by :class:`EnsembleState`) and the :data:`UNIFORM_CONTROLS`;
        initial state, γ, cq1/cq2 and all timestep controls may differ
        per lane.
    probes:
        Optional per-setup :class:`DiagnosticsProbe` list (None entries
        = no probe for that lane).
    timers:
        Shared :class:`TimerRegistry`; each region times all lanes at
        once.
    max_steps:
        Optional per-setup step budgets (None entries fall back to the
        lane's ``controls.max_steps``), as ``Hydro.run`` takes them.
    carried:
        Lanes of an earlier batch that are still mid-flight (the
        fleet's lane-refill path) — the :class:`Hydro` objects
        themselves, so state, clocks, remapper, probe and budget
        arrive together.  They take the first rows, ahead of the
        fresh ``setups``.

    ``lanes`` holds every lane's ``Hydro`` by lane index, for the whole
    life of the batch; a retired lane's ``state`` is its standalone
    final state (also in ``final_states``).
    """

    def __init__(self, setups: Sequence[ProblemSetup], *,
                 probes: Optional[Sequence] = None,
                 timers: Optional[TimerRegistry] = None,
                 max_steps: Optional[Sequence[Optional[int]]] = None,
                 carried: Sequence[Hydro] = ()):
        self.timers = timers if timers is not None else TimerRegistry()
        self.lanes: List[Hydro] = list(carried)
        for setup, probe, limit in zip(setups, probes or repeat(None),
                                       max_steps or repeat(None)):
            controls = setup.controls
            if limit is not None:
                controls = replace(controls, max_steps=limit)
            self.lanes.append(Hydro(setup.state, setup.table, controls,
                                    timers=self.timers, probe=probe))
        if not self.lanes:
            raise BookLeafError("an ensemble needs at least one lane")
        first = self.lanes[0]
        for i, lane in enumerate(self.lanes[1:], start=1):
            for name in UNIFORM_CONTROLS:
                if getattr(lane.controls, name) != getattr(first.controls,
                                                           name):
                    raise BookLeafError(
                        f"ensemble lane {i} differs in {name!r}; "
                        f"{', '.join(UNIFORM_CONTROLS)} must be uniform "
                        "across lanes (they enter the batched kernel "
                        "expressions)"
                    )

        self.es = EnsembleState([lane.state for lane in self.lanes])
        for i, lane in enumerate(self.lanes[1:], start=1):
            t = lane.table
            if t.nmat != first.table.nmat:
                raise BookLeafError(
                    f"ensemble lane {i} has {t.nmat} materials, "
                    f"lane 0 has {first.table.nmat}"
                )
            if t.pcut != first.table.pcut or t.ccut != first.table.ccut:
                raise BookLeafError(
                    "ensemble lanes must share pcut/ccut cutoffs"
                )
        #: the arena the union's step draws from; cleared whenever the
        #: union changes width, so dead-width blocks are not pinned
        self.ws = Workspace()
        #: batch row -> lane index (shrinks with retirement)
        self.order = list(range(len(self.lanes)))
        self.final_states = [None] * len(self.lanes)
        self._lay_out()

    def _lay_out(self) -> None:
        """Point every active lane at its segment of the union, and
        collect what the union's step needs per cell, in row order: the
        material table, γ, and the lanes' viscosity coefficients spread
        over their segments (riding in the uniform controls'
        ``cq1``/``cq2``)."""
        ncell = self.es.mesh.ncell
        lanes = self.active
        for row, lane in enumerate(lanes):
            lane.state = self.es.lane_state(row)
        tables = [lane.table for lane in lanes]
        self.table = tables[0] if all(
            _same_materials(tables[0], t) for t in tables[1:]
        ) else _LaneTables(tables, ncell)
        self.gamma = np.concatenate([lane.gamma for lane in lanes])
        self.controls = replace(
            lanes[0].controls,
            cq1=np.repeat([lane.controls.cq1 for lane in lanes], ncell),
            cq2=np.repeat([lane.controls.cq2 for lane in lanes], ncell))

    # ------------------------------------------------------------------
    @property
    def n_active(self) -> int:
        return len(self.order)

    @property
    def active(self) -> List[Hydro]:
        """The still-running lanes, in batch-row order."""
        return [self.lanes[lane] for lane in self.order]

    def _for_lane(self, row: int, half: Callable, *args):
        """Run one of a lane's step halves; whatever it raises — dt
        collapse, a remap failure, a tripped health sentinel — names
        the lane."""
        try:
            return half(*args)
        except BookLeafError as exc:
            raise _in_lane(exc, self.order[row])

    def _retire_finished(self) -> List[int]:
        """Retire the lanes that reached their end time or spent their
        step budget; returns their lane indices."""
        retired = []
        keep_rows = []
        for row, (index, lane) in enumerate(zip(self.order, self.active)):
            if not (lane.done() or lane.nstep >= lane.controls.max_steps):
                keep_rows.append(row)
                continue
            # The lane leaves the union owning its final state.
            lane.state = self.final_states[index] = \
                self.es.extract_lane(row)
            lane.workspace.clear()
            if lane.probe is not None:
                lane.probe.finish(lane)
            retired.append(index)
        if retired:
            self.order = [self.order[row] for row in keep_rows]
            self.ws.clear()
            if keep_rows:
                self.es.compact(keep_rows)
                self._lay_out()
        return retired

    def _advance_once(self) -> None:
        lanes = self.active
        union = self.es.union
        nnode, ncell = self.es.mesh.nnode, self.es.mesh.ncell
        # A lane on its first step takes its initial dt and needs no
        # fields, so an all-fresh batch skips getdt as a serial driver
        # does; a refilled batch mixes fresh and mid-flight lanes and
        # computes the fields once for everyone.
        corners = StepCorners.of(union, self.ws)
        if any(lane.nstep for lane in lanes):
            with self.timers.region("getdt"):
                ratio, rate = dt_fields(union, self.controls, ws=self.ws,
                                        corners=corners)
                for row, lane in enumerate(lanes):
                    seg = slice(row * ncell, (row + 1) * ncell)
                    self._for_lane(row, lane.choose_dt, dt_candidates(
                        ratio[seg], rate[seg], lane.controls))
                self.ws.release(ratio, rate)
        else:
            for row, lane in enumerate(lanes):
                self._for_lane(row, lane.choose_dt)

        dts = [lane.dt for lane in lanes]
        try:
            lagstep(union, self.table, self.controls,
                    (np.repeat(dts, nnode), np.repeat(dts, ncell)),
                    self.timers, self.gamma, ws=self.ws, corners=corners)
        except TangledMeshError as exc:
            # Union cell ids name the lane: report the first failing
            # lane's own cells and time, as its solo run would.
            row = exc.cells[0] // ncell
            cells = [c - row * ncell for c in exc.cells
                     if c // ncell == row]
            raise _in_lane(
                TangledMeshError(cells, time=lanes[row].time),
                self.order[row]) from exc

        for row, lane in enumerate(lanes):
            if self._for_lane(row, lane.finish_step):
                # The remap rebound the lane's arrays: copy them into
                # its segment and point the lane back at it.
                self.es.absorb_lane(row, lane.state)
                lane.state = self.es.lane_state(row)

    def begin(self) -> None:
        """Record every lane's probe baseline (idempotent per probe —
        carried lanes keep their original drift reference)."""
        for lane in self.active:
            if lane.probe is not None:
                lane.probe.begin(lane)

    def advance(self) -> List[int]:
        """One scheduler turn: retire finished lanes, then step the
        rest once.  Returns the lane indices retired this call (their
        final states are in ``final_states``); an empty ``order``
        afterwards means the batch is drained.  This is the fleet's
        refill seam — after retirements the caller may abandon this
        instance and build a wider batch from fresh setups with the
        still-``active`` lanes ``carried`` into it.
        """
        retired = self._retire_finished()
        if self.order:
            self._advance_once()
        return retired

    def run(self) -> "EnsembleHydro":
        """March every lane to its end time (or step budget)."""
        self.begin()
        while self.order:
            self.advance()
        return self

