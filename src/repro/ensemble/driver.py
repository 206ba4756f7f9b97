"""The ensemble driver: N same-mesh runs through one Lagrangian step.

:class:`EnsembleHydro` mirrors :class:`repro.core.hydro.Hydro`'s step
loop over a batch of lanes.  The lanes live side by side on one
disjoint-union mesh (:mod:`repro.ensemble.state`), so every active lane
shares one call of :func:`repro.core.lagstep.lagstep` per step, each at
its *own* dt and viscosity coefficients (they enter as per-node /
per-cell vectors, constant over a lane's segment).  ``getdt``'s two
fields are computed once on the union and reduced per lane, on that
lane's contiguous segment, by the scalar stage the serial driver uses.
Lanes finish at different times; a finished lane is *retired* — its
final state is extracted and the union is rebuilt from the survivors,
so the remaining lanes keep running in a dense block (no masked dead
rows, no ``0 · inf`` hazards).

The correctness contract is strict: lane ``i`` of the ensemble is
bit-identical — state arrays, step count, dt sequence, diagnostics
records — to the same problem run through the serial driver.  The
kernels are the serial driver's own, every gather and nodal sum stays
inside its lane in the serial order, and the loop bookkeeping here
stays in Python-float scalar arithmetic exactly like ``Hydro``; CI
gates this on Noh and Sod.

:func:`run_ensemble` is the embedding surface:
``run_ensemble([RunConfig(...), ...]) -> [RunResult, ...]``, one result
per lane (same order as the configs), each carrying the lane's final
state, per-lane diagnostics rows from its own probe, and the shared
ensemble timer registry.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..api import RunConfig, RunResult
from ..core.comms import SerialComms
from ..core.lagstep import lagstep
from ..core.timestep import dt_candidates, dt_fields, pick_dt
from ..eos.multimaterial import MaterialTable
from ..perf.workspace import Workspace
from ..problems.base import ProblemSetup
from ..utils.errors import (BookLeafError, TangledMeshError,
                            TimestepCollapseError)
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


class _LaneView:
    """Duck-typed ``Hydro`` stand-in for one lane.

    Carries exactly the attributes the diagnostics probe reads
    (``state``/``comms``/``nstep``/``time``/``dt``/``dt_reason``/
    ``dt_cell``), so :class:`DiagnosticsProbe` samples a lane without
    knowing it lives in a batch.
    """

    def __init__(self, state, comms, nstep, time, dt, dt_reason, dt_cell):
        self.state = state
        self.comms = comms
        self.nstep = nstep
        self.time = time
        self.dt = dt
        self.dt_reason = dt_reason
        self.dt_cell = dt_cell


class EnsembleHydro:
    """Time-marches N same-mesh problems as one disjoint-union mesh.

    Parameters
    ----------
    setups:
        One :class:`ProblemSetup` per lane.  All lanes must share mesh
        topology, material layout and boundary conditions (checked by
        :class:`EnsembleState`) and the :data:`UNIFORM_CONTROLS`;
        initial state, γ, cq1/cq2 and all timestep controls may differ
        per lane.
    probes:
        Optional per-lane :class:`DiagnosticsProbe` list (None entries
        = no probe for that lane).
    timers:
        Shared :class:`TimerRegistry`; each region times all lanes at
        once.
    max_steps:
        Optional per-lane step limits (None entries fall back to the
        lane's ``controls.max_steps``), mirroring ``Hydro.run``.
    resume:
        Optional per-lane resume records for lanes carried over from an
        earlier batch (the fleet's lane-refill path): each non-None
        entry is a dict with ``time``/``nstep``/``dt``/``dt_reason``/
        ``dt_cell`` — and, when present, a ``remapper`` key whose value
        (possibly None) *replaces* building one from the lane's setup
        state.  Carrying the original remapper is load-bearing: it
        holds the pristine initial coordinates as its Eulerian target,
        which a mid-flight state no longer has.
    """

    def __init__(self, setups: Sequence[ProblemSetup], *,
                 probes: Optional[Sequence] = None,
                 timers: Optional[TimerRegistry] = None,
                 max_steps: Optional[Sequence[Optional[int]]] = None,
                 resume: Optional[Sequence[Optional[dict]]] = None):
        self.setups = list(setups)
        if not self.setups:
            raise BookLeafError("an ensemble needs at least one lane")
        n = len(self.setups)
        self.controls_list = [s.controls.validated() for s in self.setups]
        first = self.controls_list[0]
        for i, c in enumerate(self.controls_list[1:], start=1):
            for name in UNIFORM_CONTROLS:
                if getattr(c, name) != getattr(first, name):
                    raise BookLeafError(
                        f"ensemble lane {i} differs in {name!r}; "
                        f"{', '.join(UNIFORM_CONTROLS)} must be uniform "
                        "across lanes (they enter the batched kernel "
                        "expressions)"
                    )
        self.timers = timers if timers is not None else TimerRegistry()
        self.comms = SerialComms()

        self.es = EnsembleState([s.state for s in self.setups])
        tables = [s.table for s in self.setups]
        for i, t in enumerate(tables[1:], start=1):
            if t.nmat != tables[0].nmat:
                raise BookLeafError(
                    f"ensemble lane {i} has {t.nmat} materials, "
                    f"lane 0 has {tables[0].nmat}"
                )
            if t.pcut != tables[0].pcut or t.ccut != tables[0].ccut:
                raise BookLeafError(
                    "ensemble lanes must share pcut/ccut cutoffs"
                )
        #: the arena the union's step draws from; cleared whenever the
        #: union changes width, so dead-width blocks are not pinned
        self.ws = Workspace()

        if resume is None:
            resume = [None] * n
        elif len(resume) != n:
            raise BookLeafError(
                f"resume must carry one entry per lane "
                f"({len(resume)} != {n})"
            )
        self.resume = list(resume)

        # Per-lane ALE remappers, built from the *initial* lane states
        # exactly as the serial driver does — except carried lanes,
        # whose original remapper (with its pristine Eulerian target)
        # rides along in the resume record.
        self.remappers: List[Any] = []
        for i, (setup, controls) in enumerate(
                zip(self.setups, self.controls_list)):
            entry = self.resume[i]
            if entry is not None and "remapper" in entry:
                self.remappers.append(entry["remapper"])
            elif controls.ale_on:
                # Imported here to avoid an ensemble <-> ale cycle.
                from ..ale.driver import AleStep

                self.remappers.append(
                    AleStep.from_controls(setup.state, controls,
                                          setup.table))
            else:
                self.remappers.append(None)

        # Per-lane loop bookkeeping in Python floats — bit-for-bit the
        # same scalar arithmetic as the serial driver's attributes.
        if max_steps is None:
            max_steps = [None] * n
        self.limits = [
            ms if ms is not None else c.max_steps
            for ms, c in zip(max_steps, self.controls_list)
        ]
        self.times = [c.time_start for c in self.controls_list]
        self.nsteps = [0] * n
        self.dts = [c.dt_initial for c in self.controls_list]
        self.dt_reasons = ["initial"] * n
        self.dt_cells = [-1] * n
        # Carried lanes continue their clocks mid-flight.
        for i, entry in enumerate(self.resume):
            if entry is None:
                continue
            self.times[i] = entry["time"]
            self.nsteps[i] = entry["nstep"]
            self.dts[i] = entry["dt"]
            self.dt_reasons[i] = entry["dt_reason"]
            self.dt_cells[i] = entry["dt_cell"]
        self.probes = list(probes) if probes is not None else [None] * n
        #: batch row -> original lane index (shrinks with retirement)
        self.order = list(range(n))
        self.final_states = [None] * n
        self._lay_out()

    def _lay_out(self) -> None:
        """What the step needs per union cell, for the active lanes in
        row order: the material table, γ, and the lanes' viscosity
        coefficients spread over their segments (riding in the uniform
        controls' ``cq1``/``cq2``)."""
        ncell = self.es.mesh.ncell
        tables = [self.setups[lane].table for lane in self.order]
        self.table = tables[0] if all(
            _same_materials(tables[0], t) for t in tables[1:]
        ) else _LaneTables(tables, ncell)
        self.gamma = np.concatenate(
            [t.gamma_like(self.es.mat) for t in tables])
        controls = [self.controls_list[lane] for lane in self.order]
        self.controls = replace(
            controls[0],
            cq1=np.repeat([c.cq1 for c in controls], ncell),
            cq2=np.repeat([c.cq2 for c in controls], ncell))

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return len(self.setups)

    @property
    def n_active(self) -> int:
        return len(self.order)

    def _view(self, row: int, state=None) -> _LaneView:
        lane = self.order[row]
        return _LaneView(
            state if state is not None else self.es.lane_state(row),
            self.comms, self.nsteps[lane], self.times[lane],
            self.dts[lane], self.dt_reasons[lane], self.dt_cells[lane],
        )

    def _lane_done(self, lane: int) -> bool:
        controls = self.controls_list[lane]
        eps = 1e-12 * max(1.0, abs(controls.time_end))
        if self.times[lane] >= controls.time_end - eps:
            return True
        return self.nsteps[lane] >= self.limits[lane]

    def _retire_finished(self) -> None:
        keep_rows = [row for row, lane in enumerate(self.order)
                     if not self._lane_done(lane)]
        if len(keep_rows) == len(self.order):
            return
        for row, lane in enumerate(self.order):
            if self._lane_done(lane):
                final = self.es.extract_lane(row)
                self.final_states[lane] = final
                probe = self.probes[lane]
                if probe is not None:
                    probe.finish(self._view(row, state=final))
        self.order = [self.order[row] for row in keep_rows]
        self.ws.clear()
        if keep_rows:
            self.es.compact(keep_rows)
            self._lay_out()

    def _advance_once(self) -> None:
        active = self.order
        union = self.es.union
        nnode, ncell = self.es.mesh.nnode, self.es.mesh.ncell
        # "First step" is a per-lane condition: a refilled batch mixes
        # fresh lanes (serial drivers take dt_initial without running
        # getdt at all on step 0) with carried mid-flight lanes.  An
        # all-fresh batch skips getdt entirely; a mixed batch computes
        # the fields for everyone and picks only for the carried lanes.
        fresh = [self.nsteps[lane] == 0 for lane in active]
        if not all(fresh):
            with self.timers.region("getdt"):
                ratio, rate = dt_fields(union, self.controls, ws=self.ws)
                for row, lane in enumerate(active):
                    if fresh[row]:
                        continue
                    controls = self.controls_list[lane]
                    seg = slice(row * ncell, (row + 1) * ncell)
                    try:
                        (self.dts[lane], self.dt_reasons[lane],
                         self.dt_cells[lane]) = pick_dt(
                            dt_candidates(ratio[seg], rate[seg], controls),
                            controls, self.dts[lane], self.times[lane])
                    except TimestepCollapseError as exc:
                        _in_lane(exc, lane)
                        raise
                self.ws.release(ratio, rate)
        for row, lane in enumerate(active):
            if fresh[row]:
                controls = self.controls_list[lane]
                remaining = controls.time_end - self.times[lane]
                self.dts[lane] = min(controls.dt_initial, remaining)
                self.dt_reasons[lane], self.dt_cells[lane] = "initial", -1

        dts = [self.dts[lane] for lane in active]
        try:
            lagstep(union, self.table, self.controls,
                    (np.repeat(dts, nnode), np.repeat(dts, ncell)),
                    self.timers, self.gamma, comms=self.comms, ws=self.ws)
        except TangledMeshError as exc:
            # Union cell ids name the lane: report the first failing
            # lane's own cells and time, as its solo run would.
            row = exc.cells[0] // ncell
            cells = [c - row * ncell for c in exc.cells
                     if c // ncell == row]
            raise _in_lane(
                TangledMeshError(cells, time=self.times[active[row]]),
                active[row]) from exc

        # ALE remap, per lane on its segment view — the remapper is
        # serial code (it rebinds state arrays), so each due lane
        # round-trips through lane_state/absorb_lane.
        for row, lane in enumerate(active):
            remapper = self.remappers[lane]
            if remapper is None:
                continue
            controls = self.controls_list[lane]
            if (self.nsteps[lane] + 1) % controls.ale_every != 0:
                continue
            with self.timers.region("alestep", cat="phase"):
                lane_state = self.es.lane_state(row)
                remapper.apply(lane_state, self.dts[lane], self.timers,
                               comms=self.comms)
                self.es.absorb_lane(row, lane_state)

        for row, lane in enumerate(active):
            self.times[lane] += self.dts[lane]
            self.nsteps[lane] += 1
            probe = self.probes[lane]
            if probe is not None:
                probe.on_step(self._view(row))

    def begin(self) -> None:
        """Record every lane's probe baseline (idempotent per probe —
        carried lanes keep their original drift reference)."""
        for row in range(len(self.order)):
            probe = self.probes[self.order[row]]
            if probe is not None:
                probe.begin(self._view(row))

    def advance(self) -> List[int]:
        """One scheduler turn: retire finished lanes, then step the
        rest once.  Returns the lane indices retired this call (their
        final states are in ``final_states``); an empty ``order``
        afterwards means the batch is drained.  This is the fleet's
        refill seam — after retirements the caller may abandon this
        instance and rebuild a wider batch from the still-active lanes
        (:meth:`extract_active`) plus fresh queued configs.
        """
        before = list(self.order)
        self._retire_finished()
        active = set(self.order)
        retired = [lane for lane in before if lane not in active]
        if self.order:
            self._advance_once()
        return retired

    def extract_active(self) -> List[dict]:
        """Resume records for every still-active lane, in batch-row
        order: the lane index, a standalone copy of its current state,
        its clocks, its remapper and its probe — everything a rebuilt
        batch needs to continue the lane bit-identically."""
        out = []
        for row, lane in enumerate(self.order):
            out.append({
                "lane": lane,
                "state": self.es.extract_lane(row),
                "time": self.times[lane],
                "nstep": self.nsteps[lane],
                "dt": self.dts[lane],
                "dt_reason": self.dt_reasons[lane],
                "dt_cell": self.dt_cells[lane],
                "remapper": self.remappers[lane],
                "probe": self.probes[lane],
            })
        return out

    def run(self) -> "EnsembleHydro":
        """March every lane to its end time (or step limit)."""
        self.begin()
        while self.order:
            self._retire_finished()
            if not self.order:
                break
            self._advance_once()
        return self


# ----------------------------------------------------------------------
# the embedding surface
# ----------------------------------------------------------------------
def run_ensemble(configs: Sequence[RunConfig], *,
                 control_overrides: Optional[
                     Sequence[Optional[Dict[str, Any]]]] = None
                 ) -> List[RunResult]:
    """Run N serial configs as one batched ensemble; one result per lane.

    Every config must describe a serial run (``nranks=1``, backend
    ``auto``/``serial``) and all lanes must share mesh topology.
    ``control_overrides`` optionally gives one dict of
    :class:`HydroControls` field overrides per lane (how the CLI routes
    ``--sweep cq1=...`` values); ``None`` entries leave the lane's deck/
    problem defaults untouched.

    Per-lane ``metrics`` paths get each lane its own NDJSON stream —
    give distinct paths (the CLI suffixes ``.laneN``) or later lanes
    overwrite earlier ones.

    Since the fleet redesign this is a compatibility shim over the
    shared batch executor (:func:`repro.fleet.batch.run_ensemble_jobs`)
    — the same code path ``repro.api.submit`` schedules through — so
    results now carry ``lane`` provenance.
    """
    # Imported lazily: fleet sits above the ensemble layer.
    from ..fleet.batch import make_jobs, run_ensemble_jobs

    return run_ensemble_jobs(make_jobs(configs, control_overrides))
