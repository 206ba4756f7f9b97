"""In-situ physics diagnostics: the live probe in the step loop.

The compatible-hydro scheme's defining property is discrete
conservation — total energy drifts only by floating-point round-off
(paper Section III; measured ~1e-16 per run on Noh) — and the
invariant-domain ALE literature (Guermond et al.; Boscheri & Dumbser)
treats positivity of density/energy and cell validity as first-class
run-health bounds.  :class:`DiagnosticsProbe` turns those invariants
into a live monitor:

* every ``every``-th step (and at step 0, the baseline) it computes
  total mass, internal/kinetic energy and their relative drift against
  step 0, the momentum vector, an hourglass-energy proxy, the minimum
  cell volume/density/pressure, the maximum density/pressure and the
  current dt with its controlling reason — the run's one per-step
  diagnostics record (``bookleaf run --history`` writes these rows as
  CSV);
* before any of that it runs the **hard sentinels**
  (:meth:`~repro.core.state.HydroState.sentinel_scan`): NaN/Inf
  anywhere, non-positive volume/density/mass, and negative internal
  energy in the cells whose EoS admits only ``e >= 0``
  (:attr:`~repro.eos.base.Eos.nonnegative_e`).  A trip dumps a
  forensic snapshot (:mod:`repro.metrics.health`) and raises
  :class:`~repro.utils.errors.HealthError` naming the offending cells;
* each sample appends one schema-versioned JSON record to ``rows``
  and to the NDJSON sink (``--metrics out.ndjson``); the run's
  Prometheus gauges are rendered from the rows after the run
  (:mod:`repro.metrics.prometheus`).

Decomposed runs: every rank probes on the same cadence (the step count
is SPMD state), sums/minima go through the two vector collectives on
the comms seam, and per-cell sums are restricted to **owned** cells —
kinetic energy is partitioned by attributing each node's energy
through the corner masses, which sum over owned cells to exactly the
serial total, and momentum likewise.  Maxima travel as negated entries
of the minimum vector, so a sample costs the same two collectives.
The sentinel scan runs *before* the collectives so a sick rank aborts
its peers through the normal failure machinery instead of deadlocking
in a reduction.

With no probe attached the step loop pays one ``is None`` check — the
bit-identity and bench guarantees of the hot loop are untouched.
"""

from __future__ import annotations

import json
from typing import List, Optional

import numpy as np

from ..core.hourglass import hourglass_amplitude
from ..utils.errors import HealthError
from .health import dump_path, dump_snapshot

#: bumped on any record-shape change (mirrors the run-report discipline)
METRICS_SCHEMA_VERSION = 2

#: denominator floor for the relative drifts (a zero-energy baseline —
#: e.g. cold static gas — reports absolute drift instead of dividing
#: by zero)
_DRIFT_FLOOR = 1e-300


class DiagnosticsProbe:
    """Samples physics diagnostics and health sentinels every N steps.

    Parameters
    ----------
    every:
        Sampling cadence in steps (≥ 1).  Step 0 is always sampled (the
        drift baseline) and the final step is sampled at ``finish`` so
        the stream ends with the run's closing drift.
    sink_path:
        NDJSON output path (one record per sample, append-streamed and
        flushed per line so a crash keeps everything sampled so far).
        Usually only rank 0 of a decomposed run carries a sink — the
        record holds global totals, identical on every rank.
    record:
        Keep the records in memory (``self.rows``) for the run report.
    snapshot_path:
        Where a sentinel trip dumps the forensic state snapshot;
        defaults to :func:`~repro.metrics.health.dump_path` of the
        rank, in the CWD.
    cell_global:
        Optional local→global cell-id map (decomposed runs) so
        :class:`~repro.utils.errors.HealthError` names global cells.
    """

    def __init__(self, every: int = 10,
                 sink_path: Optional[str] = None,
                 record: bool = True,
                 snapshot_path: Optional[str] = None,
                 cell_global: Optional[np.ndarray] = None):
        if every < 1:
            raise ValueError("probe cadence must be >= 1 "
                             "(disable by not attaching a probe)")
        self.every = int(every)
        self.sink_path = sink_path
        self.record = record
        self.snapshot_path = snapshot_path
        self.cell_global = cell_global
        self.rows: List[dict] = []
        self._sink = None
        self._baseline: Optional[dict] = None
        self._last_sampled: Optional[int] = None

    # ------------------------------------------------------------------
    # the Hydro seam
    # ------------------------------------------------------------------
    def begin(self, hydro) -> None:
        """Record the drift baseline (idempotent — first call wins)."""
        if self._baseline is None:
            self.sample(hydro)

    def on_step(self, hydro) -> None:
        """Called by the step loop after every completed step."""
        if self._baseline is None:
            # step() driven directly without run(): baseline now.  The
            # drift reference is then the first *observed* state, which
            # is the best available.
            self.sample(hydro)
        elif hydro.nstep % self.every == 0:
            self.sample(hydro)

    def finish(self, hydro) -> None:
        """Force a final sample (if the last step fell off-cadence) and
        close the sink."""
        if self._baseline is not None and self._last_sampled != hydro.nstep:
            self.sample(hydro)
        self.close()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    @property
    def last_sample(self) -> Optional[dict]:
        """The most recent record (what the run report embeds)."""
        return self.rows[-1] if self.rows else None

    # ------------------------------------------------------------------
    # one sample
    # ------------------------------------------------------------------
    def sample(self, hydro) -> dict:
        state, comms = hydro.state, hydro.comms
        mask = comms.owned_cell_mask(state)

        # Sentinels first: a rank with poisoned state must raise before
        # entering the collectives below, so its peers abort through
        # the backend's failure machinery rather than deadlocking.
        violations = state.sentinel_scan(
            cell_mask=mask,
            e_mask=hydro.table.nonnegative_e_cells(state.mat))
        if violations:
            self._trip(hydro, violations)

        cn = state.mesh.cell_nodes
        cu = state.u[cn]
        cv = state.v[cn]
        # Corner-mass partition of the kinetic energy and momentum:
        # summed over owned cells this reproduces the nodal-mass totals
        # exactly (node mass *is* the scatter-sum of corner masses),
        # and it partitions cleanly across ranks.
        cm = state.corner_mass
        cell_sums = (
            state.cell_mass,
            state.cell_mass * state.e,
            0.5 * np.sum(cm * (cu ** 2 + cv ** 2), axis=1),
            state.cell_mass * hourglass_amplitude(cu, cv) ** 2,
            np.sum(cm * cu, axis=1),
            np.sum(cm * cv, axis=1),
        )
        extrema = (state.volume, state.rho, state.p)
        if mask is not None:
            cell_sums = [a[mask] for a in cell_sums]
            extrema = [a[mask] for a in extrema]
        vol, rho, p = extrema
        # the maxima ride the minimum vector negated
        local_mins = np.array([vol.min(), rho.min(), p.min(),
                               -rho.max(), -p.max()])

        mass, ie, ke, hg, mom_x, mom_y = comms.allreduce_sum(
            np.array([a.sum() for a in cell_sums]))
        vol_min, rho_min, p_min, neg_rho_max, neg_p_max = \
            comms.allreduce_min(local_mins)
        total = ie + ke

        if self._baseline is None:
            mass_drift = 0.0
            energy_drift = 0.0
        else:
            b = self._baseline
            mass_drift = ((mass - b["mass"])
                          / max(abs(b["mass"]), _DRIFT_FLOOR))
            energy_drift = ((total - b["total_energy"])
                            / max(abs(b["total_energy"]), _DRIFT_FLOOR))

        rec = {
            "schema_version": METRICS_SCHEMA_VERSION,
            "nstep": int(hydro.nstep),
            "time": float(hydro.time),
            "dt": float(hydro.dt),
            "dt_reason": hydro.dt_reason,
            "dt_cell": int(hydro.dt_cell),
            "nranks": int(comms.size),
            "mass": float(mass),
            "internal_energy": float(ie),
            "kinetic_energy": float(ke),
            "total_energy": float(total),
            "mass_drift": float(mass_drift),
            "energy_drift": float(energy_drift),
            "momentum_x": float(mom_x),
            "momentum_y": float(mom_y),
            "hourglass_energy": float(hg),
            "vol_min": float(vol_min),
            "rho_min": float(rho_min),
            "rho_max": float(-neg_rho_max),
            "p_min": float(p_min),
            "p_max": float(-neg_p_max),
            "sentinel_trips": 0,
        }
        if self._baseline is None:
            self._baseline = rec
        self._last_sampled = rec["nstep"]
        self._emit(rec)
        return rec

    # ------------------------------------------------------------------
    def _emit(self, rec: dict) -> None:
        if self.record:
            self.rows.append(rec)
        if self.sink_path is not None:
            if self._sink is None:
                self._sink = open(self.sink_path, "w")
            self._sink.write(json.dumps(rec) + "\n")
            self._sink.flush()

    def _trip(self, hydro, violations: dict) -> None:
        """A sentinel fired: snapshot the state, raise HealthError."""
        state, comms = hydro.state, hydro.comms
        rank = comms.rank
        path = self.snapshot_path
        if path is None:
            path = dump_path(f"rank{rank}")
        # Globalise the *cell* ids for decomposed runs; node-field ids
        # (nonfinite:x/y/u/v) stay local — the rank disambiguates.
        reported = {}
        for name, ids in violations.items():
            field = name.split(":", 1)[1]
            if (self.cell_global is not None
                    and field not in state.FIELDS["node"]):
                reported[name] = [int(self.cell_global[i]) for i in ids]
            else:
                reported[name] = [int(i) for i in ids]
        snapshot = dump_snapshot(hydro, path, rank=rank,
                                 violations=reported)
        raise HealthError(reported, nstep=hydro.nstep, time=hydro.time,
                          snapshot=snapshot,
                          rank=rank if comms.size > 1 else None)
