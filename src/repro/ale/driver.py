"""The ALE step driver — BookLeaf's ``alestep`` (Algorithm 1).

Orchestrates the remap after a Lagrangian step:

    ALEGETMESH  — choose the target mesh (Eulerian or relaxed),
    ALEGETFVOL  — swept flux volumes for primal faces and dual faces,
    ALEADVECT   — advect the independent variables (mass, energy,
                  nodal momentum),
    ALEUPDATE   — rebuild every dependent variable on the new mesh.

The driver enforces the remap's validity conditions: boundary faces
must sweep (numerically) zero volume and no face may sweep more than a
fraction of its adjacent cells' volume — violating either means the
mesh moved too far between remaps; the error names the face's cells
and the setting that would help (a smaller ``ale_every``, a smaller
``ale_relax``, or the ``relax`` mesh mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.comms import SerialComms
from ..core.controls import HydroControls
from ..core.state import HydroState
from ..eos.multimaterial import MaterialTable
from ..perf.workspace import scratch
from ..utils.errors import BookLeafError
from ..utils.timers import TimerRegistry
from .advect_cell import advect_cells
from .advect_node import advect_momentum
from .fluxvol import dual_flux_volumes, face_flux_volumes, median_points
from .getmesh import select_target
from .update import aleupdate

#: max |flux volume| as a fraction of the smaller adjacent cell volume
FLUX_VOLUME_LIMIT = 0.45


@dataclass
class AleStep:
    """A configured remap operator; ``apply`` runs one remap in place."""

    table: MaterialTable
    mode: str = "eulerian"
    relax: float = 0.25
    dencut: float = 0.0
    #: initial node coordinates (the Eulerian target)
    x0: np.ndarray = field(default=None)  # type: ignore[assignment]
    y0: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: the remap cadence the step loop applies (``ale_every``), quoted
    #: only in the flux-volume error's advice
    every: int = 1

    @classmethod
    def from_controls(cls, state: HydroState, controls: HydroControls,
                      table: MaterialTable, every: int = 1) -> "AleStep":
        return cls(
            table=table,
            mode=controls.ale_mode,
            relax=controls.ale_relax,
            every=every,
            dencut=controls.dencut,
            x0=state.x.copy(),
            y0=state.y.copy(),
        )

    def apply(self, state: HydroState, dt: float,
              timers: Optional[TimerRegistry] = None,
              comms=None, ws=None) -> bool:
        """Remap ``state`` onto the target mesh; returns False if the
        mesh had not moved (nothing to do).

        With a distributed ``comms`` (Eulerian mode only) the ghost
        kinematics, thermodynamics and reconstruction gradients are
        refreshed from their owner ranks and the nodal remap sums are
        completed across ranks, keeping the remap globally conservative.
        """
        timers = timers if timers is not None else TimerRegistry(enabled=False)
        comms = comms if comms is not None else SerialComms()
        mesh = state.mesh
        w = scratch(ws)
        if comms.size > 1 and self.mode != "eulerian":
            raise BookLeafError(
                "decomposed remaps support the 'eulerian' mesh mode only "
                "(relaxation needs neighbour averages across ranks)"
            )

        with timers.region("exchange"):
            # Ghost node positions moved with u^n during the step;
            # refresh them (and the dependent volumes) exactly, then
            # pull the ghosts' post-Lagrangian thermodynamics.  Both
            # halos are in flight at once: the geometry refresh needs
            # the ghost coordinates, so it sits after the kinematic
            # complete but overlaps the (larger) cell-field exchange.
            comms.post_kinematics(state)
            comms.post_cell_fields(state)
            stale, _ = comms.complete_kinematics(state)
            if stale.size:
                state.refresh_geometry()
            comms.complete_cell_fields(state)

        with timers.region("alegetmesh"):
            x_t, y_t = select_target(
                state, self.mode, self.relax, self.x0, self.y0,
                boundary_sides=comms.physical_boundary_sides(state))
            # The skip decision must be collective: a quiet rank
            # bailing out while others remap would desynchronise the
            # barrier sequence.
            moved = comms.allreduce_max(max(
                float(np.abs(x_t - state.x).max()),
                float(np.abs(y_t - state.y).max()),
            ))
            if moved < 1e-15:
                # Marker (not a span): the remap was due but the mesh
                # had not moved — visible in traces as an instant event.
                timers.instant("ale.skip", args={"moved": moved})
                return False

        with timers.region("alegetfvol"):
            fv, fvb, swept = face_flux_volumes(mesh, state.x, state.y,
                                               x_t, y_t)
            scale = float(state.volume.min())
            side_mask = comms.physical_boundary_side_mask(state)
            fvb_check = fvb[side_mask] if side_mask is not None else fvb
            if fvb_check.size and float(np.abs(fvb_check).max()) > 1e-12 * scale:
                raise BookLeafError(
                    "remap target moves the domain boundary "
                    f"(max boundary sweep {np.abs(fvb_check).max():.3e})"
                )
            self._check_flux_volumes(state, fv)
            old = median_points(mesh, state.x, state.y, ws=w)
            new = median_points(mesh, x_t, y_t, ws=w)
            dual_fv = dual_flux_volumes(old, new, ws=w)
            w.release(*new, *old[:2])

        with timers.region("aleadvect"):
            # Momentum first: the dual fluxes' block is then free for
            # the cell remap's temporaries (the two are independent).
            u_new, v_new, _ = advect_momentum(state, dual_fv, comms=comms,
                                              ws=w)
            w.release(dual_fv)
            mass_new, energy_new = advect_cells(
                mesh, old[2:], swept, fv,
                state.cell_mass, state.rho, state.e, comms=comms, ws=w,
            )
            w.release(*old[2:])

        with timers.region("aleupdate"):
            aleupdate(state, self.table, x_t, y_t, mass_new, energy_new,
                      u_new, v_new, self.dencut, ws=w)
        return True

    def _check_flux_volumes(self, state: HydroState,
                            fv: np.ndarray) -> None:
        """Refuse a remap whose faces sweep more than
        :data:`FLUX_VOLUME_LIMIT` of an adjacent cell, naming the worst
        face's cells and the advice that fits this remap's settings."""
        cells = state.mesh.face_cells
        vmin = np.minimum(state.volume[cells[:, 0]],
                          state.volume[cells[:, 1]])
        if not (fv.size and np.any(np.abs(fv) > FLUX_VOLUME_LIMIT * vmin)):
            return
        worst = int(np.argmax(np.abs(fv) / vmin))
        a, b = (int(c) for c in cells[worst])
        small = a if state.volume[a] <= state.volume[b] else b
        fraction = abs(fv[worst]) / state.volume[small]
        advice = []
        if self.every > 1:
            advice.append(f"remap more often (ale_every = {self.every})")
        if self.mode == "relax":
            advice.append(f"relax less (ale_relax = {self.relax:g})")
        else:
            advice.append("remap towards a relaxed mesh instead of the "
                          "initial one (ale_mode = \"relax\")")
        raise BookLeafError(
            "remap flux volume exceeds "
            f"{FLUX_VOLUME_LIMIT:.0%} of a cell volume: the face between "
            f"cells {a} and {b} sweeps {fraction:.2f} of cell {small} — "
            + " or ".join(advice)
        )
