"""Dependent-variable update — BookLeaf's ``aleupdate``.

After the independent variables (cell mass, internal energy mass,
nodal momentum) have been advected onto the target mesh, everything
derived is rebuilt: coordinates committed, volumes refreshed, density
and specific energy recomputed, corner masses redistributed by the new
subzone volume fractions (uniform sub-zonal density — the standard
post-remap reset), velocities committed with the boundary conditions
re-applied, and pressure/sound speed re-closed through the EoS.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core import geometry
from ..core.density import getrho
from ..core.state import HydroState
from ..eos.multimaterial import MaterialTable
from ..perf.workspace import Workspace, scratch


def aleupdate(state: HydroState, table: MaterialTable,
              x_new: np.ndarray, y_new: np.ndarray,
              mass_new: np.ndarray, energy_mass_new: np.ndarray,
              u_new: np.ndarray, v_new: np.ndarray,
              dencut: float = 0.0,
              ws: Optional[Workspace] = None) -> None:
    """Commit the remapped state in place.

    Every committed array is freshly allocated (the state rebinds to
    it); only the corner gather and the kernel temporaries come from
    the workspace.
    """
    w = scratch(ws)
    mesh = state.mesh
    state.x = x_new
    state.y = y_new
    # The geometry kernels are corner-major; the state keeps (ncell, 4).
    shape = (4, mesh.ncell)
    cx, cy, cvol_cm = w.borrow(shape), w.borrow(shape), w.borrow(shape)
    volume = np.empty(mesh.ncell)
    geometry.getgeom(mesh, x_new, y_new, ws=w, out=(cx, cy, volume, cvol_cm))
    cvol = np.ascontiguousarray(cvol_cm.T)
    w.release(cx, cy, cvol_cm)
    state.volume = volume
    state.corner_volume = cvol
    state.cell_mass = mass_new
    state.rho = getrho(mass_new, volume, dencut)
    state.e = energy_mass_new / mass_new
    state.corner_mass = mass_new[:, None] * (cvol / volume[:, None])
    state.invalidate_node_mass()
    state.u = u_new
    state.v = v_new
    state.bc.apply_velocity(state.u, state.v)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e, ws=w)
