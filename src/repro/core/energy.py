"""Compatible internal-energy update — BookLeaf's ``getein``.

The internal-energy equation is discretised so the work done by the
corner forces on the nodes is removed from (added to) the cells
*exactly* (Barlow 2008):

    m_c de_c/dt = − Σ_{corners i} F_i · u_i

Using the same forces as ``getacc`` and the time-centred velocity makes
ΔIE = −ΔKE identically, so total energy is conserved to round-off
(modulo boundary work, e.g. the Saltzmann piston, which *should* add
energy).  The artificial-viscosity and hourglass parts of F are
strictly dissipative by construction, so shocks heat the gas correctly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..perf.workspace import Workspace, scratch
from .geometry import corner_dot
from .state import HydroState


def getein(state: HydroState, fx: np.ndarray, fy: np.ndarray,
           cu: np.ndarray, cv: np.ndarray, dt: float,
           ws: Optional[Workspace] = None,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Return the updated specific internal energy after time ``dt``.

    ``fx, fy`` are the corner-major (4, ncell) corner forces and
    ``cu, cv`` the corner velocities consistent with the force
    evaluation: the step's gathered u^n for the predictor half-step
    (``StepCorners.velocities``), ū gathered for the corrector.
    ``out`` may alias ``state.e`` (the work term is fully accumulated
    before the subtraction).
    """
    mesh = state.mesh
    w = scratch(ws)
    work = corner_dot(fx, cu, w.borrow(mesh.ncell), w)
    t = corner_dot(fy, cv, w.borrow(mesh.ncell), w)
    work += t
    work *= dt
    work /= state.cell_mass
    out = np.subtract(state.e, work, out=out)
    w.release(work, t)
    return out
