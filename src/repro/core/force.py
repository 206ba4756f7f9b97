"""Corner-force assembly — BookLeaf's ``getforce`` kernel.

Everything that accelerates nodes is expressed as *corner forces*: a
pair of corner-major (4, ncell) arrays giving the force each cell
exerts on each of its corners.  The compatible discretisation (Barlow
2008; paper Section III-A) then uses the same corner forces twice —
scattered to nodes for the momentum equation (``getacc``) and dotted
with nodal velocities for the internal-energy equation (``getein``) —
which is what makes total energy conservation exact to round-off.

Contributions:

* cell pressure:   ``F_i = p ∂V/∂x_i``,
* artificial viscosity: the edge corner forces computed by ``getq``
  (a *separate* kernel, as in the paper's Algorithm 1 — ``getq`` is
  timed on its own and is the dominant cost in Table II).  A ``None``
  pair means "no viscous corner forces" (the bulk-viscosity form folds
  its q into the cell pressure instead) and skips the add entirely,
* hourglass control: :mod:`repro.core.hourglass` (both remedies
  optional via the controls).

With a :class:`~repro.perf.workspace.Workspace` the assembled forces
and every hourglass temporary are borrowed from the arena, so repeat
calls allocate nothing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.workspace import Workspace, scratch
from . import geometry, hourglass
from .controls import HydroControls


def pressure_forces(cx: np.ndarray, cy: np.ndarray, p: np.ndarray,
                    out: Optional[Tuple[np.ndarray, np.ndarray]] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Corner forces from a piecewise-constant cell pressure."""
    fx, fy = geometry.volume_gradients(cx, cy, out=out)
    fx *= p
    fy *= p
    return fx, fy


def getforce(mesh: QuadMesh, cx: np.ndarray, cy: np.ndarray,
             u: np.ndarray, v: np.ndarray,
             p: np.ndarray, rho: np.ndarray, cs2: np.ndarray,
             fqx: Optional[np.ndarray], fqy: Optional[np.ndarray],
             corner_mass: np.ndarray, corner_volume: np.ndarray,
             volume: np.ndarray,
             controls: HydroControls,
             ws: Optional[Workspace] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble all corner forces at the given geometry and velocities.

    ``fqx, fqy`` are the viscous corner forces from a preceding ``getq``
    call, or ``None`` when the viscosity contributes no corner forces
    (the bulk form).  Returns ``(fx, fy)``, each (4, ncell) — borrowed
    buffers the caller releases when the step is done with them.
    """
    ws = scratch(ws)
    shape = (4, mesh.ncell)
    fx, fy = pressure_forces(
        cx, cy, p, out=(ws.borrow(shape), ws.borrow(shape)))
    if fqx is not None:
        fx += fqx
        fy += fqy

    if controls.subzonal_kappa > 0.0:
        sx, sy = hourglass.subzonal_pressure_forces(
            cx, cy, corner_mass, corner_volume, rho, cs2,
            controls.subzonal_kappa, ws=ws,
        )
        fx += sx
        fy += sy
        ws.release(sx, sy)
    if controls.filter_kappa > 0.0:
        cu = mesh.plans.gather(u, out=ws.borrow(shape))
        cv = mesh.plans.gather(v, out=ws.borrow(shape))
        hx, hy = hourglass.hourglass_filter_forces(
            cu, cv, rho, cs2, volume, controls.filter_kappa, ws=ws
        )
        fx += hx
        fy += hy
        ws.release(cu, cv, hx, hy)
    return fx, fy
