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

The geometry and velocities come from the step's
:class:`~repro.core.corners.StepCorners`: the pressure forces are made
in the blocks of its volume gradients, and the hourglass filter reads
its corner velocities instead of gathering its own.  With a
:class:`~repro.perf.workspace.Workspace` the assembled forces and every
hourglass temporary are borrowed from the arena, so repeat calls
allocate nothing.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.workspace import Workspace, scratch
from . import hourglass
from .controls import HydroControls
from .corners import StepCorners


def pressure_forces(dvdx: np.ndarray, dvdy: np.ndarray, p: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Corner forces ``p ∇V`` from a piecewise-constant cell pressure,
    made in place of the volume gradients ``dvdx, dvdy``."""
    dvdx *= p
    dvdy *= p
    return dvdx, dvdy


def getforce(mesh: QuadMesh, corners: StepCorners,
             p: np.ndarray, rho: np.ndarray, cs2: np.ndarray,
             fqx: Optional[np.ndarray], fqy: Optional[np.ndarray],
             corner_mass: np.ndarray, corner_volume: np.ndarray,
             volume: np.ndarray,
             controls: HydroControls,
             ws: Optional[Workspace] = None
             ) -> Tuple[np.ndarray, np.ndarray]:
    """Assemble all corner forces at the geometry and velocities of
    ``corners`` (a :class:`~repro.core.corners.StepCorners`, or its
    half-step view).

    ``fqx, fqy`` are the viscous corner forces from a preceding ``getq``
    call, or ``None`` when the viscosity contributes no corner forces
    (the bulk form).  The volume gradients are taken from ``corners``
    and become the pressure forces; the hourglass remedies read its
    positions and corner velocities.  Returns ``(fx, fy)``, each
    (4, ncell) — borrowed buffers the caller releases when the step is
    done with them.
    """
    ws = scratch(ws)
    fx, fy = pressure_forces(*corners.take("grad_v"), p)
    if fqx is not None:
        fx += fqx
        fy += fqy

    if controls.subzonal_kappa > 0.0:
        sx, sy = hourglass.subzonal_pressure_forces(
            *corners.positions, corner_mass, corner_volume, rho, cs2,
            controls.subzonal_kappa, ws=ws,
        )
        fx += sx
        fy += sy
        ws.release(sx, sy)
    if controls.filter_kappa > 0.0:
        hx, hy = hourglass.hourglass_filter_forces(
            *corners.velocities, rho, cs2, volume, controls.filter_kappa,
            ws=ws,
        )
        fx += hx
        fy += hy
        ws.release(hx, hy)
    return fx, fy
