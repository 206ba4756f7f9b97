"""The LeBlanc shock tube — the "shock tube from hell".

An extreme Riemann problem (γ = 5/3) with an eight-orders-of-magnitude
pressure ratio and a thousand-fold density ratio:

    left  (x < 3):  ρ = 1.0,    e = 0.1      (p = 2/30)
    right (x > 3):  ρ = 1e-3,   e = 1e-7     (p ≈ 6.67e-11)

on the domain [0, 9], run to t = 6.  The exact solution (from the same
Riemann machinery as Sod) has a very strong right-moving shock near
x = 8 at t = 6 and a deep rarefaction.  LeBlanc is a standard
*extension* test for Lagrangian hydro codes beyond BookLeaf's four
bundled problems — it stresses the energy floor, the viscosity
limiter and the timestep controls far harder than Sod.
"""

from __future__ import annotations

import numpy as np

from ..core.controls import HydroControls
from ..eos.ideal import IdealGas
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import classify_box_boundary
from ..mesh.generator import rect_mesh
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

GAMMA = 5.0 / 3.0
RHO_L, E_L = 1.0, 0.1
RHO_R, E_R = 1.0e-3, 1.0e-7
INTERFACE = 3.0
LENGTH = 9.0


@problem(
    "leblanc",
    summary="LeBlanc extreme shock tube, gamma=5/3",
    acceptance="exact Riemann solution (repro.analytic.riemann) for the "
               "1e8 pressure-ratio data; wave positions checked in "
               "tests/integration/test_extension_problems.py",
    reference="the standard 'shock tube from hell' extension test",
    settings=[
        mesh_setting("nx", 360, "mesh cells along the tube"),
        mesh_setting("ny", 2, "mesh cells across the tube"),
        Setting("height", float, 0.25, "tube height (domain is [0,9] x "
                "[0, height])"),
        Setting("time_end", float, 6.0, "simulation end time"),
    ],
)
def setup(nx: int = 360, ny: int = 2, height: float = 0.25,
          time_end: float = 6.0, **control_overrides) -> ProblemSetup:
    """Build the LeBlanc tube on an ``nx × ny`` mesh of [0, 9]."""
    extents = (0.0, LENGTH, 0.0, height)
    mesh = rect_mesh(nx, ny, extents)
    xc, _ = mesh.cell_centroids()
    left = xc < INTERFACE

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    rho = np.where(left, RHO_L, RHO_R)
    e = np.where(left, E_L, E_R)
    bc = classify_box_boundary(mesh, extents)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-4,
        dt_max=5.0e-2,
        # the huge jumps need a careful CFL and the density floor
        cfl_safety=0.4,
        dencut=1.0e-9,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="leblanc",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="LeBlanc extreme shock tube, gamma=5/3",
        params={"nx": nx, "ny": ny, "time_end": time_end},
    )
