"""Sod's shock tube (Sod 1978) — paper Section III-B.

Two ideal gases at rest separated by a diaphragm at ``x = 0.5``:

    left  (x < 0.5):  ρ = 1.0,   p = 1.0
    right (x > 0.5):  ρ = 0.125, p = 0.1        γ = 1.4

Removing the diaphragm launches a right-moving shock and contact and a
left-moving rarefaction.  This is BookLeaf's fundamental shock test and
the problem used for the paper's strong-scaling study (Figs 3–4).

The 2-D setup is a thin tube ``[0, 1] × [0, height]`` of ``nx × ny``
cells with reflecting walls; the solution stays one-dimensional.
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

GAMMA = 1.4
RHO_L, P_L = 1.0, 1.0
RHO_R, P_R = 0.125, 0.1
DIAPHRAGM = 0.5


@problem(
    "sod",
    summary="Sod shock tube, gamma=1.4, diaphragm at x=0.5",
    acceptance="exact Riemann solution "
               "(repro.analytic.riemann.sod_solution); density L1 error "
               "and convergence ladder in tests/integration/test_sod.py",
    reference="Sod, J. Comput. Phys. 27 (1978); paper Section III-B",
    settings=[
        mesh_setting("nx", 100, "mesh cells along the tube"),
        mesh_setting("ny", 4, "mesh cells across the tube"),
        Setting("height", float, 0.1, "tube height (domain is [0,1] x "
                "[0, height])"),
        Setting("time_end", float, 0.2, "simulation end time"),
        Setting("ale_on", bool, False, "enable the ALE remap phase"),
    ],
)
def setup(nx: int = 100, ny: int = 4, height: float = 0.1,
          time_end: float = 0.2, ale_on: bool = False,
          **control_overrides) -> ProblemSetup:
    """Build the Sod problem on an ``nx × ny`` tube mesh."""
    extents = (0.0, 1.0, 0.0, height)
    mesh = rect_mesh(nx, ny, extents)
    xc, _ = mesh.cell_centroids()
    left = xc < DIAPHRAGM

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    rho = np.where(left, RHO_L, RHO_R)
    p = np.where(left, P_L, P_R)
    e = gas.energy_from_pressure(rho, p)
    bc = classify_box_boundary(mesh, extents)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-4,
        dt_max=1.0e-2,
        ale_on=ale_on,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="sod",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Sod shock tube, gamma=1.4, diaphragm at x=0.5",
        params={"nx": nx, "ny": ny, "time_end": time_end, "ale_on": ale_on},
    )
