"""JWL detonation-products expansion tube.

Completes the EoS coverage: a shock tube entirely inside JWL
detonation products (standard TNT parameters), with a dense,
energetic post-detonation state expanding into pre-expanded, cooler
products:

    left  (x < 0.5): ρ = ρ0 = 1630 kg/m³, e = 4.29 MJ/kg  (~CJ state)
    right (x > 0.5): ρ = 0.1 ρ0,         e = 0.05 × e_L

The left state's ~10 GPa pressure drives a strong shock rightward and
a release wave back into the dense products.  No closed-form solution
exists for the full JWL Riemann problem; validation uses exact
conservation, wave ordering and the thermodynamic consistency checks
(pressure positive, sound speed real throughout the expansion).
"""

from __future__ import annotations

import numpy as np

from ..core.controls import HydroControls
from ..eos.jwl import Jwl
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import classify_box_boundary
from ..mesh.generator import rect_mesh
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

#: standard TNT JWL parameters (SI)
RHO0 = 1630.0
A = 3.712e11
B = 3.231e9
R1 = 4.15
R2 = 0.95
OMEGA = 0.30
E_CJ = 4.29e6          #: ~detonation energy per unit mass

DIAPHRAGM = 0.5
RHO_RIGHT_FRACTION = 0.1
E_RIGHT_FRACTION = 0.05


@problem(
    "jwl_expansion",
    summary="JWL detonation-products expansion tube (TNT params)",
    acceptance="no closed form: exact conservation, wave ordering and "
               "thermodynamic consistency through the expansion "
               "(tests/integration/test_jwl_expansion.py)",
    reference="standard TNT JWL parameter set (SI units)",
    settings=[
        mesh_setting("nx", 200, "mesh cells along the tube"),
        mesh_setting("ny", 2, "mesh cells across the tube"),
        Setting("height", float, 0.05, "tube height"),
        Setting("time_end", float, 4.0e-5, "simulation end time"),
    ],
)
def setup(nx: int = 200, ny: int = 2, height: float = 0.05,
          time_end: float = 4.0e-5, **control_overrides) -> ProblemSetup:
    """Build the JWL expansion tube on an ``nx × ny`` mesh of [0, 1]."""
    extents = (0.0, 1.0, 0.0, height)
    mesh = rect_mesh(nx, ny, extents)
    xc, _ = mesh.cell_centroids()
    left = xc < DIAPHRAGM

    products = Jwl(rho0=RHO0, a=A, b=B, r1=R1, r2=R2, omega=OMEGA)
    table = MaterialTable(pcut=1.0)
    table.add(products)

    rho = np.where(left, RHO0, RHO_RIGHT_FRACTION * RHO0)
    e = np.where(left, E_CJ, E_RIGHT_FRACTION * E_CJ)
    bc = classify_box_boundary(mesh, extents)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-10,
        dt_max=1.0e-6,
        pcut=1.0,
        dencut=1.0e-3,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="jwl_expansion",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="JWL detonation-products expansion tube (TNT params)",
        params={"nx": nx, "ny": ny, "time_end": time_end},
    )
