"""Triple-point shock interaction: the canonical vorticity/ALE test.

Three ideal-gas regions meet at the point (1, 1.5) of a [0, 7] × [0, 3]
box (Loubère's standard configuration):

    left   (x < 1):          γ = 1.5, ρ = 1,     p = 1     (driver)
    bottom (x > 1, y < 1.5): γ = 1.4, ρ = 1,     p = 0.1
    top    (x > 1, y > 1.5): γ = 1.5, ρ = 0.125, p = 0.1

The high-pressure driver launches a shock into both low-pressure
regions; because the bottom region is denser, its shock lags, shearing
the horizontal material interface into a rolled-up vortex around the
triple point.  The vortex winds the Lagrangian mesh severely — this is
*the* standard stress test for hourglass control and ALE relaxation in
multi-material staggered codes, and a three-material workout for the
mixed-cell machinery.  There is no closed-form solution; validation is
by conservation, wave ordering and the (well-documented) vortex
morphology.
"""

from __future__ import annotations

import numpy as np

from ..core.controls import HydroControls
from ..eos.ideal import IdealGas
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import classify_box_boundary
from ..mesh.generator import rect_mesh
from ..mesh.regions import Region, assign_regions, box
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

#: material indices in the table
LEFT, BOTTOM, TOP = 0, 1, 2

GAMMA_LEFT = 1.5
GAMMA_BOTTOM = 1.4
GAMMA_TOP = 1.5
X_INTERFACE = 1.0
Y_INTERFACE = 1.5


@problem(
    "triple_point",
    summary="Three-material triple-point shock interaction",
    acceptance="no closed form: exact conservation, shock ordering "
               "(fast shock in the light top region, lagging shock in "
               "the dense bottom region) and vortex roll-up at the "
               "triple point (tests/integration/test_extension_problems.py)",
    reference="Loubere et al., J. Comput. Phys. 229 (2010); "
              "Galera, Maire & Breil, J. Comput. Phys. 229 (2010)",
    settings=[
        mesh_setting("nx", 70, "mesh cells along x (domain [0, 7])"),
        mesh_setting("ny", 30, "mesh cells along y (domain [0, 3])"),
        Setting("time_end", float, 3.5, "simulation end time "
                "(the reference vortex is usually shown at t = 3.5-5)"),
        Setting("ale_on", bool, False, "enable the ALE remap phase "
                "(recommended past t ~ 4, where the Lagrangian mesh "
                "tangles)"),
        Setting("subzonal_kappa", float, 1.0,
                "sub-zonal-pressure hourglass control strength"),
    ],
)
def setup(nx: int = 70, ny: int = 30, time_end: float = 3.5,
          ale_on: bool = False, subzonal_kappa: float = 1.0,
          **control_overrides) -> ProblemSetup:
    """Build the triple point on an ``nx × ny`` mesh of [0, 7] × [0, 3]."""
    extents = (0.0, 7.0, 0.0, 3.0)
    mesh = rect_mesh(nx, ny, extents)

    table = MaterialTable()
    table.add(IdealGas(GAMMA_LEFT))
    table.add(IdealGas(GAMMA_BOTTOM))
    table.add(IdealGas(GAMMA_TOP))

    regions = [
        Region(where=box(-np.inf, X_INTERFACE), material=LEFT,
               rho=1.0, p=1.0, name="driver"),
        Region(where=box(X_INTERFACE, np.inf, -np.inf, Y_INTERFACE),
               material=BOTTOM, rho=1.0, p=0.1, name="bottom"),
        Region(where=box(X_INTERFACE, np.inf, Y_INTERFACE, np.inf),
               material=TOP, rho=0.125, p=0.1, name="top"),
    ]
    mat, rho, e, u, v = assign_regions(mesh, table, regions)
    bc = classify_box_boundary(mesh, extents)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-4,
        dt_max=1.0e-2,
        ale_on=ale_on,
        subzonal_kappa=subzonal_kappa,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="triple_point",
        initial=Initial(mesh, rho, e, mat=mat, u=u, v=v, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Three-material triple-point shock interaction",
        params={"nx": nx, "ny": ny, "time_end": time_end,
                "ale_on": ale_on},
    )
