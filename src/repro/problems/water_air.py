"""Water–air shock tube: a genuine multi-material problem.

Exercises BookLeaf's multi-material machinery — the Tait EoS next to
an ideal gas in one calculation — which the four bundled problems
(all single ideal gas) do not:

    left  (x < 0.5):  water (Tait, ρ0 = 1000), pressurised to p_L
    right (x > 0.5):  air   (ideal, γ = 1.4),  ρ = 1.2, p = 1e5

Bursting the diaphragm drives a shock into the air and a weak
rarefaction back into the (stiff) water; the interface accelerates to
the contact velocity.  There is no simple closed-form solution for the
mixed-EoS case, so validation relies on exact conservation, pressure
continuity across the material interface and the physically-required
wave ordering.
"""

from __future__ import annotations

import numpy as np

from ..core.controls import HydroControls
from ..eos.ideal import IdealGas
from ..eos.multimaterial import MaterialTable
from ..eos.tait import Tait
from ..mesh.boundary import classify_box_boundary
from ..mesh.generator import rect_mesh
from ..mesh.regions import Region, box
from ..mesh.regions import assign_regions
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

GAMMA_AIR = 1.4
RHO_AIR, P_AIR = 1.2, 1.0e5
RHO0_WATER = 1000.0
A1_WATER = 3.31e8
A3_WATER = 7.0
P_WATER = 1.0e7
DIAPHRAGM = 0.5

#: material indices in the table
WATER, AIR = 0, 1


@problem(
    "water_air",
    summary="Water-air shock tube (Tait + ideal gas)",
    acceptance="no closed form: exact conservation, pressure continuity "
               "across the material interface and physical wave "
               "ordering (tests/integration/test_extension_problems.py)",
    reference="standard stiff multi-material interface test",
    settings=[
        mesh_setting("nx", 200, "mesh cells along the tube"),
        mesh_setting("ny", 2, "mesh cells across the tube"),
        Setting("height", float, 0.05, "tube height"),
        Setting("time_end", float, 2.0e-4, "simulation end time"),
        Setting("p_water", float, P_WATER, "initial water-side "
                "pressure (sets the shock strength)"),
    ],
)
def setup(nx: int = 200, ny: int = 2, height: float = 0.05,
          time_end: float = 2.0e-4, p_water: float = P_WATER,
          **control_overrides) -> ProblemSetup:
    """Build the water–air tube on an ``nx × ny`` mesh of [0, 1]."""
    extents = (0.0, 1.0, 0.0, height)
    mesh = rect_mesh(nx, ny, extents)

    water = Tait(rho0=RHO0_WATER, a1=A1_WATER, a3=A3_WATER)
    air = IdealGas(GAMMA_AIR)
    table = MaterialTable(pcut=1.0e-3)
    table.add(water)
    table.add(air)

    rho_water = float(water.density_from_pressure(np.array([p_water]))[0])
    regions = [
        Region(where=box(-np.inf, DIAPHRAGM), material=WATER,
               rho=rho_water, p=p_water, name="water"),
        Region(where=box(DIAPHRAGM, np.inf), material=AIR,
               rho=RHO_AIR, p=P_AIR, name="air"),
    ]
    mat, rho, e, u, v = assign_regions(mesh, table, regions)
    bc = classify_box_boundary(mesh, extents)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-8,
        dt_max=1.0e-5,
        pcut=1.0e-3,
        dencut=1.0e-6,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="water_air",
        initial=Initial(mesh, rho, e, mat=mat, u=u, v=v, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Water-air shock tube (Tait + ideal gas)",
        params={"nx": nx, "ny": ny, "time_end": time_end,
                "p_water": p_water},
    )
