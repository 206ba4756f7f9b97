"""The Noh implosion problem (Noh 1987) — paper Section III-B.

A cold ideal gas (γ = 5/3) of unit density converges radially inward
with unit speed onto the origin.  An infinite-strength shock forms and
moves outward at speed 1/3; behind it (2-D cylindrical geometry)
ρ = 16, u = 0, e = ½; ahead of it the converging flow compresses
geometrically to ρ = 1 + t/r.

The problem famously exposes *wall heating* — the over-heated,
under-dense cells artificial-viscosity methods leave at the origin —
which is exactly why BookLeaf ships it, and it is the problem used for
the paper's single-node performance study (Table II, Figs 1–2).

Setup: one quadrant ``[0, 1]²`` with symmetry (reflecting) conditions
on the two axes and a free outer boundary.
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
RHO0 = 1.0
E0 = 1.0e-9      #: tiny initial energy (the exact problem is cold)
U0 = 1.0         #: inward radial speed


@problem(
    "noh",
    summary="Noh implosion, gamma=5/3, quadrant with axis symmetry",
    acceptance="exact Noh solution (repro.analytic.noh_exact): rho=16 "
               "plateau, shock at t/3; validated in "
               "tests/integration/test_noh.py",
    reference="Noh, J. Comput. Phys. 72 (1987); paper Section III-B",
    settings=[
        mesh_setting("nx", 50, "mesh cells in x"),
        mesh_setting("ny", 50, "mesh cells in y"),
        Setting("size", float, 1.0, "quadrant side length"),
        Setting("time_end", float, 0.6, "simulation end time"),
        Setting("ale_on", bool, False, "enable the ALE remap phase"),
        Setting("subzonal_kappa", float, 1.0, "sub-zonal pressure "
                "strength (hourglass control; 0 disables)"),
    ],
)
def setup(nx: int = 50, ny: int = 50, size: float = 1.0,
          time_end: float = 0.6, ale_on: bool = False,
          subzonal_kappa: float = 1.0,
          **control_overrides) -> ProblemSetup:
    """Build the Noh problem on an ``nx × ny`` quadrant mesh."""
    extents = (0.0, size, 0.0, size)
    mesh = rect_mesh(nx, ny, extents)

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    rho = np.full(mesh.ncell, RHO0)
    e = np.full(mesh.ncell, E0)

    # u = -r̂ everywhere except the origin node (where r̂ is undefined).
    r = np.hypot(mesh.x, mesh.y)
    safe = np.maximum(r, 1e-300)
    u = np.where(r > 0.0, -U0 * mesh.x / safe, 0.0)
    v = np.where(r > 0.0, -U0 * mesh.y / safe, 0.0)

    bc = classify_box_boundary(
        mesh, extents, walls={"left": True, "bottom": True}
    )

    # Sub-zonal pressures are on by default: the converging flow drives
    # strong mesh distortion at the origin that tangles the mesh before
    # t_end otherwise (the same reason BookLeaf carries the machinery).
    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-4,
        dt_max=1.0e-2,
        ale_on=ale_on,
        subzonal_kappa=subzonal_kappa,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="noh",
        initial=Initial(mesh, rho, e, u=u, v=v, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Noh implosion, gamma=5/3, quadrant with axis symmetry",
        params={"nx": nx, "ny": ny, "time_end": time_end, "ale_on": ale_on},
    )
