"""The Sedov–Taylor blast wave (Taylor 1950) — paper Section III-B.

A point energy release in a cold uniform gas drives a self-similar
cylindrical blast wave.  BookLeaf computes it on a *Cartesian* mesh
precisely to test shocks that are not aligned with mesh directions.

Setup: one quadrant ``[0, size]²`` with symmetry on the axes.  The
blast energy ``energy`` (measured over the full plane) is deposited in
the cells touching the origin: each origin cell gets
``e = (energy / 4) / (n_origin_cells × cell_mass)``.

In 2-D the shock radius grows as ``r(t) = (E t² / (α ρ₀))^{1/4}`` with
α a γ-dependent constant (≈ 0.984 for γ = 1.4, computed exactly by
:mod:`repro.analytic.sedov_exact`); the density jump at the shock is
the strong-shock limit (γ+1)/(γ−1) = 6.
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
RHO0 = 1.0
E_BACKGROUND = 1.0e-9
#: default full-plane blast energy — chosen so the shock is near r = 0.9
#: at t = 1.0 on the default domain
ENERGY = 0.657


@problem(
    "sedov",
    summary="Sedov blast wave, gamma=1.4, quadrant Cartesian mesh",
    acceptance="Sedov-Taylor similarity solution "
               "(repro.analytic.sedov_exact): shock radius and 6x "
               "density jump; validated in "
               "tests/integration/test_sedov.py",
    reference="Taylor, Proc. R. Soc. A 201 (1950); paper Section III-B",
    settings=[
        mesh_setting("nx", 60, "mesh cells in x"),
        mesh_setting("ny", 60, "mesh cells in y"),
        Setting("size", float, 1.2, "quadrant side length"),
        Setting("energy", float, ENERGY, "full-plane blast energy "
                "deposited at the origin"),
        Setting("time_end", float, 1.0, "simulation end time"),
        Setting("ale_on", bool, False, "enable the ALE remap phase"),
        Setting("subzonal_kappa", float, 1.0, "sub-zonal pressure "
                "strength (hourglass control; 0 disables)"),
    ],
)
def setup(nx: int = 60, ny: int = 60, size: float = 1.2,
          energy: float = ENERGY, time_end: float = 1.0,
          ale_on: bool = False, subzonal_kappa: float = 1.0,
          **control_overrides) -> ProblemSetup:
    """Build the Sedov problem on an ``nx × ny`` quadrant mesh."""
    extents = (0.0, size, 0.0, size)
    mesh = rect_mesh(nx, ny, extents)

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    rho = np.full(mesh.ncell, RHO0)
    e = np.full(mesh.ncell, E_BACKGROUND)

    # Deposit the quadrant's share of the energy in the origin cell(s).
    xc, yc = mesh.cell_centroids()
    dx = size / nx
    dy = size / ny
    origin = (xc < dx) & (yc < dy)
    n_origin = int(origin.sum())
    areas = mesh.cell_areas()
    cell_mass = RHO0 * areas[origin]
    e[origin] = (energy / 4.0) / (n_origin * cell_mass)

    bc = classify_box_boundary(
        mesh, extents, walls={"left": True, "bottom": True}
    )

    # Sub-zonal pressures are on by default: the blast strongly distorts
    # the cells around the deposition point and tangles the mesh before
    # t_end otherwise.
    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-5,
        dt_max=1.0e-2,
        ale_on=ale_on,
        subzonal_kappa=subzonal_kappa,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="sedov",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Sedov blast wave, gamma=1.4, quadrant Cartesian mesh",
        params={"nx": nx, "ny": ny, "energy": energy,
                "time_end": time_end, "ale_on": ale_on},
    )
