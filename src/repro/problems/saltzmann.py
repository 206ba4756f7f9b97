"""Saltzmann's piston (Dukowicz & Meltz 1992) — paper Section III-B.

A one-dimensional piston problem deliberately run on the classic
sinusoidally-skewed mesh: a piston advances from the left at unit speed
into a cold γ = 5/3 gas, driving a shock of speed (γ+1)/2 = 4/3 with a
four-fold density jump.  Because the mesh lines are oblique to the
planar shock, hourglass modes are strongly excited — the problem exists
to test the hourglass suppression machinery (sub-zonal pressures and
the Hancock filter), which this setup therefore switches on by default.
"""

from __future__ import annotations

import numpy as np

from ..core.controls import HydroControls
from ..eos.ideal import IdealGas
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import FIX_X, FIX_Y, BoundaryConditions
from ..mesh.generator import saltzmann_mesh
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

GAMMA = 5.0 / 3.0
RHO0 = 1.0
E0 = 1.0e-4
PISTON_SPEED = 1.0


@problem(
    "saltzmann",
    summary="Saltzmann piston on the Dukowicz-Meltz skewed mesh",
    acceptance="strong-shock piston relations "
               "(repro.analytic.saltzmann_exact): shock speed "
               "(gamma+1)/2 and 4x density jump; validated in "
               "tests/integration/test_saltzmann.py",
    reference="Dukowicz & Meltz, J. Comput. Phys. 99 (1992); "
              "paper Section III-B",
    settings=[
        mesh_setting("nx", 100, "mesh cells along the tube"),
        mesh_setting("ny", 10, "mesh cells across the tube"),
        Setting("length", float, 1.0, "tube length"),
        Setting("height", float, 0.1, "tube height"),
        Setting("time_end", float, 0.6, "simulation end time"),
        Setting("subzonal_kappa", float, 1.0, "sub-zonal pressure "
                "strength (hourglass control; 0 disables)"),
        Setting("filter_kappa", float, 0.05, "Hancock hourglass "
                "velocity-filter strength (0 disables)"),
    ],
)
def setup(nx: int = 100, ny: int = 10,
          length: float = 1.0, height: float = 0.1,
          time_end: float = 0.6,
          subzonal_kappa: float = 1.0, filter_kappa: float = 0.05,
          **control_overrides) -> ProblemSetup:
    """Build the Saltzmann piston on the skewed mesh."""
    mesh = saltzmann_mesh(nx, ny, length=length, height=height)
    extents = (0.0, length, 0.0, height)

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    rho = np.full(mesh.ncell, RHO0)
    e = np.full(mesh.ncell, E0)

    # The skewed warp leaves the four walls straight, so classify by
    # coordinates directly.  Piston nodes (x = 0) are fully prescribed
    # at the piston velocity; the other walls reflect.
    tol = 1e-9
    flags = np.zeros(mesh.nnode, dtype=np.int8)
    ux = np.zeros(mesh.nnode)
    uy = np.zeros(mesh.nnode)
    piston = np.abs(mesh.x) <= tol
    flags[piston] |= FIX_X | FIX_Y
    ux[piston] = PISTON_SPEED
    flags[np.abs(mesh.x - length) <= tol] |= FIX_X
    flags[np.abs(mesh.y) <= tol] |= FIX_Y
    flags[np.abs(mesh.y - height) <= tol] |= FIX_Y
    bc = BoundaryConditions(flags, ux, uy)

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-5,
        dt_max=5.0e-3,
        subzonal_kappa=subzonal_kappa,
        filter_kappa=filter_kappa,
    ).with_(**control_overrides)

    # Piston nodes start moving at t=0 (from_initial's apply_velocity
    # sets them from the BC table).
    return ProblemSetup(
        name="saltzmann",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Saltzmann piston on the Dukowicz-Meltz skewed mesh",
        params={"nx": nx, "ny": ny, "time_end": time_end,
                "subzonal_kappa": subzonal_kappa,
                "filter_kappa": filter_kappa},
    )
