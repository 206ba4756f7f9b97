"""Kidder's isentropic shell compression (Kidder 1976).

A cylindrical shell of γ = 2 ideal gas between radii 0.9 and 1.0 is
compressed isentropically: every fluid particle moves homothetically,
``R(r, t) = h(t) r`` with ``h = sqrt(1 − t²/τ²)``, and the whole shell
focuses onto the axis at τ ≈ 7.265 × 10⁻³
(:mod:`repro.analytic.kidder_exact` derives the solution and the
default boundary states).  Because the flow is smooth and isentropic,
the problem measures exactly what shock problems cannot: whether the
artificial viscosity's limiter really switches off in smooth
compression and whether the scheme tracks an analytic *ALE-free*
large-deformation flow — which is why the cell-centred-Lagrangian
literature (Maire 2009; Boscheri & Dumbser, arXiv:1408.3719) uses it
as its standard accuracy test.

Setup: one quadrant of the shell on a polar mesh
(:func:`~repro.mesh.generator.shell_mesh`) with symmetry walls on both
axes.  The inner and outer arcs are *kinematically driven* with the
exact self-similar velocity ``u = ḣ(t) r`` through a time-dependent
boundary driver (the staggered-scheme equivalent of the analytic
pressure boundary condition), so the interior solution is the scheme's
to get right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analytic import kidder_exact
from ..core.controls import HydroControls
from ..eos.ideal import IdealGas
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import FIX_X, FIX_Y, BoundaryConditions
from ..mesh.generator import shell_mesh
from .base import Initial, ProblemSetup
from .registry import Setting, mesh_setting, problem

GAMMA = kidder_exact.GAMMA          #: γ = 2, required by self-similarity
R1 = kidder_exact.R1
R2 = kidder_exact.R2
TAU = kidder_exact.TAU              #: focalisation time (≈ 7.2648e-3)
#: default end time τ/2, where h = sqrt(3)/2 ≈ 0.866
TIME_END = 0.5 * TAU


@dataclass
class ShellDriver:
    """Time-dependent radial boundary driver ``u = ḣ(t) (x0, y0)``.

    ``(x0, y0)`` are the *initial* node coordinates (the Lagrangian
    radii times the fixed angular unit vectors — driven nodes move
    radially, so the direction never changes).
    """

    x0: np.ndarray
    y0: np.ndarray
    tau: float

    def velocities(self, t: float):
        hdot = kidder_exact.scale_rate(t, self.tau)
        return hdot * self.x0, hdot * self.y0

    def subset(self, nodes: np.ndarray) -> "ShellDriver":
        return ShellDriver(self.x0[nodes], self.y0[nodes], self.tau)


@problem(
    "kidder",
    summary="Kidder isentropic shell compression, gamma=2, polar mesh",
    acceptance="exact self-similar solution "
               "(repro.analytic.kidder_exact): shell radii follow "
               "h(t) = sqrt(1 - t^2/tau^2) and the density field "
               "matches h^(-2) rho0(R/h); gated in "
               "tests/integration/test_kidder.py",
    reference="Kidder, Nucl. Fusion 16 (1976); Maire, JCP 228 (2009)",
    settings=[
        mesh_setting("nx", 10, "radial mesh cells across the shell"),
        mesh_setting("ny", 12, "angular mesh cells around the quadrant"),
        Setting("time_end", float, TIME_END, "simulation end time "
                "(must stay below the focalisation time tau ~ 7.265e-3; "
                "default tau/2)"),
    ],
)
def setup(nx: int = 10, ny: int = 12, time_end: float = TIME_END,
          **control_overrides) -> ProblemSetup:
    """Build the Kidder shell on an ``nx × ny`` polar quadrant mesh."""
    mesh = shell_mesh(nx, ny, R1, R2)
    extents = (0.0, R2, 0.0, R2)

    gas = IdealGas(GAMMA)
    table = MaterialTable()
    table.add(gas)

    xc, yc = mesh.cell_centroids()
    rc = np.hypot(xc, yc)
    rho = kidder_exact.shell_density(rc)
    e = kidder_exact.shell_pressure(rc) / ((GAMMA - 1.0) * rho)

    # Symmetry walls on the axes; both arcs are fully prescribed and
    # driven radially with the exact boundary velocity (zero at t = 0 —
    # the shell starts at rest).
    r_node = np.hypot(mesh.x, mesh.y)
    tol = 1.0e-9
    flags = np.zeros(mesh.nnode, dtype=np.int8)
    flags[np.abs(mesh.y) <= tol] |= FIX_Y
    flags[np.abs(mesh.x) <= tol] |= FIX_X
    arcs = (np.abs(r_node - R1) <= tol) | (np.abs(r_node - R2) <= tol)
    flags[arcs] |= FIX_X | FIX_Y
    bc = BoundaryConditions(
        flags, driver=ShellDriver(mesh.x.copy(), mesh.y.copy(), TAU)
    )

    controls = HydroControls(
        time_end=time_end,
        dt_initial=1.0e-5,
        dt_max=1.0e-4,
    ).with_(**control_overrides)

    return ProblemSetup(
        name="kidder",
        initial=Initial(mesh, rho, e, bc=bc),
        table=table,
        controls=controls,
        extents=extents,
        description="Kidder isentropic shell compression, gamma=2",
        params={"nx": nx, "ny": ny, "time_end": time_end},
    )
