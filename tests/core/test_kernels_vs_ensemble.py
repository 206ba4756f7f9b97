"""Per-kernel bit-identity: ``repro.core`` against the ensemble N=1 lane.

The whole-run contract (``tests/ensemble/test_bit_identity.py``) says a
serial run and an ensemble lane end in the same bytes; when it breaks
it does not say *where*.  This is the same comparison one kernel at a
time: ``repro.core`` computes corner-major, (4, ncell), through the
buffer arena; ``repro.ensemble.kernels`` states the same expressions
workspace-free on (1, ncell, 4) arrays, with numpy's own ``einsum``,
matvec and length-4 reductions where core spells the association out
in row operations.  Every output must agree to the last bit — on a
rectangular grid, on the same grid with its nodes permuted (no
structured-grid shortcuts) and on the pinwheel mesh (irregular
valence).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import geometry, viscosity
from repro.core.controls import HydroControls
from repro.core.energy import getein
from repro.core.force import getforce
from repro.core.hourglass import (GAMMA, hourglass_filter_forces,
                                  subzonal_pressure_forces)
from repro.core.state import HydroState
from repro.core.timestep import getdt
from repro.ensemble import kernels
from repro.ensemble.timestep import getdt_batch
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import pinwheel_mesh, rect_mesh
from repro.perf.workspace import Workspace
from tests.conftest import renumbered_mesh

MESHES = {
    "grid": lambda: rect_mesh(9, 7),
    "permuted": lambda: renumbered_mesh(rect_mesh(9, 7), seed=3),
    "pinwheel": lambda: pinwheel_mesh(nquads=5),
}

CONTROLS = HydroControls(subzonal_kappa=0.3, filter_kappa=0.2,
                         cq1=0.3, cq2=0.7)


@pytest.fixture(params=sorted(MESHES))
def case(request):
    """A gas blob compressing on the left and expanding on the right,
    with noise, distorted corner masses and a non-zero q — active and
    inactive edges, and generic operands in every kernel."""
    mesh = MESHES[request.param]()
    table = MaterialTable()
    table.add(IdealGas(1.4))
    rng = np.random.default_rng(17)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell)
    e = table.eos[0].energy_from_pressure(rho, 1.0 + rng.random(mesh.ncell))
    xm, ym = mesh.x.mean(), mesh.y.mean()
    u = (-0.5 * np.sign(xm - mesh.x) * (mesh.x - xm)
         + 0.02 * rng.standard_normal(mesh.nnode))
    v = -0.1 * (mesh.y - ym) + 0.02 * rng.standard_normal(mesh.nnode)
    state = HydroState.from_initial(mesh, table, rho, e, u=u, v=v)
    state.corner_mass *= 1.0 + 0.2 * rng.random((mesh.ncell, 4))
    state.q[:] = 0.1 * rng.random(mesh.ncell)
    gamma = table.gamma_like(state.mat)

    lane = SimpleNamespace(
        geom=kernels.build_geom(np, mesh.cell_nodes, state.x[None],
                                state.y[None]),
        vc=kernels.velocity_edge_cache(np, mesh.cell_nodes, state.u[None],
                                       state.v[None]),
        lim=mesh.plans.limiter_nodes,
        cquad=(CONTROLS.cq2 * (gamma + 1.0) * 0.25)[None],
        cq1_col=np.array([[CONTROLS.cq1]]),
    )
    return SimpleNamespace(mesh=mesh, state=state, gamma=gamma, lane=lane,
                           ws=Workspace())


def _same(core_corner_major, lane_array):
    """Corner-major core output == lane 0 of the (1, ncell, 4) output."""
    return np.array_equal(core_corner_major, lane_array[0].T)


def _lane_getq(c, sparse_max):
    lane, s = c.lane, c.state
    old = kernels.SPARSE_MAX_FRACTION
    kernels.SPARSE_MAX_FRACTION = sparse_max
    try:
        return kernels.getq(
            np, lane.geom, lane.vc, s.u[None], s.v[None], s.rho[None],
            s.cs2[None], lane.cquad, lane.cq1_col[:, :, None],
            lane.cq1_col.reshape(-1), True, lane.lim,
            tuple(a.reshape(-1) for a in lane.lim))
    finally:
        kernels.SPARSE_MAX_FRACTION = old


def _core_forces(c):
    """getq + getforce (both hourglass remedies on) through the arena."""
    s, mesh = c.state, c.mesh
    cx, cy, volume, cvol = geometry.getgeom(mesh, s.x, s.y, ws=c.ws)
    fqx, fqy, q_cell = viscosity.getq(
        mesh, cx, cy, s.u, s.v, s.rho, s.cs2, c.gamma,
        CONTROLS.cq1, CONTROLS.cq2, True, ws=c.ws)
    fx, fy = getforce(mesh, cx, cy, s.u, s.v, s.p, s.rho, s.cs2, fqx, fqy,
                      s.corner_mass.T, cvol, volume, CONTROLS, ws=c.ws)
    return fqx, fqy, q_cell, fx, fy


def test_getgeom(case):
    s, g = case.state, case.lane.geom
    cx, cy, volume, cvol = geometry.getgeom(case.mesh, s.x, s.y, ws=case.ws)
    assert _same(cx, g.cx) and _same(cy, g.cy)
    assert np.array_equal(volume, g.volume[0])
    assert _same(cvol, g.cvol)
    dvdx, dvdy = geometry.volume_gradients(cx, cy)
    assert _same(dvdx, g.dvdx) and _same(dvdy, g.dvdy)


@pytest.mark.parametrize("sparse_max", [1.01, -1.0],
                         ids=["sparse", "dense"])
def test_getq(case, sparse_max):
    fqx, fqy, q_cell, _, _ = _core_forces(case)
    lane_fqx, lane_fqy, lane_q = _lane_getq(case, sparse_max)
    assert q_cell.max() > 0.0 and (fqx == 0.0).any()    # both branches
    assert _same(fqx, lane_fqx) and _same(fqy, lane_fqy)
    assert np.array_equal(q_cell, lane_q[0])


def test_getforce_with_both_hourglass_remedies(case):
    s, lane = case.state, case.lane
    _, _, _, fx, fy = _core_forces(case)
    lane_fqx, lane_fqy, _ = _lane_getq(case, -1.0)
    lane_fx, lane_fy = kernels.getforce(
        np, lane.geom, lane.vc, s.p[None], s.rho[None], s.cs2[None],
        lane_fqx, lane_fqy, s.corner_mass[None], lane.geom.cvol,
        lane.geom.volume, CONTROLS.subzonal_kappa, CONTROLS.filter_kappa,
        GAMMA)
    assert _same(fx, lane_fx) and _same(fy, lane_fy)


def _wide(rng, shape):
    """Operands spanning 16 decades: a reassociated sum shows in a
    quarter of the cells, where smooth fields can hide it."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


def test_spelled_out_associations_are_numpys_own(case):
    """``corner_dot`` is ``einsum("nck,nck->nc")``, the filter amplitude
    is the ``(n, 4) @ Γ`` matvec and the subzonal contraction is
    ``einsum("nci,ncij->ncj")`` — on operands wild enough to tell."""
    rng = np.random.default_rng(23)
    n = case.mesh.ncell
    a, b = _wide(rng, (1, n, 4)), _wide(rng, (1, n, 4))
    major = [np.ascontiguousarray(x[0].T) for x in (a, b)]
    dot = geometry.corner_dot(*major, np.empty(n), case.ws)
    assert np.array_equal(dot, np.einsum("nck,nck->nc", a, b)[0])

    ones = np.ones(n)
    fx, fy = hourglass_filter_forces(*major, ones, ones, ones, 1.0)
    lane_fx, lane_fy = kernels.hourglass_filter_forces(
        np, a, b, ones[None], ones[None], ones[None], 1.0, GAMMA)
    assert _same(fx, lane_fx) and _same(fy, lane_fy)

    g = case.lane.geom
    cmass, cvol = np.abs(a) + 1e-9, np.abs(b) + 1e-9
    sx, sy = subzonal_pressure_forces(
        np.ascontiguousarray(g.cx[0].T), np.ascontiguousarray(g.cy[0].T),
        cmass[0].T, cvol[0].T, ones, ones, 1.0, ws=case.ws)
    lane_sx, lane_sy = kernels.subzonal_pressure_forces(
        np, g, cmass, cvol, ones[None], ones[None], 1.0)
    assert _same(sx, lane_sx) and _same(sy, lane_sy)


def test_getein(case):
    s, lane = case.state, case.lane
    _, _, _, fx, fy = _core_forces(case)
    dt = 0.5        # work comparable to e: its last bits reach the result
    e_new = getein(s, fx, fy, s.u, s.v, dt, ws=case.ws)
    lane_e = kernels.getein(
        np, s.e[None], s.cell_mass[None],
        np.ascontiguousarray(fx.T)[None], np.ascontiguousarray(fy.T)[None],
        lane.vc.cu, lane.vc.cv, np.array([[dt]]))
    assert np.array_equal(e_new, lane_e[0])
    assert not np.array_equal(e_new, s.e)


@pytest.mark.parametrize("controls", [
    HydroControls(time_end=10.0, dt_max=1.0, dt_growth=1e6),   # cfl
    HydroControls(time_end=10.0, dt_max=1.0, dt_growth=1e6,
                  div_safety=1e-3),                             # div
], ids=["cfl", "div"])
def test_dt_candidates(case, controls):
    s, lane = case.state, case.lane
    es = SimpleNamespace(volume=s.volume[None], rho=s.rho[None],
                         cs2=s.cs2[None], q=s.q[None])
    lane_dt = getdt_batch(np, es, lane.geom, lane.vc, [controls],
                          [1.0], [0.0])[0]
    core_dt = getdt(s, controls, dt_prev=1.0, time=0.0, ws=case.ws)
    assert core_dt == lane_dt
    assert core_dt[1] in ("cfl", "div")
