"""Property-based tests: remap invariants on random meshes and motions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ale.advect_cell import advect_cells
from repro.ale.advect_node import advect_momentum
from repro.ale.fluxvol import (dual_flux_volumes, face_flux_volumes,
                               median_points)
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import perturbed_mesh
from tests.conftest import make_uniform_state

dims = st.tuples(st.integers(3, 7), st.integers(3, 7))


def _mesh_and_motion(nx, ny, mesh_amp, move_amp, seed):
    mesh = perturbed_mesh(nx, ny, amplitude=mesh_amp, seed=seed)
    rng = np.random.default_rng(seed + 7)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    interior = np.ones(mesh.nnode, bool)
    interior[mesh.boundary_nodes()] = False
    n = int(interior.sum())
    x1[interior] += move_amp / nx * rng.uniform(-1, 1, n)
    y1[interior] += move_amp / ny * rng.uniform(-1, 1, n)
    return mesh, x1, y1


@given(dims=dims, mesh_amp=st.floats(0.0, 0.2),
       move_amp=st.floats(0.0, 0.15), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_cell_remap_conserves_and_bounds(dims, mesh_amp, move_amp, seed):
    nx, ny = dims
    mesh, x1, y1 = _mesh_and_motion(nx, ny, mesh_amp, move_amp, seed)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.5, 2.0, mesh.ncell)
    e = rng.uniform(0.1, 1.0, mesh.ncell)
    v0 = mesh.cell_areas()
    mass = rho * v0
    fv, fvb, swept = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    assert np.abs(fvb).max(initial=0.0) == 0.0
    centroids = median_points(mesh, mesh.x, mesh.y)[2:]
    mass_new, energy_new = advect_cells(
        mesh, centroids, swept, fv, mass, rho, e
    )
    # exact conservation
    assert mass_new.sum() == pytest.approx(mass.sum(), rel=1e-12)
    assert energy_new.sum() == pytest.approx((mass * e).sum(), rel=1e-12)
    # positivity for these modest motions
    assert mass_new.min() > 0.0


@given(dims=dims, mesh_amp=st.floats(0.0, 0.2),
       move_amp=st.floats(0.0, 0.15), seed=st.integers(0, 500),
       rho0=st.floats(0.2, 5.0), e0=st.floats(0.1, 4.0))
@settings(max_examples=30, deadline=None)
def test_uniform_state_fixed_point(dims, mesh_amp, move_amp, seed,
                                   rho0, e0):
    nx, ny = dims
    mesh, x1, y1 = _mesh_and_motion(nx, ny, mesh_amp, move_amp, seed)
    rho = np.full(mesh.ncell, rho0)
    e = np.full(mesh.ncell, e0)
    mass = rho * mesh.cell_areas()
    fv, _, swept = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    centroids = median_points(mesh, mesh.x, mesh.y)[2:]
    mass_new, energy_new = advect_cells(
        mesh, centroids, swept, fv, mass, rho, e
    )
    v1 = mesh.cell_areas(x1, y1)
    np.testing.assert_allclose(mass_new / v1, rho0, rtol=1e-11)
    np.testing.assert_allclose(energy_new / mass_new, e0, rtol=1e-11)


@given(dims=dims, move_amp=st.floats(0.0, 0.15), seed=st.integers(0, 500),
       ux=st.floats(-3.0, 3.0), vy=st.floats(-3.0, 3.0))
@settings(max_examples=30, deadline=None)
def test_momentum_remap_uniform_velocity_fixed_point(dims, move_amp, seed,
                                                     ux, vy):
    nx, ny = dims
    mesh, x1, y1 = _mesh_and_motion(nx, ny, 0.1, move_amp, seed)
    table = MaterialTable()
    table.add(IdealGas(1.4))
    state = make_uniform_state(mesh, table)
    state.bc.flags[:] = 0
    state.u[:] = ux
    state.v[:] = vy
    dfv = dual_flux_volumes(median_points(mesh, state.x, state.y),
                            median_points(mesh, x1, y1))
    u_new, v_new, _ = advect_momentum(state, dfv)
    np.testing.assert_allclose(u_new, ux, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(v_new, vy, rtol=1e-11, atol=1e-13)


@given(dims=dims, move_amp=st.floats(0.0, 0.15), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_momentum_remap_conserves(dims, move_amp, seed):
    nx, ny = dims
    mesh, x1, y1 = _mesh_and_motion(nx, ny, 0.1, move_amp, seed)
    table = MaterialTable()
    table.add(IdealGas(1.4))
    state = make_uniform_state(mesh, table)
    state.bc.flags[:] = 0
    rng = np.random.default_rng(seed)
    state.u = rng.standard_normal(mesh.nnode)
    state.v = rng.standard_normal(mesh.nnode)
    m0 = state.node_mass()
    mom0 = np.array([(m0 * state.u).sum(), (m0 * state.v).sum()])
    u_new, v_new, m_star = advect_momentum(state, dual_flux_volumes(
        median_points(mesh, state.x, state.y), median_points(mesh, x1, y1)))
    mom1 = np.array([(m_star * u_new).sum(), (m_star * v_new).sum()])
    np.testing.assert_allclose(mom1, mom0, atol=1e-12)
    assert m_star.sum() == pytest.approx(m0.sum(), rel=1e-12)
