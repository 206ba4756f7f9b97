"""Unit tests for the nodal momentum remap."""

import numpy as np
import pytest

from repro.ale.advect_node import advect_momentum
from repro.ale.fluxvol import dual_flux_volumes, median_points
from repro.utils.errors import BookLeafError
from tests.conftest import make_uniform_state
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import perturbed_mesh


def _state_and_fluxes(seed=0, scale=0.02, u=None, v=None):
    table = MaterialTable()
    table.add(IdealGas(1.4))
    mesh = perturbed_mesh(6, 5, amplitude=0.2, seed=seed)
    state = make_uniform_state(mesh, table)
    state.bc.flags[:] = 0
    if u is not None:
        state.u[:] = u
    if v is not None:
        state.v[:] = v
    rng = np.random.default_rng(seed)
    x1 = state.x.copy()
    y1 = state.y.copy()
    interior = np.ones(mesh.nnode, bool)
    interior[mesh.boundary_nodes()] = False
    x1[interior] += scale * rng.standard_normal(interior.sum())
    y1[interior] += scale * rng.standard_normal(interior.sum())
    dfv = dual_flux_volumes(median_points(mesh, state.x, state.y),
                            median_points(mesh, x1, y1))
    return state, dfv


def test_uniform_velocity_is_fixed_point():
    state, dfv = _state_and_fluxes(u=3.0, v=-1.5)
    u_new, v_new, _ = advect_momentum(state, dfv)
    np.testing.assert_allclose(u_new, 3.0, rtol=1e-12)
    np.testing.assert_allclose(v_new, -1.5, rtol=1e-12)


def test_momentum_exactly_conserved():
    state, dfv = _state_and_fluxes(seed=3)
    rng = np.random.default_rng(1)
    state.u[:] = rng.standard_normal(state.mesh.nnode)
    state.v[:] = rng.standard_normal(state.mesh.nnode)
    m0 = state.node_mass()
    mom0 = np.array([(m0 * state.u).sum(), (m0 * state.v).sum()])
    u_new, v_new, m_star = advect_momentum(state, dfv)
    mom1 = np.array([(m_star * u_new).sum(), (m_star * v_new).sum()])
    np.testing.assert_allclose(mom1, mom0, atol=1e-13)


def test_nodal_mass_conserved():
    state, dfv = _state_and_fluxes(seed=5)
    m0 = state.node_mass()
    _, _, m_star = advect_momentum(state, dfv)
    assert m_star.sum() == pytest.approx(m0.sum(), rel=1e-13)


def test_zero_fluxes_identity():
    state, _ = _state_and_fluxes()
    rng = np.random.default_rng(2)
    state.u[:] = rng.standard_normal(state.mesh.nnode)
    zero = np.zeros((state.mesh.ncell, 4))
    u_new, v_new, m_star = advect_momentum(state, zero)
    # identity up to the (m u)/m round-trip rounding
    np.testing.assert_allclose(u_new, state.u, rtol=1e-14)
    np.testing.assert_allclose(m_star, state.node_mass())


def test_velocity_bounds_respected():
    """First-order upwinding cannot create new velocity extrema."""
    state, dfv = _state_and_fluxes(seed=7)
    state.u[:] = np.sin(4 * state.x)
    u_new, _, _ = advect_momentum(state, dfv)
    assert u_new.max() <= state.u.max() + 1e-12
    assert u_new.min() >= state.u.min() - 1e-12


def test_excessive_fluxes_rejected():
    state, dfv = _state_and_fluxes()
    # drain one dual face by far more than the nodal mass
    huge = np.zeros((state.mesh.ncell, 4))
    huge[0, 0] = 10.0
    with pytest.raises(BookLeafError, match="nodal mass"):
        advect_momentum(state, huge)
