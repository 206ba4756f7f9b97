"""Unit tests for the acceleration kernel (getacc).

Corner forces are corner-major: ``f[k, c]`` acts on corner ``k`` of
cell ``c``.
"""

import numpy as np
import pytest

from repro.core.acceleration import getacc


def test_uniform_pressure_no_motion(uniform_state):
    state = uniform_state
    fx = np.zeros((4, state.mesh.ncell))
    fy = np.zeros((4, state.mesh.ncell))
    u, v, ub, vb = getacc(state, fx, fy, 0.1)
    np.testing.assert_array_equal(u, 0.0)
    np.testing.assert_array_equal(v, 0.0)


def test_known_force_gives_f_over_m(uniform_state):
    state = uniform_state
    mesh = state.mesh
    # put a unit x-force on one interior node via one cell corner
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    node = interior[0]
    c, k = np.argwhere(mesh.cell_nodes == node)[0]
    fx = np.zeros((4, mesh.ncell))
    fy = np.zeros((4, mesh.ncell))
    fx[k, c] = 2.0
    dt = 0.25
    u, v, ub, vb = getacc(state, fx, fy, dt)
    m = state.node_mass()[node]
    assert u[node] == pytest.approx(dt * 2.0 / m)
    assert ub[node] == pytest.approx(0.5 * u[node])


def test_velocity_update_midpoint(uniform_state):
    state = uniform_state
    state.bc.flags[:] = 0   # isolate the update from wall constraints
    state.u[:] = 1.0
    fx = np.zeros((4, state.mesh.ncell))
    fy = np.zeros((4, state.mesh.ncell))
    u, v, ub, vb = getacc(state, fx, fy, 0.1)
    np.testing.assert_allclose(u, 1.0)
    np.testing.assert_allclose(ub, 1.0)


def test_state_not_mutated(uniform_state):
    state = uniform_state
    before_u = state.u.copy()
    fx = np.ones((4, state.mesh.ncell))
    fy = np.ones((4, state.mesh.ncell))
    getacc(state, fx, fy, 0.1)
    np.testing.assert_array_equal(state.u, before_u)


def test_boundary_conditions_zero_constrained_components(uniform_state):
    state = uniform_state
    mesh = state.mesh
    fx = np.ones((4, mesh.ncell))
    fy = np.ones((4, mesh.ncell))
    u, v, ub, vb = getacc(state, fx, fy, 1.0)
    left = np.isclose(mesh.x, 0.0)
    bottom = np.isclose(mesh.y, 0.0)
    np.testing.assert_array_equal(u[left], 0.0)
    np.testing.assert_array_equal(v[bottom], 0.0)


def test_prescribed_velocity_enforced(uniform_state):
    from repro.mesh.boundary import FIX_X

    state = uniform_state
    node = 0
    state.bc.flags[node] |= FIX_X
    state.bc.ux[node] = 4.0
    fx = np.zeros((4, state.mesh.ncell))
    fy = np.zeros((4, state.mesh.ncell))
    u, _, ub, _ = getacc(state, fx, fy, 0.5)
    assert u[node] == 4.0


def test_opposite_forces_cancel_on_shared_node(uniform_state):
    """Scatter assembly: equal and opposite corner forces on the same
    node from two cells produce zero acceleration."""
    state = uniform_state
    mesh = state.mesh
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    node = interior[0]
    hits = np.argwhere(mesh.cell_nodes == node)
    assert len(hits) >= 2
    fx = np.zeros((4, mesh.ncell))
    fy = np.zeros((4, mesh.ncell))
    fx[hits[0][1], hits[0][0]] = 5.0
    fx[hits[1][1], hits[1][0]] = -5.0
    u, _, _, _ = getacc(state, fx, fy, 1.0)
    assert u[node] == 0.0


def test_zero_mass_guard():
    """Nodes with zero completed mass get zero acceleration (the ghost
    node case in decomposed runs)."""
    import repro.core.acceleration as acc_mod

    class FakeComms:
        """An endpoint whose peers leave node 0 without mass."""

        def owned_cell_mask(self, state):
            return np.ones(state.mesh.ncell, dtype=bool)

        def post_node_sums(self, state, *partials):
            assert all(p.shape == (state.mesh.nnode,) for p in partials)
            self.posted = partials

        def complete_node_sums(self, state, *partials):
            assert all(a is b for a, b in zip(partials, self.posted))
            n = state.mesh.nnode
            mass = np.ones(n)
            mass[0] = 0.0
            return np.ones(n), np.ones(n), mass

    from tests.conftest import make_uniform_state
    from repro.eos import IdealGas, MaterialTable
    from repro.mesh.generator import rect_mesh

    table = MaterialTable()
    table.add(IdealGas(1.4))
    state = make_uniform_state(rect_mesh(3, 2), table)
    state.bc.flags[:] = 0   # no BCs, isolate the guard
    u, v, _, _ = acc_mod.getacc(state, np.zeros((4, 6)), np.zeros((4, 6)),
                                1.0, comms=FakeComms())
    assert u[0] == 0.0          # guarded
    assert np.all(u[1:] == 1.0)  # normal nodes accelerate
