"""Unit tests for the compatible energy update (getein)."""

import numpy as np
import pytest

from repro.core import geometry
from repro.core.energy import getein as _getein


def getein(state, fx, fy, u, v, dt):
    """``getein`` on the corner velocities of nodal ``u, v``."""
    return _getein(state, fx, fy, *geometry.gather(state.mesh, u, v), dt)


def test_no_force_no_change(uniform_state):
    state = uniform_state
    z = np.zeros((4, state.mesh.ncell))
    e = getein(state, z, z, state.u, state.v, 0.1)
    np.testing.assert_array_equal(e, state.e)


def test_no_velocity_no_change(uniform_state):
    state = uniform_state
    f = np.ones((4, state.mesh.ncell))
    e = getein(state, f, f, np.zeros(state.mesh.nnode),
               np.zeros(state.mesh.nnode), 0.1)
    np.testing.assert_array_equal(e, state.e)


def test_work_sign_convention(uniform_state):
    """Forces aligned with velocity drain the cell's internal energy
    (the cell does work on the nodes)."""
    state = uniform_state
    mesh = state.mesh
    fx = np.ones((4, mesh.ncell))
    fy = np.zeros((4, mesh.ncell))
    u = np.ones(mesh.nnode)
    e = getein(state, fx, fy, u, np.zeros(mesh.nnode), 0.1)
    assert np.all(e < state.e)


def test_energy_change_exact_value(uniform_state):
    state = uniform_state
    mesh = state.mesh
    fx = np.full((4, mesh.ncell), 0.5)
    u = np.full(mesh.nnode, 2.0)
    dt = 0.25
    e = getein(state, fx, np.zeros_like(fx), u, np.zeros(mesh.nnode), dt)
    expected = state.e - dt * (4 * 0.5 * 2.0) / state.cell_mass
    np.testing.assert_allclose(e, expected)


def test_exactly_compensates_kinetic_change(uniform_state):
    """ΔIE = −ΔKE when the same forces and the time-centred velocity
    are used — the compatible-discretisation identity."""
    from repro.core.acceleration import getacc

    state = uniform_state
    state.bc.flags[:] = 0      # free boundaries: no wall work
    mesh = state.mesh
    rng = np.random.default_rng(5)
    fx = rng.standard_normal((4, mesh.ncell))
    fy = rng.standard_normal((4, mesh.ncell))
    dt = 1e-3
    ke0 = state.kinetic_energy()
    ie0 = state.internal_energy()
    u_new, v_new, ub, vb = getacc(state, fx, fy, dt)
    e_new = getein(state, fx, fy, ub, vb, dt)
    state.u, state.v, state.e = u_new, v_new, e_new
    d_total = (state.kinetic_energy() + state.internal_energy()) - (ke0 + ie0)
    assert abs(d_total) < 1e-14 * max(abs(ke0 + ie0), 1.0)
