"""Integration-style unit tests for one Lagrangian step."""

import numpy as np
import pytest

from repro.core.controls import HydroControls
from repro.core.lagstep import lagstep
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import perturbed_mesh, rect_mesh
from repro.utils.timers import TimerRegistry
from tests.conftest import make_uniform_state


def _table(gamma=1.4):
    table = MaterialTable()
    table.add(IdealGas(gamma))
    return table


def _step(state, table, controls=None, dt=1e-3, n=1):
    controls = controls or HydroControls()
    timers = TimerRegistry(enabled=False)
    gamma = table.gamma_like(state.mat)
    for _ in range(n):
        lagstep(state, table, controls, dt, timers, gamma)
    return state


def test_uniform_gas_at_rest_is_steady():
    table = _table()
    state = make_uniform_state(rect_mesh(4, 4), table)
    rho0 = state.rho.copy()
    e0 = state.e.copy()
    _step(state, table, n=5)
    np.testing.assert_allclose(state.rho, rho0, rtol=1e-13)
    np.testing.assert_allclose(state.e, e0, rtol=1e-13)
    np.testing.assert_allclose(state.u, 0.0, atol=1e-15)


def test_uniform_gas_on_distorted_mesh_is_steady():
    """Constant pressure exerts zero net force even on a wonky mesh —
    the compatible corner forces telescope exactly."""
    table = _table()
    mesh = perturbed_mesh(5, 5, amplitude=0.2, seed=2)
    state = make_uniform_state(mesh, table)
    x0 = state.x.copy()
    _step(state, table, n=3)
    np.testing.assert_allclose(state.x, x0, atol=1e-13)


def test_total_energy_conserved_with_wall_bcs():
    table = _table()
    state = make_uniform_state(rect_mesh(6, 6), table)
    # random internal energy perturbation -> pressure waves
    rng = np.random.default_rng(0)
    state.e *= rng.uniform(0.8, 1.2, state.mesh.ncell)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    e0 = state.total_energy()
    _step(state, table, dt=2e-3, n=20)
    assert state.total_energy() == pytest.approx(e0, rel=1e-12)


def test_mass_exactly_constant():
    table = _table()
    state = make_uniform_state(rect_mesh(5, 5), table)
    state.e *= np.linspace(0.5, 1.5, state.mesh.ncell)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    m0 = state.cell_mass.copy()
    _step(state, table, n=10)
    np.testing.assert_array_equal(state.cell_mass, m0)
    np.testing.assert_allclose(state.rho * state.volume, m0, rtol=1e-13)


def test_momentum_conserved_without_bcs():
    table = _table()
    state = make_uniform_state(rect_mesh(6, 6), table)
    state.bc.flags[:] = 0
    rng = np.random.default_rng(4)
    state.e *= rng.uniform(0.9, 1.1, state.mesh.ncell)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    mom0 = state.momentum()
    _step(state, table, dt=1e-3, n=10)
    np.testing.assert_allclose(state.momentum(), mom0, atol=1e-13)


def test_galilean_boost_equivalence():
    """The scheme is Galilean invariant: a uniformly-boosted run gives
    the same thermodynamics (walls removed; boost along x)."""
    table = _table()
    a = make_uniform_state(rect_mesh(5, 3), table)
    b = make_uniform_state(rect_mesh(5, 3), table)
    for s in (a, b):
        s.bc.flags[:] = 0
        s.e *= np.linspace(0.8, 1.2, s.mesh.ncell)
        s.p, s.cs2 = table.getpc(s.mat, s.rho, s.e)
    b.u += 10.0
    _step(a, table, dt=5e-4, n=8)
    _step(b, table, dt=5e-4, n=8)
    np.testing.assert_allclose(b.rho, a.rho, rtol=1e-10)
    np.testing.assert_allclose(b.e, a.e, rtol=1e-9)
    np.testing.assert_allclose(b.u - 10.0, a.u, atol=1e-10)


def test_symmetry_preserved():
    """An x-symmetric initial state stays x-symmetric."""
    table = _table()
    mesh = rect_mesh(8, 2, (0.0, 1.0, 0.0, 0.25))
    state = make_uniform_state(mesh, table,
                               extents=(0.0, 1.0, 0.0, 0.25))
    xc, _ = mesh.cell_centroids()
    state.e *= np.where(np.abs(xc - 0.5) < 0.2, 2.0, 1.0)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    _step(state, table, dt=1e-3, n=10)
    # mirror cells about x=0.5 carry equal density
    order = np.lexsort((xc, mesh.cell_centroids()[1]))
    rho = state.rho[order].reshape(2, 8)
    np.testing.assert_allclose(rho, rho[:, ::-1], rtol=1e-12)


def test_compression_heats_gas():
    """A velocity field converging on the centre raises e and rho."""
    table = _table(5.0 / 3.0)
    state = make_uniform_state(rect_mesh(6, 6), table, p=0.01)
    state.u = -(state.x - 0.5)
    state.v = -(state.y - 0.5)
    state.bc.apply_velocity(state.u, state.v)
    e0 = state.e.mean()
    _step(state, table, dt=1e-3, n=20)
    assert state.e.mean() > e0
    assert state.rho.max() > 1.0


def test_timers_record_every_kernel():
    table = _table()
    state = make_uniform_state(rect_mesh(3, 3), table)
    timers = TimerRegistry()
    gamma = table.gamma_like(state.mat)
    lagstep(state, table, HydroControls(), 1e-4, timers, gamma)
    for name, calls in [("getq", 2), ("getforce", 2), ("getgeom", 2),
                        ("getrho", 2), ("getein", 2), ("getpc", 2),
                        ("getacc", 1),
                        # the kinematic post and its complete
                        ("exchange", 2)]:
        assert timers.calls(name) == calls, name


def test_predictor_corrector_second_order():
    """Halving dt should reduce the one-period error superlinearly on a
    smooth acoustic problem (empirical order > 1.5)."""
    table = _table()

    def run(dt, steps):
        state = make_uniform_state(rect_mesh(16, 1, (0.0, 1.0, 0.0, 1 / 16)),
                                   table, extents=(0.0, 1.0, 0.0, 1 / 16))
        xc, _ = state.mesh.cell_centroids()
        state.e *= 1.0 + 0.01 * np.sin(2 * np.pi * xc)
        state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
        _step(state, table, dt=dt, n=steps)
        return state.rho

    coarse = run(4e-3, 25)
    fine = run(2e-3, 50)
    finest = run(1e-3, 100)
    e1 = np.abs(coarse - finest).max()
    e2 = np.abs(fine - finest).max()
    order = np.log2(e1 / e2)
    assert order > 1.5
