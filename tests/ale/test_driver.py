"""Unit tests for the ALE step driver (alestep)."""

import numpy as np
import pytest

from repro.ale.driver import AleStep
from repro.core.controls import HydroControls
from repro.utils.errors import BookLeafError
from repro.utils.timers import TimerRegistry
from tests.conftest import make_uniform_state
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import rect_mesh
from repro.problems import load_problem


def _setup(nx=6, ny=6, mode="eulerian"):
    table = MaterialTable()
    table.add(IdealGas(1.4))
    state = make_uniform_state(rect_mesh(nx, ny), table)
    controls = HydroControls(ale_on=True, ale_mode=mode)
    remap = AleStep.from_controls(state, controls, table)
    return state, remap, table


def test_noop_when_mesh_unmoved():
    state, remap, _ = _setup()
    assert remap.apply(state, 1e-3) is False


def test_eulerian_restores_initial_coordinates():
    state, remap, _ = _setup()
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    state.x[interior] += 0.01
    state.refresh_geometry()
    assert remap.apply(state, 1e-3) is True
    np.testing.assert_allclose(state.x, remap.x0, atol=1e-15)


def _perturbed_uniform():
    state, remap, table = _setup()
    rng = np.random.default_rng(0)
    state.e *= rng.uniform(0.8, 1.2, state.mesh.ncell)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    state.x[interior] += 0.008
    state.y[interior] -= 0.005
    state.refresh_geometry()
    state.rho = state.cell_mass / state.volume
    return state, remap


def _sod_mid_run():
    """A Lagrangian Sod state 30 steps in, remapped back onto its
    initial mesh: a shock and a contact cross the flux volumes."""
    setup = load_problem("sod", nx=32, ny=4, time_end=0.05)
    hydro = setup.make_hydro()
    remap = AleStep.from_controls(hydro.state, setup.controls, setup.table)
    hydro.run(max_steps=30)
    return hydro.state, remap


def test_remap_conserves_mass_and_internal_energy():
    for state, remap in (_perturbed_uniform(), _sod_mid_run()):
        m0 = state.total_mass()
        ie0 = state.internal_energy()
        assert remap.apply(state, 1e-3) is True
        assert state.total_mass() == pytest.approx(m0, rel=1e-13)
        assert state.internal_energy() == pytest.approx(ie0, rel=1e-13)
        assert state.rho.min() > 0


def test_remap_rebuilds_consistent_state():
    state, remap, _ = _setup()
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    state.x[interior] += 0.01
    state.refresh_geometry()
    remap.apply(state, 1e-3)
    np.testing.assert_allclose(state.rho * state.volume, state.cell_mass,
                               rtol=1e-13)
    np.testing.assert_allclose(state.corner_mass.sum(axis=1),
                               state.cell_mass, rtol=1e-12)
    np.testing.assert_allclose(state.corner_volume.sum(axis=1),
                               state.volume, rtol=1e-12)


def test_oversized_remap_rejected():
    state, remap, _ = _setup(nx=4, ny=4)
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    # move interior nodes nearly a full cell width
    state.x[interior] += 0.2
    state.refresh_geometry()
    with pytest.raises(BookLeafError, match="flux volume"):
        remap.apply(state, 1e-3)


def test_timer_regions_recorded():
    state, remap, _ = _setup()
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    state.x[interior] += 0.01
    state.refresh_geometry()
    timers = TimerRegistry()
    remap.apply(state, 1e-3, timers)
    for region in ("alegetmesh", "alegetfvol", "aleadvect", "aleupdate"):
        assert timers.calls(region) == 1


def test_relax_mode_improves_distorted_mesh():
    from repro.mesh.quality import scaled_jacobian

    state, remap, _ = _setup(mode="relax")
    rng = np.random.default_rng(3)
    interior = np.ones(state.mesh.nnode, bool)
    interior[state.mesh.boundary_nodes()] = False
    state.x[interior] += 0.02 * rng.standard_normal(interior.sum())
    state.y[interior] += 0.02 * rng.standard_normal(interior.sum())
    state.refresh_geometry()
    before = scaled_jacobian(state.mesh, state.x, state.y).min()
    remap.apply(state, 1e-3)
    after = scaled_jacobian(state.mesh, state.x, state.y).min()
    assert after > before
