"""The kernels on genuinely unstructured connectivity.

Every generator-produced mesh so far is topologically rectangular
(interior valence 4).  The pinwheel meshes have a centre node of
valence 3, 5, 6, ... — these tests prove the scheme's kernels never
assume regular connectivity: uniform states stay steady, conservation
holds, the viscosity/hourglass machinery behaves, and a compression
run is stable.
"""

import numpy as np
import pytest

from repro.core.controls import HydroControls
from repro.core.lagstep import lagstep
from repro.eos import IdealGas, MaterialTable
from repro.mesh.generator import pinwheel_mesh
from repro.core.state import HydroState
from repro.mesh.boundary import BoundaryConditions
from repro.utils.errors import MeshError
from repro.utils.timers import TimerRegistry


def _state(nquads, gamma=1.4, p=1.0):
    mesh = pinwheel_mesh(nquads)
    table = MaterialTable()
    table.add(IdealGas(gamma))
    gas = table.eos[0]
    rho = np.ones(mesh.ncell)
    e = gas.energy_from_pressure(rho, np.full(mesh.ncell, p))
    state = HydroState.from_initial(mesh, table, rho, e)
    return state, table


def _advance(state, table, steps=3, dt=1e-3, **kw):
    controls = HydroControls(**kw)
    timers = TimerRegistry(enabled=False)
    gamma = table.gamma_like(state.mat)
    for _ in range(steps):
        lagstep(state, table, controls, dt, timers, gamma)


@pytest.mark.parametrize("nquads", [3, 5, 6])
def test_pinwheel_topology(nquads):
    mesh = pinwheel_mesh(nquads)
    assert mesh.ncell == nquads
    assert mesh.node_degree()[0] == nquads   # the irregular vertex
    assert mesh.nface == nquads              # spokes between quads
    assert mesh.cell_areas().min() > 0.0


@pytest.mark.parametrize("nquads", [3, 5])
def test_uniform_pressure_zero_force_on_irregular_vertex(nquads):
    """Constant pressure must exert zero net force on the valence-N
    *interior* centre node — the corner-force telescoping is
    valence-free.  (The disc's free boundary legitimately expands,
    so only the interior node is force-free.)"""
    from repro.core import geometry
    from repro.core.force import pressure_forces

    state, table = _state(nquads)
    cx, cy = geometry.gather(state.mesh, state.x, state.y)
    fx, fy = pressure_forces(*geometry.volume_gradients(cx, cy), state.p)
    node_fx = state.scatter_to_nodes(fx.T)
    node_fy = state.scatter_to_nodes(fy.T)
    assert abs(node_fx[0]) < 1e-14
    assert abs(node_fy[0]) < 1e-14
    # and the free ring nodes are pushed strictly outward
    radial = (node_fx[1:] * state.x[1:] + node_fy[1:] * state.y[1:])
    assert np.all(radial > 0.0)


@pytest.mark.parametrize("nquads", [3, 5])
def test_centre_stays_fixed_during_expansion(nquads):
    """Running the free expansion: the irregular vertex never moves."""
    state, table = _state(nquads)
    _advance(state, table, steps=4)
    assert abs(state.x[0]) < 1e-13
    assert abs(state.y[0]) < 1e-13
    assert state.volume.min() > 0.0


@pytest.mark.parametrize("nquads", [3, 5, 6])
def test_conservation_on_irregular_valence(nquads):
    state, table = _state(nquads)
    rng = np.random.default_rng(nquads)
    state.e *= rng.uniform(0.8, 1.2, state.mesh.ncell)
    state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
    e0 = state.total_energy()
    mom0 = state.momentum()
    _advance(state, table, steps=5, dt=5e-4)
    assert state.total_energy() == pytest.approx(e0, rel=1e-11)
    np.testing.assert_allclose(state.momentum(), mom0, atol=1e-13)


def test_implosion_on_pinwheel_stable():
    """Radial compression through the valence-5 vertex with sub-zonal
    control: heats, compresses, never tangles."""
    state, table = _state(5, gamma=5.0 / 3.0, p=0.01)
    r = np.hypot(state.x, state.y)
    safe = np.maximum(r, 1e-12)
    state.u = -0.3 * state.x / safe * (r > 0)
    state.v = -0.3 * state.y / safe * (r > 0)
    e0_mean = state.e.mean()
    _advance(state, table, steps=30, dt=2e-3, subzonal_kappa=1.0)
    assert state.volume.min() > 0.0
    assert state.e.mean() > e0_mean
    assert state.rho.max() > 1.0


def test_nodal_mass_assembles_over_all_valences():
    state, _ = _state(5)
    assert state.node_mass().sum() == pytest.approx(state.total_mass())
    # the centre node aggregates five corner masses
    centre_mass = state.node_mass()[0]
    assert centre_mass == pytest.approx(
        sum(state.corner_mass[c, 0] for c in range(5))
    )


def test_pinwheel_minimum_size():
    with pytest.raises(MeshError, match=">= 3"):
        pinwheel_mesh(2)
