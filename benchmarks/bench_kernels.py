"""Microbenchmarks of the Lagrangian kernels (this implementation).

Times each BookLeaf kernel on a realistic mid-size Noh state — the
Python analogue of the per-kernel columns in Table II.  These are real
pytest-benchmark measurements of the numpy kernels.
"""

import numpy as np
import pytest

from repro.core import geometry, viscosity
from repro.core.acceleration import getacc
from repro.core.controls import HydroControls
from repro.core.density import getrho
from repro.core.energy import getein
from repro.core.force import getforce
from repro.core.lagstep import lagstep
from repro.core.timestep import local_dt_candidates
from repro.problems import load_problem
from repro.utils.timers import TimerRegistry

N = 128   # 128x128 = 16k cells


@pytest.fixture(scope="module")
def noh_state():
    """A Noh state advanced until the shock is developed."""
    setup = load_problem("noh", nx=N, ny=N, time_end=0.05)
    hydro = setup.make_hydro()
    hydro.run(max_steps=40)
    return setup, hydro.state


@pytest.fixture(scope="module")
def geom(noh_state):
    _, state = noh_state
    cx, cy = geometry.gather(state.mesh, state.x, state.y)
    return cx, cy


def test_kernel_getgeom(benchmark, noh_state):
    _, state = noh_state
    result = benchmark(geometry.getgeom, state.mesh, state.x, state.y)
    assert result[2].min() > 0


def test_kernel_getq(benchmark, noh_state, geom):
    setup, state = noh_state
    cx, cy = geom
    gamma = setup.table.gamma_like(state.mat)
    fqx, fqy, q = benchmark(
        viscosity.getq, state.mesh, cx, cy, state.u, state.v,
        state.rho, state.cs2, gamma, 0.5, 0.75, True,
    )
    assert np.all(q >= 0)


def test_kernel_getforce(benchmark, noh_state, geom):
    setup, state = noh_state
    cx, cy = geom
    zeros = np.zeros((4, state.mesh.ncell))      # corner-major
    fx, fy = benchmark(
        getforce, state.mesh, cx, cy, state.u, state.v, state.p,
        state.rho, state.cs2, zeros, zeros, state.corner_mass.T,
        state.corner_volume.T, state.volume, HydroControls(),
    )
    assert np.isfinite(fx).all()


def test_kernel_getacc(benchmark, noh_state):
    _, state = noh_state
    fx = np.zeros((4, state.mesh.ncell))
    u, v, ub, vb = benchmark(getacc, state, fx, fx, 1e-4)
    assert np.isfinite(u).all()


def test_kernel_getein(benchmark, noh_state):
    _, state = noh_state
    fx = np.ones((4, state.mesh.ncell))
    e = benchmark(getein, state, fx, fx, state.u, state.v, 1e-4)
    assert np.isfinite(e).all()


def test_kernel_getrho(benchmark, noh_state):
    _, state = noh_state
    rho = benchmark(getrho, state.cell_mass, state.volume, 1e-6)
    assert rho.min() > 0


def test_kernel_getpc(benchmark, noh_state):
    setup, state = noh_state
    p, cs2 = benchmark(setup.table.getpc, state.mat, state.rho, state.e)
    assert cs2.min() > 0


def test_kernel_getdt(benchmark, noh_state):
    _, state = noh_state
    cands = benchmark(local_dt_candidates, state, HydroControls())
    assert cands[0][0] > 0


def test_full_lagstep(benchmark, noh_state):
    """One full predictor-corrector step on a copy of the state."""
    setup, state = noh_state
    gamma = setup.table.gamma_like(state.mat)
    timers = TimerRegistry(enabled=False)

    def step():
        s = state.copy()
        lagstep(s, setup.table, setup.controls, 1e-5, timers, gamma)
        return s

    s = benchmark(step)
    assert np.isfinite(s.e).all()


def test_scatter_throughput(benchmark, noh_state):
    """The bincount scatter that implements the acceleration assembly."""
    _, state = noh_state
    field = np.random.default_rng(0).standard_normal(
        (state.mesh.ncell, 4))
    out = benchmark(state.scatter_to_nodes, field)
    assert out.shape == (state.mesh.nnode,)
