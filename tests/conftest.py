"""Shared fixtures for the BookLeaf reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controls import HydroControls
from repro.core.state import HydroState
from repro.eos.ideal import IdealGas
from repro.eos.multimaterial import MaterialTable
from repro.mesh.boundary import classify_box_boundary
from repro.mesh.generator import perturbed_mesh, rect_mesh
from repro.mesh.topology import QuadMesh


@pytest.fixture
def unit_square_mesh():
    """A 4x4 mesh of the unit square."""
    return rect_mesh(4, 4)


@pytest.fixture
def tube_mesh():
    """A 16x2 tube mesh (Sod-like geometry)."""
    return rect_mesh(16, 2, (0.0, 1.0, 0.0, 0.125))


@pytest.fixture
def wonky_mesh():
    """A perturbed (genuinely unstructured-geometry) 6x5 mesh."""
    return perturbed_mesh(6, 5, amplitude=0.25, seed=42)


@pytest.fixture
def ideal_table():
    """Single ideal-gas material table (gamma = 1.4)."""
    table = MaterialTable()
    table.add(IdealGas(1.4))
    return table


def renumbered_mesh(mesh, seed):
    """The same mesh with its nodes renumbered by a random permutation.

    Geometry and connectivity are untouched — only the node ids change —
    which defeats the structured-grid detection, so every nodal sum
    takes the general ``bincount`` route.
    """
    perm = np.random.default_rng(seed).permutation(mesh.nnode)
    if perm[0] == 0:                   # tiny meshes can draw the identity;
        perm[0], perm[1] = perm[1], perm[0]  # keep the numbering non-canonical
    x = np.empty_like(mesh.x)
    y = np.empty_like(mesh.y)
    x[perm] = mesh.x
    y[perm] = mesh.y
    return QuadMesh(x, y, perm[mesh.cell_nodes])


def ensemble_lanes(configs, control_overrides=None, **options):
    """``submit`` the configs and return their results, asserting that
    every one ran as an ensemble lane — so no batch test can pass on
    the per-job path.  A lone job without an override restates its own
    ``cq1``: an override that changes no bit, but batches its bucket."""
    from repro.api import submit

    configs = list(configs)
    if len(configs) == 1 and not (control_overrides or [None])[0]:
        control_overrides = [{"cq1": configs[0].build_setup().controls.cq1}]
    results = submit(configs, control_overrides=control_overrides,
                     **options).results()
    assert [r.backend for r in results] == ["ensemble"] * len(configs)
    return results


def make_uniform_state(mesh, table, rho=1.0, p=1.0, u=0.0, v=0.0,
                       extents=(0.0, 1.0, 0.0, 1.0), walls=None):
    """A uniform-gas state with reflecting box walls."""
    gas = table.eos[0]
    rho_arr = np.full(mesh.ncell, rho)
    e_arr = gas.energy_from_pressure(rho_arr, np.full(mesh.ncell, p))
    bc = classify_box_boundary(mesh, extents, walls=walls)
    return HydroState.from_initial(
        mesh, table, rho_arr, e_arr,
        u=np.full(mesh.nnode, u), v=np.full(mesh.nnode, v), bc=bc,
    )


@pytest.fixture
def uniform_state(unit_square_mesh, ideal_table):
    """Uniform gas at rest on the unit square with wall BCs."""
    return make_uniform_state(unit_square_mesh, ideal_table)


@pytest.fixture
def controls():
    return HydroControls(time_end=1.0, dt_initial=1e-4)
