"""Unit tests for the swept flux volumes (alegetfvol)."""

import numpy as np
import pytest

from repro.ale.fluxvol import (dual_flux_volumes, face_flux_volumes,
                               median_points, sweep_quads)
from repro.core import geometry
from repro.mesh.generator import perturbed_mesh, rect_mesh


def _random_interior_move(mesh, scale=0.01, seed=0):
    rng = np.random.default_rng(seed)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    interior = np.ones(mesh.nnode, bool)
    interior[mesh.boundary_nodes()] = False
    x1[interior] += scale * rng.standard_normal(interior.sum())
    y1[interior] += scale * rng.standard_normal(interior.sum())
    return x1, y1


def test_sweep_quads_translation():
    """A face translated along itself sweeps zero volume."""
    fv = sweep_quads(np.array([0.0]), np.array([0.0]),
                     np.array([1.0]), np.array([0.0]),
                     np.array([1.5]), np.array([0.0]),
                     np.array([0.5]), np.array([0.0]))
    assert fv[0] == 0.0


def test_sweep_quads_normal_motion():
    """Unit face moved by h normal to itself sweeps ±h."""
    fv = sweep_quads(np.array([0.0]), np.array([0.0]),
                     np.array([1.0]), np.array([0.0]),
                     np.array([1.0]), np.array([-0.25]),
                     np.array([0.0]), np.array([-0.25]))
    assert fv[0] == pytest.approx(-0.25)


def test_no_motion_zero_fluxes(wonky_mesh):
    fv, fvb, _ = face_flux_volumes(wonky_mesh, wonky_mesh.x, wonky_mesh.y,
                                   wonky_mesh.x, wonky_mesh.y)
    assert np.all(fv == 0.0)
    assert np.all(fvb == 0.0)
    points = median_points(wonky_mesh, wonky_mesh.x, wonky_mesh.y)
    dfv = dual_flux_volumes(points, points)
    assert np.all(dfv == 0.0)


def test_primal_volume_identity(wonky_mesh):
    """V_new − V_old = −Σ_sides fv exactly (the conservation backbone)."""
    mesh = wonky_mesh
    x1, y1 = _random_interior_move(mesh, seed=3)
    v0 = mesh.cell_areas(mesh.x, mesh.y)
    v1 = mesh.cell_areas(x1, y1)
    fv, fvb, _ = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    dv = np.zeros(mesh.ncell)
    np.subtract.at(dv, mesh.face_cells[:, 0], fv)
    np.add.at(dv, mesh.face_cells[:, 1], fv)
    np.testing.assert_allclose(v1 - v0, dv, atol=1e-14)
    assert np.abs(fvb).max() == 0.0


def test_dual_volume_identity(wonky_mesh):
    mesh = wonky_mesh
    x1, y1 = _random_interior_move(mesh, seed=4)

    def nodal_volume(x, y):
        cvol = geometry.corner_volumes(*geometry.gather(mesh, x, y))
        return np.bincount(mesh.cell_nodes.ravel(), weights=cvol.T.ravel(),
                           minlength=mesh.nnode)

    w0 = nodal_volume(mesh.x, mesh.y)
    w1 = nodal_volume(x1, y1)
    dfv = dual_flux_volumes(median_points(mesh, mesh.x, mesh.y),
                            median_points(mesh, x1, y1))
    n1 = mesh.cell_nodes.ravel()
    n2 = np.roll(mesh.cell_nodes, -1, axis=1).ravel()
    dw = np.zeros(mesh.nnode)
    np.subtract.at(dw, n1, dfv.ravel())
    np.add.at(dw, n2, dfv.ravel())
    np.testing.assert_allclose(w1 - w0, dw, atol=1e-14)


def test_flux_sign_convention():
    """Moving the shared face towards cell 0 is outflow from cell 0."""
    mesh = rect_mesh(2, 1)
    # shared face is at x = 0.5 between cells 0 (left) and 1 (right)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    shared = np.isclose(mesh.x, 0.5)
    x1[shared] -= 0.1     # face moves left, into the left cell
    fv, _, _ = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    assert fv.size == 1
    left = mesh.face_cells[0, 0]
    xc, _ = mesh.cell_centroids()
    if xc[left] < 0.5:
        assert fv[0] == pytest.approx(0.1)   # outflow from the left cell
    else:
        assert fv[0] == pytest.approx(-0.1)


def test_boundary_sweep_detected():
    """Moving a boundary node off the wall shows up in fv_boundary."""
    mesh = rect_mesh(2, 2)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    corner = np.flatnonzero(np.isclose(mesh.x, 0) & np.isclose(mesh.y, 0))[0]
    x1[corner] -= 0.05
    _, fvb, _ = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    assert np.abs(fvb).max() > 0.0
