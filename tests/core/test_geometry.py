"""Unit tests for the geometry kernels (getgeom).

Corner arrays are corner-major, (4, ncell): ``a[k, c]`` is corner ``k``
of cell ``c`` and the subzone gradients are ``[subzone, node, cell]``.
"""

import numpy as np
import pytest

from repro.core import geometry
from repro.mesh.generator import perturbed_mesh, rect_mesh, single_cell_mesh
from repro.utils.errors import TangledMeshError


def _cell_coords(mesh):
    return geometry.gather(mesh, mesh.x, mesh.y)


def test_cell_volume_unit_square():
    cx, cy = _cell_coords(single_cell_mesh())
    assert geometry.cell_volumes(cx, cy)[0] == pytest.approx(1.0)


def test_cell_volume_general_quad():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [2.5, 1.5], [0.0, 1.0]])
    cx, cy = _cell_coords(single_cell_mesh(coords))
    # shoelace by hand: 0.5 * |x_i y_{i+1} - x_{i+1} y_i| ...
    expected = 0.5 * abs(
        0 * 0 - 2 * 0 + 2 * 1.5 - 2.5 * 0 + 2.5 * 1 - 0 * 1.5 + 0 * 0 - 0 * 1
    )
    assert geometry.cell_volumes(cx, cy)[0] == pytest.approx(expected)


def test_volume_gradients_match_finite_differences(wonky_mesh):
    """∂V/∂x_i exact vs central differences on a random cell corner."""
    mesh = wonky_mesh
    x = mesh.x.copy()
    y = mesh.y.copy()
    cx, cy = geometry.gather(mesh, x, y)
    dvdx, dvdy = geometry.volume_gradients(cx, cy)
    rng = np.random.default_rng(0)
    h = 1e-7
    for _ in range(5):
        c = rng.integers(mesh.ncell)
        k = rng.integers(4)
        node = mesh.cell_nodes[c, k]
        for arr, grad in ((x, dvdx), (y, dvdy)):
            arr[node] += h
            vp = geometry.cell_volumes(*geometry.gather(mesh, x, y))[c]
            arr[node] -= 2 * h
            vm = geometry.cell_volumes(*geometry.gather(mesh, x, y))[c]
            arr[node] += h
            fd = (vp - vm) / (2 * h)
            assert grad[k, c] == pytest.approx(fd, abs=1e-6)


def test_volume_gradients_sum_to_zero(wonky_mesh):
    """Translation invariance: Σ_i ∂V/∂x_i = 0 per cell."""
    cx, cy = _cell_coords(wonky_mesh)
    dvdx, dvdy = geometry.volume_gradients(cx, cy)
    np.testing.assert_allclose(dvdx.sum(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(dvdy.sum(axis=0), 0.0, atol=1e-14)


def test_corner_volumes_tile_the_cell(wonky_mesh):
    cx, cy = _cell_coords(wonky_mesh)
    cvol = geometry.corner_volumes(cx, cy)
    vol = geometry.cell_volumes(cx, cy)
    np.testing.assert_allclose(cvol.sum(axis=0), vol, rtol=1e-13)


def test_corner_volumes_square_are_quarters():
    cx, cy = _cell_coords(single_cell_mesh())
    cvol = geometry.corner_volumes(cx, cy)
    assert cvol.shape == (4, 1)
    np.testing.assert_allclose(cvol[:, 0], 0.25)


def test_subzone_gradients_sum_to_cell_gradient(wonky_mesh):
    cx, cy = _cell_coords(wonky_mesh)
    gx, gy = geometry.subzone_volume_gradients(cx, cy)
    dvdx, dvdy = geometry.volume_gradients(cx, cy)
    np.testing.assert_allclose(gx.sum(axis=0), dvdx, atol=1e-13)
    np.testing.assert_allclose(gy.sum(axis=0), dvdy, atol=1e-13)


def test_subzone_gradients_momentum_free(wonky_mesh):
    """Each subzone's gradients sum to zero over the cell's nodes."""
    cx, cy = _cell_coords(wonky_mesh)
    gx, gy = geometry.subzone_volume_gradients(cx, cy)
    np.testing.assert_allclose(gx.sum(axis=1), 0.0, atol=1e-13)
    np.testing.assert_allclose(gy.sum(axis=1), 0.0, atol=1e-13)


def test_subzone_gradients_match_finite_differences():
    mesh = perturbed_mesh(2, 2, amplitude=0.2, seed=5)
    x = mesh.x.copy()
    y = mesh.y.copy()
    cx, cy = geometry.gather(mesh, x, y)
    gx, _ = geometry.subzone_volume_gradients(cx, cy)
    h = 1e-7
    c, i, j = 1, 2, 0   # cell, subzone, node
    node = mesh.cell_nodes[c, j]
    x[node] += h
    vp = geometry.corner_volumes(*geometry.gather(mesh, x, y))[i, c]
    x[node] -= 2 * h
    vm = geometry.corner_volumes(*geometry.gather(mesh, x, y))[i, c]
    fd = (vp - vm) / (2 * h)
    assert gx[i, j, c] == pytest.approx(fd, abs=1e-6)


def _cfl_length(cx, cy):
    edges = [geometry.edge_diff(a, np.empty_like(a)) for a in (cx, cy)]
    return np.sqrt(geometry.cfl_length_sq(*edges,
                                          geometry.cell_volumes(cx, cy)))


def test_cfl_length_square_is_edge():
    cx, cy = _cell_coords(rect_mesh(4, 4))
    np.testing.assert_allclose(_cfl_length(cx, cy), 0.25)


def test_cfl_length_rectangle_is_short_side():
    mesh = single_cell_mesh(np.array([[0, 0], [4, 0], [4, 1], [0, 1]],
                                     dtype=float))
    cx, cy = _cell_coords(mesh)
    assert _cfl_length(cx, cy)[0] == pytest.approx(1.0)


def test_getgeom_returns_consistent_values(wonky_mesh):
    cx, cy, vol, cvol = geometry.getgeom(wonky_mesh, wonky_mesh.x,
                                         wonky_mesh.y)
    np.testing.assert_allclose(vol, wonky_mesh.cell_areas())
    np.testing.assert_allclose(cvol.sum(axis=0), vol, rtol=1e-13)
    # the gather is the corner-major face of mesh.cell_nodes
    assert np.array_equal(cx, wonky_mesh.x[wonky_mesh.cell_nodes].T)
    assert np.array_equal(cy, wonky_mesh.y[wonky_mesh.cell_nodes].T)


def test_getgeom_detects_tangling(unit_square_mesh):
    mesh = unit_square_mesh
    x = mesh.x.copy()
    y = mesh.y.copy()
    # Collapse one interior node across the domain.
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    x[interior[0]] = 5.0
    with pytest.raises(TangledMeshError) as err:
        geometry.getgeom(mesh, x, y, time=0.25)
    assert err.value.time == 0.25
    assert len(err.value.cells) >= 1


def test_check_mask_suppresses_ghost_failures(unit_square_mesh):
    mesh = unit_square_mesh
    x = mesh.x.copy()
    y = mesh.y.copy()
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    x[interior[0]] = 5.0
    bad_cells = np.flatnonzero(
        geometry.cell_volumes(*geometry.gather(mesh, x, y)) <= 0
    )
    mask = np.ones(mesh.ncell, dtype=bool)
    mask[bad_cells] = False
    # also mask cells with bad corner volumes
    cvol = geometry.corner_volumes(*geometry.gather(mesh, x, y))
    mask[np.unique(np.nonzero(cvol <= 0)[1])] = False
    cx, cy, vol, cv = geometry.getgeom(mesh, x, y, check_mask=mask)
    assert vol.shape == (mesh.ncell,)


def test_check_volumes_releases_its_mask_on_failure():
    """The failing path must hand the borrowed mask back: a tangle that
    is caught and retried must not grow the arena."""
    from repro.perf.workspace import Workspace

    ws = Workspace()
    for volume in (np.array([1.0, -1.0, 2.0]),
                   np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]])):
        for _ in range(3):
            with pytest.raises(TangledMeshError) as err:
                geometry.check_volumes(volume, ws=ws)
            assert err.value.cells == [1]
    assert len(ws) == 2          # one bool block per size, recycled
    # a mask that excludes the bad cell passes and allocates nothing new
    geometry.check_volumes(np.array([1.0, -1.0, 2.0]),
                           mask=np.array([True, False, True]), ws=ws)
    assert len(ws) == 2 and ws.misses == 2


def wide_operands(rng, shape):
    """Operands spanning 16 decades: a reassociated sum shows in a
    quarter of the cells, where smooth fields can hide it."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)


def test_corner_dot_is_numpys_own_einsum():
    """``corner_dot`` spells out, in row operations, the association
    ``einsum("ck,ck->c")`` evaluates on (ncell, 4) operands."""
    from repro.perf.workspace import scratch

    rng = np.random.default_rng(23)
    a, b = wide_operands(rng, (63, 4)), wide_operands(rng, (63, 4))
    dot = geometry.corner_dot(np.ascontiguousarray(a.T),
                              np.ascontiguousarray(b.T), np.empty(63),
                              scratch(None))
    assert np.array_equal(dot, np.einsum("ck,ck->c", a, b))
