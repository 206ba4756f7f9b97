"""Property tests for :mod:`repro.perf.plans`.

The plans exist to replace per-call index derivation (``np.roll``,
``np.bincount``, fancy-index limiter lookups) with precomputed
structures.  These tests pin the equivalences the kernels rely on:

* ``corner_reduce`` is bit-for-bit numpy's own length-4 reduction, in
  either layout (with and without ``out=``),
* the nodal scatter matches ``np.bincount`` bit-for-bit on every mesh —
  window adds on canonically numbered grids, ``bincount`` itself on
  arbitrary-numbered and irregular-valence meshes — for an (ncell, 4)
  field and for the ``.T`` view of a corner-major one,
* the hoisted limiter indices are take-ready, and the corner-major
  edge form reads the very jumps the node form subtracts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.generator import perturbed_mesh, pinwheel_mesh, rect_mesh
from repro.perf.plans import MeshPlans, corner_reduce
from tests.conftest import renumbered_mesh


def _random_corner_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((mesh.ncell, 4))


# ----------------------------------------------------------------------
# corner reductions
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_corner_reduce_is_bitwise_numpy_reduce(n, seed):
    rng = np.random.default_rng(seed)
    # wide dynamic range: a reassociated sum would show
    a = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-8, 8, (n, 4))
    major = np.ascontiguousarray(a.T)       # the in-step (4, n) layout
    for op, reduce in ((np.add, np.sum), (np.maximum, np.max),
                       (np.minimum, np.min)):
        expected = reduce(a, axis=1)
        assert np.array_equal(corner_reduce(op, a), expected)
        out = np.empty(n)
        assert corner_reduce(op, major.T, out=out) is out
        assert np.array_equal(out, expected)


# ----------------------------------------------------------------------
# scatter plan vs bincount
# ----------------------------------------------------------------------
def _bincount_scatter(mesh, field):
    return np.bincount(mesh.cell_nodes.reshape(-1),
                       weights=field.reshape(-1), minlength=mesh.nnode)


@pytest.mark.parametrize("nx,ny", [(1, 1), (5, 3), (8, 8), (17, 4)])
def test_structured_scatter_is_bitwise_bincount(nx, ny):
    mesh = rect_mesh(nx, ny)
    plans = MeshPlans(mesh)
    assert plans.grid_shape == (ny, nx)
    field = _random_corner_field(mesh, seed=nx * 1000 + ny)
    assert np.array_equal(plans.scatter_to_nodes(field),
                          _bincount_scatter(mesh, field))
    major = np.ascontiguousarray(field.T)
    assert np.array_equal(plans.scatter_to_nodes(major.T),
                          _bincount_scatter(mesh, field))


def test_structured_scatter_with_out_and_perturbed_coords():
    # Coordinate perturbation keeps the canonical numbering, so the
    # structured (bit-exact) path still applies.
    mesh = perturbed_mesh(7, 6, amplitude=0.2, seed=3)
    plans = MeshPlans(mesh)
    assert plans.grid_shape == (6, 7)
    field = _random_corner_field(mesh, seed=11)
    out = np.empty(mesh.nnode)
    result = plans.scatter_to_nodes(field, out=out)
    assert result is out
    assert np.array_equal(out, _bincount_scatter(mesh, field))


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12),
       seed=st.integers(0, 2**31 - 1))
def test_offgrid_scatter_is_bitwise_bincount_on_random_meshes(nx, ny, seed):
    mesh = renumbered_mesh(rect_mesh(nx, ny), seed)
    plans = MeshPlans(mesh)
    assert plans.grid_shape is None          # renumbering defeats detection
    field = np.random.default_rng(seed ^ 0xBEEF).standard_normal(
        (mesh.ncell, 4))
    expected = _bincount_scatter(mesh, field)
    assert np.array_equal(plans.scatter_to_nodes(field), expected)
    out = np.empty(mesh.nnode)
    assert plans.scatter_to_nodes(field, out=out) is out
    assert np.array_equal(out, expected)


def _assert_bitwise_bincount(mesh, seed):
    plans = MeshPlans(mesh)
    assert plans.grid_shape is None
    field = _random_corner_field(mesh, seed=seed)
    expected = _bincount_scatter(mesh, field)
    assert np.array_equal(plans.scatter_to_nodes(field), expected)
    out = np.empty(mesh.nnode)
    assert plans.scatter_to_nodes(field, out=out) is out
    assert np.array_equal(out, expected)
    major = np.ascontiguousarray(field.T)
    assert np.array_equal(plans.scatter_to_nodes(major.T), expected)


def test_offgrid_scatter_on_pinwheel_mesh():
    # Irregular valence (the defining freedom of an unstructured mesh).
    _assert_bitwise_bincount(pinwheel_mesh(nquads=5), seed=99)


def test_high_valence_falls_back_to_bincount():
    # No valence is special: 9 cells round one node scatter the same way.
    _assert_bitwise_bincount(pinwheel_mesh(nquads=9), seed=7)


def test_scatter_conserves_total():
    mesh = renumbered_mesh(rect_mesh(6, 9), seed=5)
    plans = MeshPlans(mesh)
    field = _random_corner_field(mesh, seed=5)
    total = plans.scatter_to_nodes(field).sum()
    np.testing.assert_allclose(total, field.sum(),
                               atol=1e-13 * np.abs(field).sum())


# ----------------------------------------------------------------------
# gather
# ----------------------------------------------------------------------
def test_gather_matches_fancy_index(wonky_mesh):
    plans = MeshPlans(wonky_mesh)
    nodal = np.random.default_rng(2).standard_normal(wonky_mesh.nnode)
    expected = nodal[wonky_mesh.cell_nodes].T       # corner-major
    assert np.array_equal(plans.gather(nodal), expected)
    out = np.empty((4, wonky_mesh.ncell))
    assert plans.gather(nodal, out=out) is out
    assert np.array_equal(out, expected)


# ----------------------------------------------------------------------
# hoisted limiter indices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: rect_mesh(6, 4),
    lambda: perturbed_mesh(5, 5, amplitude=0.25, seed=1),
    lambda: pinwheel_mesh(nquads=4),
])
def test_limiter_indices_are_hoisted_and_contiguous(make):
    mesh = make()
    plans = MeshPlans(mesh)
    for cached in (plans.limiter_nodes, plans.limiter_edges,
                   (plans.corner_nodes,)):
        for a in cached:
            # np.take silently copies non-contiguous/wrong-dtype index
            # arrays on every call; the plan must store take-ready layouts.
            assert a.flags.c_contiguous
            if a.dtype != np.bool_:
                assert a.dtype == np.intp
    # The edge form reads, out of the corner-major jumps of all cells,
    # exactly the differences the node form subtracts.
    n_b1, n_b0, n_f1, n_f0, off = plans.limiter_nodes
    back, fwd, off_major = plans.limiter_edges
    u = np.random.default_rng(8).standard_normal(mesh.nnode)
    cu = plans.gather(u)
    du = np.roll(cu, -1, axis=0) - cu
    assert np.array_equal(np.take(du, back), (u[n_b1] - u[n_b0]).T)
    assert np.array_equal(np.take(du, fwd), (u[n_f1] - u[n_f0]).T)
    assert np.array_equal(off_major, off.T)


# ----------------------------------------------------------------------
# remap indices
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: rect_mesh(6, 4),
    lambda: renumbered_mesh(perturbed_mesh(5, 5, amplitude=0.25, seed=1), 2),
    lambda: pinwheel_mesh(nquads=4),
    lambda: rect_mesh(7, 1),
])
def test_remap_indices_match_their_definitions(make):
    mesh = make()
    plans = MeshPlans(mesh)
    nb = mesh.cell_neighbours
    own = np.arange(mesh.ncell)[:, None]
    stencil = plans.stencil_cells
    assert stencil.flags.c_contiguous and stencil.dtype == np.intp
    assert np.array_equal(stencil, np.where(nb >= 0, nb, own).T)
    # boundary sides in the mesh's own list order (the decomposed
    # driver masks them by position)
    cells, sides = mesh.boundary_cells, mesh.boundary_sides
    assert np.array_equal(plans.boundary_side_nodes, np.stack(
        [mesh.cell_nodes[cells, sides],
         mesh.cell_nodes[cells, (sides + 1) % 4]], axis=1))
    assert np.array_equal(plans.side_end_nodes,
                          np.roll(mesh.cell_nodes, -1, axis=1))
