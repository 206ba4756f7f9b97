"""Property tests for :mod:`repro.perf.plans`.

The plans exist to replace per-call index derivation (``np.roll``,
``np.bincount``, fancy-index limiter lookups) with precomputed
structures.  These tests pin the equivalences the kernels rely on:

* the rolled-corner helpers are bit-for-bit ``np.roll`` (with and
  without ``out=``),
* the nodal scatter matches ``np.bincount`` bit-for-bit on every mesh —
  window adds on canonically numbered grids, ``bincount`` itself on
  arbitrary-numbered and irregular-valence meshes,
* ``spread_corners`` is bit-for-bit the broadcast it replaces,
* the hoisted limiter indices equal a fresh ``limiter_indices`` call.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh.generator import perturbed_mesh, pinwheel_mesh, rect_mesh
from repro.perf.plans import (
    MeshPlans,
    limiter_indices,
    roll_next,
    roll_prev,
    spread_corners,
)
from tests.conftest import renumbered_mesh


def _random_corner_field(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((mesh.ncell, 4))


# ----------------------------------------------------------------------
# rolled-corner columns
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_roll_next_matches_np_roll(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, 4))
    expected = np.roll(a, -1, axis=1)
    assert np.array_equal(roll_next(a), expected)
    out = np.empty_like(a)
    assert roll_next(a, out=out) is out
    assert np.array_equal(out, expected)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_roll_prev_matches_np_roll(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, 4))
    expected = np.roll(a, 1, axis=1)
    assert np.array_equal(roll_prev(a), expected)
    out = np.empty_like(a)
    assert roll_prev(a, out=out) is out
    assert np.array_equal(out, expected)


def test_rolls_work_on_integer_arrays():
    a = np.arange(20, dtype=np.int64).reshape(5, 4)
    assert np.array_equal(roll_next(a), np.roll(a, -1, axis=1))
    assert np.array_equal(roll_prev(a), np.roll(a, 1, axis=1))


# ----------------------------------------------------------------------
# spread_corners
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**31 - 1))
def test_spread_corners_matches_broadcast(n, seed):
    v = np.random.default_rng(seed).standard_normal(n)
    out = np.empty((n, 4))
    assert spread_corners(v, out) is out
    assert np.array_equal(out, np.broadcast_to(v[:, None], (n, 4)))


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
    expected = nodal[wonky_mesh.cell_nodes]
    assert np.array_equal(plans.gather(nodal), expected)
    out = np.empty((wonky_mesh.ncell, 4))
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
    fresh = limiter_indices(mesh)
    cached = (plans.lim_n_b1, plans.lim_n_b0, plans.lim_n_f1,
              plans.lim_n_f0, plans.lim_off)
    for a, b in zip(cached, fresh):
        assert np.array_equal(a, b)
        # np.take silently copies non-contiguous/wrong-dtype index
        # arrays on every call; the plan must store take-ready layouts.
        assert a.flags.c_contiguous
        if a.dtype != np.bool_:
            assert a.dtype == np.intp
