"""Unit tests for the mesh generators."""

import numpy as np
import pytest

from repro.mesh.generator import (
    perturbed_mesh,
    pinwheel_mesh,
    rect_mesh,
    saltzmann_mesh,
    shared_meshes,
    shell_mesh,
    single_cell_mesh,
)
from repro.mesh.quality import scaled_jacobian
from repro.utils.errors import MeshError


def test_rect_mesh_extents():
    mesh = rect_mesh(5, 3, (-1.0, 2.0, 0.5, 1.5))
    assert mesh.x.min() == pytest.approx(-1.0)
    assert mesh.x.max() == pytest.approx(2.0)
    assert mesh.y.min() == pytest.approx(0.5)
    assert mesh.y.max() == pytest.approx(1.5)


def test_rect_mesh_total_area():
    mesh = rect_mesh(7, 4, (0.0, 2.0, 0.0, 0.5))
    assert mesh.cell_areas().sum() == pytest.approx(1.0)


def test_rect_mesh_warp_applied():
    mesh = rect_mesh(4, 4, warp=lambda x, y: (2.0 * x, y))
    assert mesh.x.max() == pytest.approx(2.0)


@pytest.mark.parametrize("nx,ny", [(0, 3), (3, 0), (-1, 2)])
def test_rect_mesh_bad_counts(nx, ny):
    with pytest.raises(MeshError):
        rect_mesh(nx, ny)


def test_rect_mesh_degenerate_extents():
    with pytest.raises(MeshError, match="degenerate"):
        rect_mesh(2, 2, (0.0, 0.0, 0.0, 1.0))


def test_saltzmann_mesh_shape():
    mesh = saltzmann_mesh(100, 10)
    assert mesh.ncell == 1000
    # walls stay straight
    assert np.isclose(mesh.x[np.isclose(mesh.y, 0.1)],  # top row is unwarped
                      np.linspace(0, 1, 101)).all()
    # area preserved by the shear
    assert mesh.cell_areas().sum() == pytest.approx(0.1)


def test_saltzmann_mesh_is_skewed_but_valid():
    mesh = saltzmann_mesh(100, 10)
    sj = scaled_jacobian(mesh)
    assert sj.min() < 0.9       # strongly distorted...
    assert mesh.cell_areas().min() > 0.0  # ...but not inverted


def test_saltzmann_left_wall_straight():
    mesh = saltzmann_mesh(50, 5)
    left = np.isclose(mesh.x, 0.0, atol=1e-12)
    assert left.sum() == 6


def test_perturbed_mesh_keeps_boundary():
    mesh = perturbed_mesh(6, 6, amplitude=0.3, seed=1)
    b = mesh.boundary_nodes()
    on_box = (
        np.isclose(mesh.x[b], 0) | np.isclose(mesh.x[b], 1)
        | np.isclose(mesh.y[b], 0) | np.isclose(mesh.y[b], 1)
    )
    assert on_box.all()


def test_perturbed_mesh_reproducible():
    a = perturbed_mesh(5, 5, seed=7)
    b = perturbed_mesh(5, 5, seed=7)
    np.testing.assert_array_equal(a.x, b.x)


def test_perturbed_mesh_amplitude_guard():
    with pytest.raises(MeshError, match="amplitude"):
        perturbed_mesh(4, 4, amplitude=0.6)


def test_single_cell_default_unit_square():
    mesh = single_cell_mesh()
    assert mesh.cell_areas()[0] == pytest.approx(1.0)


def test_single_cell_custom_coords():
    coords = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
    mesh = single_cell_mesh(coords)
    assert mesh.cell_areas()[0] == pytest.approx(2.0)


def test_single_cell_bad_shape():
    with pytest.raises(MeshError, match="\\(4, 2\\)"):
        single_cell_mesh(np.zeros((3, 2)))


# ----------------------------------------------------------------------
# shared_meshes: a generator call is its mesh's key
# ----------------------------------------------------------------------
SHAREABLE = [
    (rect_mesh, (4, 3)),
    (saltzmann_mesh, (10, 2)),
    (shell_mesh, (3, 4, 0.5, 1.0)),
    (perturbed_mesh, (4, 4)),
    (pinwheel_mesh, (5,)),
]


@pytest.mark.parametrize("generator, args", SHAREABLE,
                         ids=[g.__name__ for g, _ in SHAREABLE])
def test_a_repeated_call_is_served_from_the_memo(generator, args):
    memo = {}
    with shared_meshes(memo):
        first = generator(*args)
        assert generator(*args) is first
    assert list(memo.values()) == [first]
    assert next(iter(memo))[0] == generator.__name__
    # the shared mesh is the mesh an unshared call builds
    fresh = generator(*args)
    assert fresh is not first
    for name in ("x", "y", "cell_nodes"):
        assert getattr(fresh, name).tobytes() == getattr(first, name).tobytes()


def test_numpy_ints_and_int_extents_hit_the_python_entry():
    memo = {}
    with shared_meshes(memo):
        mesh = rect_mesh(4, 3, (0.0, 2.0, 0.0, 1.0))
        assert rect_mesh(np.int64(4), np.int32(3), (0, 2, 0, 1)) is mesh
        assert rect_mesh(4, 3, np.array([0.0, 2.0, 0.0, 1.0])) is mesh
        assert perturbed_mesh(4, 4, seed=np.int64(3)) is \
            perturbed_mesh(4, 4, seed=3)
    assert set(memo) == {("rect_mesh", 4, 3, (0.0, 2.0, 0.0, 1.0)),
                         ("perturbed_mesh", 4, 4, (0.0, 1.0, 0.0, 1.0),
                          0.2, 3)}


def test_a_call_without_a_key_builds_fresh():
    """A ``warp`` callable (or an unseeded perturbation) has no key:
    the call builds a new mesh every time, inside the scope too, and
    never raises for want of one."""
    memo = {}
    with shared_meshes(memo):
        warped = rect_mesh(4, 4, warp=lambda x, y: (2.0 * x, y))
        assert rect_mesh(4, 4, warp=lambda x, y: (2.0 * x, y)) is not warped
        assert warped.x.max() == pytest.approx(2.0)
        assert perturbed_mesh(4, 4, seed=None) is not \
            perturbed_mesh(4, 4, seed=None)
    assert memo == {}


def test_a_failed_call_leaves_nothing_behind():
    memo = {}
    with shared_meshes(memo):
        for _ in range(2):
            with pytest.raises(MeshError, match="degenerate"):
                rect_mesh(2, 2, (0.0, 0.0, 0.0, 1.0))
            with pytest.raises(TypeError):
                rect_mesh(2.0, 2)
    assert memo == {}


def test_saltzmann_is_one_entry_not_two():
    """Its inner warped rectangle is not a second shared mesh."""
    memo = {}
    with shared_meshes(memo):
        saltzmann_mesh(10, 2)
    assert list(memo) == [("saltzmann_mesh", 10, 2, 1.0, 0.1)]
