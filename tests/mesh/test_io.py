"""Tests for the mesh text format."""

import numpy as np
import pytest

from repro.mesh.boundary import FIX_X, FIX_Y, classify_box_boundary
from repro.mesh.generator import perturbed_mesh, rect_mesh, saltzmann_mesh
from repro.mesh.io import read_mesh, write_mesh
from repro.utils.errors import MeshError


def test_roundtrip_rect(tmp_path):
    mesh = rect_mesh(5, 3)
    path = write_mesh(tmp_path / "m.txt", mesh)
    back, bc = read_mesh(path)
    np.testing.assert_array_equal(back.x, mesh.x)
    np.testing.assert_array_equal(back.y, mesh.y)
    np.testing.assert_array_equal(back.cell_nodes, mesh.cell_nodes)
    assert bc.constrained_nodes().size == 0


def test_roundtrip_exact_coordinates(tmp_path):
    """%.17g round-trips float64 exactly."""
    mesh = perturbed_mesh(4, 4, amplitude=0.27, seed=11)
    back, _ = read_mesh(write_mesh(tmp_path / "m.txt", mesh))
    np.testing.assert_array_equal(back.x, mesh.x)


def test_roundtrip_with_bcs(tmp_path):
    mesh = rect_mesh(4, 4)
    bc = classify_box_boundary(mesh, (0.0, 1.0, 0.0, 1.0))
    bc.ux[0] = 2.5
    back, bc2 = read_mesh(write_mesh(tmp_path / "m.txt", mesh, bc=bc))
    np.testing.assert_array_equal(bc2.flags, bc.flags)
    assert bc2.ux[0] == 2.5


def test_roundtrip_saltzmann_topology(tmp_path):
    mesh = saltzmann_mesh(20, 4)
    back, _ = read_mesh(write_mesh(tmp_path / "m.txt", mesh))
    np.testing.assert_array_equal(back.cell_neighbours,
                                  mesh.cell_neighbours)
    assert back.nface == mesh.nface


def test_read_validates_topology(tmp_path):
    """A CW cell in the file is rejected by the QuadMesh constructor."""
    path = tmp_path / "bad.txt"
    path.write_text(
        "# bookleaf-mesh v1\n"
        "nodes 4\n0 0\n1 0\n1 1\n0 1\n"
        "cells 1\n0 3 2 1\n"
    )
    with pytest.raises(MeshError, match="non-positive"):
        read_mesh(path)


def test_read_rejects_a_nan_coordinate(tmp_path):
    """``float("nan")`` parses, so the file's NaN reaches the mesh
    checks, which name the node."""
    path = tmp_path / "nan.txt"
    path.write_text(
        "# bookleaf-mesh v1\n"
        "nodes 4\n0 0\n1 0\nnan 1\n0 1\n"
        "cells 1\n0 1 2 3\n"
    )
    with pytest.raises(MeshError,
                       match=r"^non-finite node coordinates: \[2\]$"):
        read_mesh(path)


def test_missing_file(tmp_path):
    with pytest.raises(MeshError, match="does not exist"):
        read_mesh(tmp_path / "nope.txt")


def test_wrong_header(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("not a mesh\n")
    with pytest.raises(MeshError, match="not a"):
        read_mesh(path)


def test_truncated_file(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# bookleaf-mesh v1\nnodes 4\n0 0\n1 0\n")
    with pytest.raises(MeshError, match="truncated"):
        read_mesh(path)


def test_unknown_section(tmp_path):
    path = tmp_path / "u.txt"
    path.write_text("# bookleaf-mesh v1\nwibble 3\n")
    with pytest.raises(MeshError, match="unknown section"):
        read_mesh(path)


def test_missing_cells_section(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# bookleaf-mesh v1\nnodes 1\n0 0\n")
    with pytest.raises(MeshError, match="missing"):
        read_mesh(path)


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text(
        "# bookleaf-mesh v1\n\n# a comment\nnodes 4\n"
        "0 0\n1 0  # inline\n1 1\n0 1\n\ncells 1\n0 1 2 3\n"
    )
    mesh, _ = read_mesh(path)
    assert mesh.ncell == 1


def test_read_mesh_usable_in_solver(tmp_path):
    """A file-loaded mesh drives a real (tiny) calculation."""
    from repro.core.state import HydroState
    from repro.core.hydro import Hydro
    from repro.core.controls import HydroControls
    from repro.eos import IdealGas, MaterialTable

    mesh0 = rect_mesh(6, 2, (0.0, 1.0, 0.0, 0.25))
    bc0 = classify_box_boundary(mesh0, (0.0, 1.0, 0.0, 0.25))
    mesh, bc = read_mesh(write_mesh(tmp_path / "m.txt", mesh0, bc=bc0))
    table = MaterialTable()
    table.add(IdealGas(1.4))
    rho = np.ones(mesh.ncell)
    e = np.where(mesh.cell_centroids()[0] < 0.5, 2.5, 2.0)
    state = HydroState.from_initial(mesh, table, rho, e, bc=bc)
    hydro = Hydro(state, table, HydroControls(time_end=0.01,
                                              dt_initial=1e-4))
    hydro.run()
    assert hydro.done()
