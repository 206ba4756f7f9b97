"""Unit tests for the unstructured mesh topology."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.generator import perturbed_mesh, rect_mesh, single_cell_mesh
from repro.mesh.topology import QuadMesh
from repro.utils.errors import MeshError


def test_counts_rect():
    mesh = rect_mesh(4, 3)
    assert mesh.ncell == 12
    assert mesh.nnode == 20
    # interior faces: vertical (3 per row x 3 rows) + horizontal (4 x 2)
    assert mesh.nface == 3 * 3 + 4 * 2


def test_single_cell_has_no_neighbours():
    mesh = single_cell_mesh()
    assert np.all(mesh.cell_neighbours == -1)
    assert mesh.nface == 0
    assert mesh.boundary_cells.size == 4


def test_neighbours_mutual(wonky_mesh):
    nb = wonky_mesh.cell_neighbours
    ns = wonky_mesh.neighbour_side
    for c in range(wonky_mesh.ncell):
        for k in range(4):
            n = nb[c, k]
            if n < 0:
                continue
            back = ns[c, k]
            assert nb[n, back] == c
            assert ns[n, back] == k


def test_shared_side_nodes_match(wonky_mesh):
    cn = wonky_mesh.cell_nodes
    nb = wonky_mesh.cell_neighbours
    ns = wonky_mesh.neighbour_side
    for c in range(wonky_mesh.ncell):
        for k in range(4):
            n = nb[c, k]
            if n < 0:
                continue
            mine = {cn[c, k], cn[c, (k + 1) % 4]}
            theirs = {cn[n, ns[c, k]], cn[n, (ns[c, k] + 1) % 4]}
            assert mine == theirs


def test_neighbour_traverses_shared_side_reversed(wonky_mesh):
    """CCW orientation: the neighbour traverses the shared side backwards."""
    cn = wonky_mesh.cell_nodes
    nb = wonky_mesh.cell_neighbours
    ns = wonky_mesh.neighbour_side
    c, k = np.argwhere(nb >= 0)[0]
    n, s = nb[c, k], ns[c, k]
    assert cn[c, k] == cn[n, (s + 1) % 4]
    assert cn[c, (k + 1) % 4] == cn[n, s]


def test_node_cell_csr_covers_every_corner(wonky_mesh):
    mesh = wonky_mesh
    total = mesh.node_cell_offsets[-1]
    assert total == 4 * mesh.ncell
    # every (cell, corner) pair appears exactly once
    seen = set()
    for node in range(mesh.nnode):
        lo, hi = mesh.node_cell_offsets[node], mesh.node_cell_offsets[node + 1]
        for c, k in zip(mesh.node_cell_cells[lo:hi],
                        mesh.node_cell_corner[lo:hi]):
            assert mesh.cell_nodes[c, k] == node
            seen.add((int(c), int(k)))
    assert len(seen) == 4 * mesh.ncell


def test_node_degree_rect_interior_is_four():
    mesh = rect_mesh(4, 4)
    deg = mesh.node_degree()
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    assert np.all(deg[interior] == 4)
    assert deg.min() == 1  # corners


def test_boundary_nodes_rect():
    mesh = rect_mesh(3, 3, (0.0, 1.0, 0.0, 1.0))
    b = mesh.boundary_nodes()
    on_edge = (
        np.isclose(mesh.x, 0) | np.isclose(mesh.x, 1)
        | np.isclose(mesh.y, 0) | np.isclose(mesh.y, 1)
    )
    np.testing.assert_array_equal(np.sort(b), np.flatnonzero(on_edge))


def test_cell_areas_rect():
    mesh = rect_mesh(5, 2, (0.0, 1.0, 0.0, 0.5))
    np.testing.assert_allclose(mesh.cell_areas(), (1 / 5) * (0.25))


def test_cell_centroids_rect():
    mesh = rect_mesh(2, 1, (0.0, 2.0, 0.0, 1.0))
    xc, yc = mesh.cell_centroids()
    np.testing.assert_allclose(np.sort(xc), [0.5, 1.5])
    np.testing.assert_allclose(yc, 0.5)


def test_face_nodes_belong_to_left_cell(wonky_mesh):
    mesh = wonky_mesh
    for f in range(mesh.nface):
        c0 = mesh.face_cells[f, 0]
        s0 = mesh.face_sides[f, 0]
        assert mesh.face_nodes[f, 0] == mesh.cell_nodes[c0, s0]
        assert mesh.face_nodes[f, 1] == mesh.cell_nodes[c0, (s0 + 1) % 4]


def test_cells_around_node(unit_square_mesh):
    mesh = unit_square_mesh
    # a central node of the 4x4 mesh touches 4 cells
    centre = np.argmin((mesh.x - 0.5) ** 2 + (mesh.y - 0.5) ** 2)
    assert mesh.cells_around_node(int(centre)).size == 4


def test_cw_cell_rejected():
    coords = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(MeshError, match="non-positive"):
        single_cell_mesh(coords)


def test_repeated_node_rejected():
    x = np.array([0.0, 1.0, 1.0])
    y = np.array([0.0, 0.0, 1.0])
    cn = np.array([[0, 1, 2, 2]])
    with pytest.raises(MeshError, match="repeated nodes"):
        QuadMesh(x, y, cn)


def test_out_of_range_index_rejected():
    x = np.array([0.0, 1.0, 1.0, 0.0])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    with pytest.raises(MeshError, match="out of range"):
        QuadMesh(x, y, np.array([[0, 1, 2, 7]]))


def test_non_manifold_rejected():
    """Three cells sharing one side is not a valid 2-D mesh."""
    x = np.array([0.0, 1.0, 1.0, 0.0, 2.0, -1.0, 0.5])
    y = np.array([0.0, 0.0, 1.0, 1.0, 0.5, 0.5, -1.0])
    cells = np.array([
        [0, 1, 2, 3],
        [1, 0, 6, 4],   # shares side (0,1)
        [0, 1, 4, 5],   # also shares side (0,1) -> non-manifold
    ])
    with pytest.raises(MeshError, match="non-manifold"):
        QuadMesh(x, y, cells)


def test_empty_mesh_rejected():
    with pytest.raises(MeshError, match="no cells"):
        QuadMesh(np.array([0.0]), np.array([0.0]),
                 np.empty((0, 4), dtype=np.int64))


def test_mismatched_coordinate_shapes_rejected():
    with pytest.raises(MeshError, match="equal length"):
        QuadMesh(np.zeros(4), np.zeros(5), np.array([[0, 1, 2, 3]]))


def test_adjacency_pairs_unique_and_complete(unit_square_mesh):
    pairs = unit_square_mesh.cell_adjacency_pairs()
    assert pairs.shape == (unit_square_mesh.nface, 2)
    keys = {tuple(sorted(p)) for p in pairs}
    assert len(keys) == unit_square_mesh.nface


def test_mixed_structured_unstructured_node_degree():
    """The perturbed mesh keeps rect topology: interior degree 4."""
    from repro.mesh.generator import perturbed_mesh

    mesh = perturbed_mesh(5, 5, amplitude=0.3, seed=3)
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    assert np.all(mesh.node_degree()[interior] == 4)


# ----------------------------------------------------------------------
# every validate() branch, reached through the constructor or by editing
# a built mesh's tables and validating again
# ----------------------------------------------------------------------
def test_orphan_node_rejected():
    x = np.array([0.0, 1.0, 1.0, 0.0, 5.0])
    y = np.array([0.0, 0.0, 1.0, 1.0, 5.0])
    with pytest.raises(MeshError, match=r"^orphan nodes: \[4\]$"):
        QuadMesh(x, y, np.array([[0, 1, 2, 3]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_coordinate_rejected(bad):
    mesh = rect_mesh(3, 3)
    x = mesh.x.copy()
    x[5] = bad
    with pytest.raises(MeshError,
                       match=r"^non-finite node coordinates: \[5\]$"):
        QuadMesh(x, mesh.y, mesh.cell_nodes)
    y = mesh.y.copy()
    y[[9, 2]] = bad
    with pytest.raises(MeshError,
                       match=r"^non-finite node coordinates: \[2, 9\]$"):
        QuadMesh(mesh.x, y, mesh.cell_nodes)


def _edited(mesh):
    """``mesh`` with private copies of its neighbour tables."""
    mesh.cell_neighbours = mesh.cell_neighbours.copy()
    mesh.neighbour_side = mesh.neighbour_side.copy()
    return mesh


def test_one_sided_neighbour_rejected():
    mesh = _edited(rect_mesh(3, 3))
    mesh.validate()
    # cell 4 (the centre) now claims cell 0 across a side cell 0 never
    # points back across
    side = int(np.flatnonzero(mesh.cell_neighbours[4] >= 0)[0])
    mesh.cell_neighbours[4, side] = 0
    with pytest.raises(MeshError, match="^neighbour tables are not mutual$"):
        mesh.validate()


def test_mutual_neighbours_across_the_wrong_sides_rejected():
    """Cell 1 of a 3-cell row swaps its left and right neighbours, and
    both neighbours point back at the swapped sides: the tables stay
    mutual, but each paired side joins two different node pairs."""
    mesh = _edited(rect_mesh(3, 1))
    nb, ns = mesh.cell_neighbours, mesh.neighbour_side
    s0, s1 = np.flatnonzero(nb[1] >= 0)
    d0, d1, t0, t1 = nb[1, s0], nb[1, s1], ns[1, s0], ns[1, s1]
    nb[1, s0], ns[1, s0], nb[1, s1], ns[1, s1] = d1, t1, d0, t0
    ns[d0, t0], ns[d1, t1] = s1, s0
    with pytest.raises(MeshError,
                       match="^paired sides reference different nodes$"):
        mesh.validate()


# ----------------------------------------------------------------------
# validate() against the sort-based formulation it replaced
# ----------------------------------------------------------------------
def _sorted_rows_validate(mesh):
    """The row-sorting ``QuadMesh.validate``, kept as the oracle: the
    same checks, in the same order, with the same messages."""
    cn = mesh.cell_nodes
    sorted_nodes = np.sort(cn, axis=1)
    if np.any(sorted_nodes[:, :-1] == sorted_nodes[:, 1:]):
        bad = np.flatnonzero(
            (sorted_nodes[:, :-1] == sorted_nodes[:, 1:]).any(axis=1)
        )[:5]
        raise MeshError(f"cells with repeated nodes: {bad.tolist()}")
    areas = mesh.cell_areas()
    if np.any(areas <= 0.0):
        bad = np.flatnonzero(areas <= 0.0)[:5]
        raise MeshError(
            f"cells with non-positive initial area: {bad.tolist()}"
        )
    nb = mesh.cell_neighbours
    ns = mesh.neighbour_side
    ci, si = np.nonzero(nb >= 0)
    back = nb[nb[ci, si], ns[ci, si]]
    if not np.array_equal(back, ci):
        raise MeshError("neighbour tables are not mutual")
    mine = np.sort(np.stack([cn[ci, si], cn[ci, (si + 1) % 4]], axis=1),
                   axis=1)
    oc, os_ = nb[ci, si], ns[ci, si]
    theirs = np.sort(
        np.stack([cn[oc, os_], cn[oc, (os_ + 1) % 4]], axis=1), axis=1
    )
    if not np.array_equal(mine, theirs):
        raise MeshError("paired sides reference different nodes")
    if np.any(mesh.node_degree() == 0):
        orphan = np.flatnonzero(mesh.node_degree() == 0)[:5]
        raise MeshError(f"orphan nodes: {orphan.tolist()}")


def _verdict(check):
    try:
        check()
    except MeshError as exc:
        return str(exc)
    return None


#: one edit of a built mesh: (table, fraction picking the entry,
#: fraction picking the new value)
_edits = st.tuples(
    st.sampled_from(["node", "neighbour", "side", "boundary", "coord",
                     "csr"]),
    st.floats(0.0, 0.999), st.floats(0.0, 0.999))


@given(dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       seed=st.integers(0, 50), edits=st.lists(_edits, max_size=3))
@settings(max_examples=300, deadline=None)
def test_validate_agrees_with_the_sorted_rows_oracle(dims, seed, edits):
    """On a perturbed mesh with up to three edited entries, validate()
    raises exactly when the oracle does, with the same message."""
    mesh = _edited(perturbed_mesh(*dims, amplitude=0.2, seed=seed))
    mesh.cell_nodes = mesh.cell_nodes.copy()
    mesh.x, mesh.y = mesh.x.copy(), mesh.y.copy()
    mesh.node_cell_offsets = mesh.node_cell_offsets.copy()
    nb, ns = mesh.cell_neighbours, mesh.neighbour_side
    for table, where, value in edits:
        cell, side = divmod(int(where * 4 * mesh.ncell), 4)
        if table == "node":
            mesh.cell_nodes[cell, side] = int(value * mesh.nnode)
        elif table == "neighbour":
            nb[cell, side] = int(value * mesh.ncell)
            if ns[cell, side] < 0:
                ns[cell, side] = int(value * 4)
        elif table == "side" and nb[cell, side] >= 0:
            ns[cell, side] = int(value * 4)
        elif table == "boundary":
            nb[cell, side] = ns[cell, side] = -1
        elif table == "coord":
            node = mesh.cell_nodes[cell, side]
            mesh.x[node] += 2.0 * value - 1.0
        elif table == "csr":    # the node's corners go to the next node
            node = int(value * mesh.nnode)
            mesh.node_cell_offsets[node + 1] = mesh.node_cell_offsets[node]
    assert _verdict(mesh.validate) == _verdict(
        lambda: _sorted_rows_validate(mesh))
