"""Unit tests for subdomain/halo construction."""

import numpy as np
import pytest

from repro.mesh.generator import perturbed_mesh, rect_mesh
from repro.parallel.halo import build_subdomains, local_state, unique_ints
from repro.parallel.partition import partition
from repro.problems import load_problem
from repro.utils.errors import PartitionError


@pytest.fixture
def decomposition():
    mesh = perturbed_mesh(8, 6, amplitude=0.15, seed=2)
    part = partition(mesh, 3, "rcb")
    return mesh, part, build_subdomains(mesh, part, 3)


def test_owned_cells_partition_globally(decomposition):
    mesh, part, subs = decomposition
    owned = np.concatenate([
        sub.cell_global[: sub.n_owned_cells] for sub in subs
    ])
    np.testing.assert_array_equal(np.sort(owned), np.arange(mesh.ncell))


def test_owned_cells_match_partition(decomposition):
    mesh, part, subs = decomposition
    for r, sub in enumerate(subs):
        mine = sub.cell_global[: sub.n_owned_cells]
        np.testing.assert_array_equal(np.sort(mine),
                                      np.flatnonzero(part == r))


def test_ghost_cells_are_face_neighbours(decomposition):
    mesh, part, subs = decomposition
    for r, sub in enumerate(subs):
        ghosts = set(sub.cell_global[sub.n_owned_cells:].tolist())
        expected = set()
        pairs = mesh.cell_adjacency_pairs()
        for a, b in pairs:
            if part[a] == r and part[b] != r:
                expected.add(int(b))
            if part[b] == r and part[a] != r:
                expected.add(int(a))
        assert ghosts == expected


def test_local_meshes_contain_all_local_cell_nodes(decomposition):
    mesh, part, subs = decomposition
    for sub in subs:
        # every global node of the local cells is present exactly once
        expected = np.unique(mesh.cell_nodes[sub.cell_global].ravel())
        np.testing.assert_array_equal(sub.node_global, expected)
        # local connectivity maps back to the global one
        back = sub.node_global[sub.mesh.cell_nodes]
        np.testing.assert_array_equal(back, mesh.cell_nodes[sub.cell_global])


def test_owned_neighbours_present_locally(decomposition):
    """Every neighbour of an owned cell exists in the local mesh —
    the property the viscosity limiter requires."""
    mesh, part, subs = decomposition
    for sub in subs:
        local_of = {g: l for l, g in enumerate(sub.cell_global)}
        for lc in range(sub.n_owned_cells):
            gc = sub.cell_global[lc]
            for k in range(4):
                gn = mesh.cell_neighbours[gc, k]
                ln = sub.mesh.cell_neighbours[lc, k]
                if gn < 0:
                    assert ln == -1
                else:
                    assert ln == local_of[int(gn)]


def test_send_recv_schedules_aligned(decomposition):
    mesh, part, subs = decomposition
    for r, sub in enumerate(subs):
        for s, recv_idx in sub.recv_nodes.items():
            send_idx = subs[s].send_nodes[r]
            np.testing.assert_array_equal(
                sub.node_global[recv_idx], subs[s].node_global[send_idx]
            )


def test_recv_nodes_are_ghost_only(decomposition):
    mesh, part, subs = decomposition
    for sub in subs:
        for idx in sub.recv_nodes.values():
            assert not sub.active_node_mask[idx].any()


def test_senders_are_active_for_sent_nodes(decomposition):
    mesh, part, subs = decomposition
    for sub in subs:
        for idx in sub.send_nodes.values():
            assert sub.active_node_mask[idx].all()


def test_shared_nodes_symmetric_and_aligned(decomposition):
    mesh, part, subs = decomposition
    for r, sub in enumerate(subs):
        for s, mine in sub.shared_nodes.items():
            theirs = subs[s].shared_nodes[r]
            np.testing.assert_array_equal(
                sub.node_global[mine], subs[s].node_global[theirs]
            )


def test_shared_nodes_cover_all_multirank_nodes(decomposition):
    mesh, part, subs = decomposition
    # a node incident to owned cells of ranks r and s appears in both
    flat_nodes = mesh.cell_nodes.ravel()
    flat_part = np.repeat(part, 4)
    for node in range(mesh.nnode):
        ranks = np.unique(flat_part[flat_nodes == node])
        if ranks.size < 2:
            continue
        for r in ranks:
            for s in ranks:
                if r == s:
                    continue
                sub = subs[r]
                mine = sub.shared_nodes[int(s)]
                assert node in sub.node_global[mine]


def test_local_state_restriction():
    setup = load_problem("sod", nx=12, ny=3)
    mesh = setup.state.mesh
    part = partition(mesh, 2, "rcb")
    subs = build_subdomains(mesh, part, 2)
    st = local_state(subs[0], setup.state)
    np.testing.assert_array_equal(st.rho,
                                  setup.state.rho[subs[0].cell_global])
    np.testing.assert_array_equal(st.x,
                                  setup.state.x[subs[0].node_global])
    np.testing.assert_array_equal(st.bc.flags,
                                  setup.state.bc.flags[subs[0].node_global])
    # copies, not views
    st.rho[:] = -1
    assert setup.state.rho.min() > 0


def test_bad_partition_shape_rejected():
    mesh = rect_mesh(3, 3)
    with pytest.raises(PartitionError):
        build_subdomains(mesh, np.zeros(5, dtype=int), 2)


def test_halo_counts_positive(decomposition):
    _, _, subs = decomposition
    assert all(sub.halo_node_count() >= 0 for sub in subs)
    assert sum(sub.shared_node_count() for sub in subs) > 0


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.intp])
@pytest.mark.parametrize("shape", [(0,), (1,), (7,), (500,), (40, 4), (0, 4)])
def test_unique_ints_is_np_unique(dtype, shape):
    """The halo build's ``unique_ints`` returns what ``np.unique``
    would — same values, same order, same dtype — for ids with and
    without repeats, flat or not."""
    rng = np.random.default_rng(sum(shape))
    values = rng.integers(0, max(2, shape[0] // 3), size=shape).astype(dtype)
    got, want = unique_ints(values), np.unique(values)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
