"""Ghost-layer (halo) construction for the domain decomposition.

Given a per-cell partition, each rank's subdomain consists of its owned
cells plus one layer of face-adjacent *ghost* cells — exactly the halo
BookLeaf stores (paper Section III-A: "data that is required from
neighbouring processes is stored in ghost layers").  One layer is
sufficient because the only off-rank data the kernels read are the
nodal kinematics of neighbouring cells (the viscosity limiter) and the
partial force/mass sums on shared nodes (the acceleration).

Communication schedules are precomputed here:

* ``recv_nodes``/``send_nodes`` — the kinematic halo: *ghost-only*
  nodes (incident to no owned cell on the receiver) are refreshed every
  step from their owner rank (the minimum rank owning an incident
  cell).  Send/recv lists are sorted by global node id so the two sides
  align element-wise.
* ``shared_nodes`` — the force-sum halo: nodes incident to owned cells
  of several ranks exchange partial nodal sums; summation in ascending
  rank order makes the completed values bit-identical on every rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from ..core.state import HydroState
from ..eos.multimaterial import MaterialTable
from ..mesh.topology import QuadMesh
from ..utils.errors import PartitionError


@dataclass
class Subdomain:
    """One rank's piece of the global problem (topology + schedules)."""

    rank: int
    mesh: QuadMesh
    n_owned_cells: int
    cell_global: np.ndarray
    node_global: np.ndarray
    owned_cell_mask: np.ndarray
    #: nodes incident to at least one owned cell (authoritative here)
    active_node_mask: np.ndarray
    #: local boundary-side mask: True where the side is on the *global*
    #: domain boundary (False for artificial ghost-layer edges)
    physical_boundary_mask: np.ndarray = field(default=None)  # type: ignore[assignment]
    recv_nodes: Dict[int, np.ndarray] = field(default_factory=dict)
    send_nodes: Dict[int, np.ndarray] = field(default_factory=dict)
    shared_nodes: Dict[int, np.ndarray] = field(default_factory=dict)
    #: cell-field halo: ghost cells received per owner rank, and the
    #: matching owned cells each owner sends (aligned by global id)
    recv_cells: Dict[int, np.ndarray] = field(default_factory=dict)
    send_cells: Dict[int, np.ndarray] = field(default_factory=dict)

    def physical_boundary_sides(self) -> np.ndarray:
        """(nb, 2) local node pairs of the *global* boundary sides."""
        sides = self.physical_boundary_mask
        cells = self.mesh.boundary_cells[sides]
        ks = self.mesh.boundary_sides[sides]
        n0 = self.mesh.cell_nodes[cells, ks]
        n1 = self.mesh.cell_nodes[cells, (ks + 1) % 4]
        return np.stack([n0, n1], axis=1)

    def physical_boundary_nodes(self) -> np.ndarray:
        """Local node ids on the *global* domain boundary."""
        return unique_ints(self.physical_boundary_sides().ravel())

    def halo_node_count(self) -> int:
        """Total kinematic halo size (received nodes per step)."""
        return sum(v.size for v in self.recv_nodes.values())

    def shared_node_count(self) -> int:
        """Total force-sum exchange size per step."""
        return sum(v.size for v in self.shared_nodes.values())


def unique_ints(values) -> np.ndarray:
    """The sorted distinct entries of an integer array — what
    ``np.unique`` returns, without the ``numpy.ma`` import its first
    call costs on numpy 2.x."""
    flat = np.sort(np.ravel(values))
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _node_part_incidence(mesh: QuadMesh, part: np.ndarray, nparts: int
                         ) -> np.ndarray:
    """(nnode, nparts) boolean: node incident to a cell of that part."""
    inc = np.zeros((mesh.nnode, nparts), dtype=bool)
    flat_nodes = mesh.cell_nodes.ravel()
    flat_part = np.repeat(part, 4)
    inc[flat_nodes, flat_part] = True
    return inc


def build_subdomains(mesh: QuadMesh, part: np.ndarray,
                     nparts: int) -> List[Subdomain]:
    """Split the global mesh into per-rank subdomains with schedules."""
    if part.shape != (mesh.ncell,):
        raise PartitionError("partition array must have one entry per cell")
    incidence = _node_part_incidence(mesh, part, nparts)
    node_owner = np.argmax(incidence, axis=1)  # min incident rank

    pairs = mesh.cell_adjacency_pairs()
    cut = part[pairs[:, 0]] != part[pairs[:, 1]]
    cut_pairs = pairs[cut]

    subs: List[Subdomain] = []
    global_to_local_nodes: List[np.ndarray] = []
    for r in range(nparts):
        owned = np.flatnonzero(part == r)
        if owned.size == 0:
            raise PartitionError(f"rank {r} owns no cells")
        # Ghost cells: the far side of every cut face touching rank r.
        mine0 = part[cut_pairs[:, 0]] == r
        mine1 = part[cut_pairs[:, 1]] == r
        ghosts = unique_ints(np.concatenate([
            cut_pairs[mine0, 1], cut_pairs[mine1, 0]
        ]))
        local_cells = np.concatenate([owned, ghosts])
        local_nodes = unique_ints(mesh.cell_nodes[local_cells].ravel())
        remap = np.full(mesh.nnode, -1, dtype=np.int64)
        remap[local_nodes] = np.arange(local_nodes.size)
        local_cn = remap[mesh.cell_nodes[local_cells]]
        local_mesh = QuadMesh(
            mesh.x[local_nodes], mesh.y[local_nodes], local_cn
        )
        owned_mask = np.zeros(local_cells.size, dtype=bool)
        owned_mask[: owned.size] = True
        active = np.zeros(local_nodes.size, dtype=bool)
        active[unique_ints(local_cn[: owned.size].ravel())] = True
        # A local boundary side is physical iff the same side has no
        # neighbour in the *global* mesh either.
        bc_cells = local_mesh.boundary_cells
        bc_sides = local_mesh.boundary_sides
        global_nb = mesh.cell_neighbours[local_cells[bc_cells], bc_sides]
        subs.append(Subdomain(
            rank=r,
            mesh=local_mesh,
            n_owned_cells=owned.size,
            cell_global=local_cells,
            node_global=local_nodes,
            owned_cell_mask=owned_mask,
            active_node_mask=active,
            physical_boundary_mask=(global_nb < 0),
        ))
        global_to_local_nodes.append(remap)

    # Kinematic halo: ghost-only nodes are received from their owner.
    for r, sub in enumerate(subs):
        ghost_only = sub.node_global[~sub.active_node_mask]
        owners = node_owner[ghost_only]
        for s in unique_ints(owners):
            globals_rs = np.sort(ghost_only[owners == s])
            sub.recv_nodes[int(s)] = global_to_local_nodes[r][globals_rs]
            subs[int(s)].send_nodes[r] = global_to_local_nodes[int(s)][globals_rs]

    # Force-sum halo: nodes whose incident cells span both r and s.
    for r in range(nparts):
        for s in range(r + 1, nparts):
            both = np.flatnonzero(incidence[:, r] & incidence[:, s])
            if both.size == 0:
                continue
            subs[r].shared_nodes[s] = global_to_local_nodes[r][both]
            subs[s].shared_nodes[r] = global_to_local_nodes[s][both]

    # Cell-field halo: ghost cells are refreshed from their owners
    # (used by the distributed ALE remap).
    global_to_local_cells = []
    for sub in subs:
        remap_c = np.full(mesh.ncell, -1, dtype=np.int64)
        remap_c[sub.cell_global] = np.arange(sub.cell_global.size)
        global_to_local_cells.append(remap_c)
    for r, sub in enumerate(subs):
        ghosts = sub.cell_global[sub.n_owned_cells:]
        owners = part[ghosts]
        for s in unique_ints(owners):
            globals_rs = np.sort(ghosts[owners == s])
            sub.recv_cells[int(s)] = global_to_local_cells[r][globals_rs]
            subs[int(s)].send_cells[r] = (
                global_to_local_cells[int(s)][globals_rs]
            )
    return subs


def local_state(sub: Subdomain, global_state: HydroState) -> HydroState:
    """Restrict a global initial state to one subdomain.

    All arrays are *copied* slices of the global ones (including masses)
    so the local computation matches the serial one exactly — the
    distributed-vs-serial equivalence the tests rely on.
    """
    index = {"node": sub.node_global, "cell": sub.cell_global,
             "corner": sub.cell_global}
    return HydroState(
        mesh=sub.mesh,
        bc=global_state.bc.subset(sub.node_global),
        **{name: getattr(global_state, name)[index[kind]]
           for kind, names in HydroState.FIELDS.items() for name in names},
    )
