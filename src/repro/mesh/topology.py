"""Unstructured quadrilateral mesh topology.

BookLeaf solves on a 2-D unstructured mesh of quadrilateral cells:
cells connect via faces (sides), faces intersect at nodes, and the
number of cells around a node is arbitrary (paper Section III-A).  This
module builds and validates all of the connectivity the hydro kernels
need, entirely with vectorised numpy:

* ``cell_nodes``       (ncell, 4)  — the four nodes of each cell, CCW;
  side ``k`` of a cell joins local nodes ``k`` and ``(k+1) % 4``.
* ``cell_neighbours``  (ncell, 4)  — cell across side ``k`` (-1 at a
  boundary).
* ``neighbour_side``   (ncell, 4)  — which side of the neighbour faces
  back across side ``k`` (-1 at a boundary).
* node→cell adjacency in CSR form (``node_cell_offsets``,
  ``node_cell_cells``, ``node_cell_corner``) — every (cell, corner)
  pair incident on each node.
* interior face list (``face_cells``, ``face_sides``, ``face_nodes``)
  — one entry per unique interior side, used by the ALE remap.
* boundary side list (``boundary_cells``, ``boundary_sides``).

All arrays are immutable after construction; node *coordinates* are the
only thing the Lagrangian step moves, and they live in the hydro state,
not here (the mesh object stores the initial coordinates).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from ..perf.plans import MeshPlans
from ..utils.errors import MeshError


def _shoelace_area(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed area of each quad given (n, 4) vertex coordinate arrays."""
    x1, x2, x3, x4 = (x[:, k] for k in range(4))
    y1, y2, y3, y4 = (y[:, k] for k in range(4))
    return 0.5 * ((x3 - x1) * (y4 - y2) + (x2 - x4) * (y3 - y1))


class QuadMesh:
    """Topology (and initial geometry) of an unstructured quad mesh.

    Parameters
    ----------
    x, y:
        Initial node coordinates, shape (nnode,).
    cell_nodes:
        (ncell, 4) integer array of node indices in counter-clockwise
        order.  Orientation is validated (every cell must have positive
        signed area on the initial coordinates).

    Construction always ends in :meth:`validate`.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, cell_nodes: np.ndarray):
        self.x = np.ascontiguousarray(x, dtype=np.float64)
        self.y = np.ascontiguousarray(y, dtype=np.float64)
        self.cell_nodes = np.ascontiguousarray(cell_nodes, dtype=np.int64)
        if self.x.ndim != 1 or self.y.shape != self.x.shape:
            raise MeshError("x and y must be 1-D arrays of equal length")
        if self.cell_nodes.ndim != 2 or self.cell_nodes.shape[1] != 4:
            raise MeshError("cell_nodes must have shape (ncell, 4)")
        self.nnode = self.x.size
        self.ncell = self.cell_nodes.shape[0]
        if self.ncell == 0:
            raise MeshError("mesh has no cells")
        if self.cell_nodes.min() < 0 or self.cell_nodes.max() >= self.nnode:
            raise MeshError("cell_nodes indices out of range")
        self._build_neighbours()
        self._build_node_cells()
        self._build_faces()
        self.validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_neighbours(self) -> None:
        """Match cell sides pairwise to find neighbours (vectorised)."""
        cn = self.cell_nodes
        # Side k of every cell: (node_k, node_{k+1}).
        a = cn                                  # (ncell, 4) first node
        b = np.roll(cn, -1, axis=1)             # (ncell, 4) second node
        lo = np.minimum(a, b).ravel()
        hi = np.maximum(a, b).ravel()
        key = lo * np.int64(self.nnode) + hi    # unique per undirected side
        order = np.argsort(key, kind="stable")
        sk = key[order]
        # Runs of equal keys are the same geometric side.
        is_new = np.empty(sk.size, dtype=bool)
        is_new[0] = True
        np.not_equal(sk[1:], sk[:-1], out=is_new[1:])
        run_id = np.cumsum(is_new) - 1
        counts = np.bincount(run_id)
        if counts.max(initial=0) > 2:
            bad = np.flatnonzero(counts > 2)[:5]
            raise MeshError(
                f"non-manifold mesh: {counts.max()} cells share one side "
                f"(first bad side runs: {bad.tolist()})"
            )
        cell_of = order // 4
        side_of = order % 4
        self.cell_neighbours = np.full((self.ncell, 4), -1, dtype=np.int64)
        self.neighbour_side = np.full((self.ncell, 4), -1, dtype=np.int64)
        # Pairs: positions where a run has length 2 are adjacent in the
        # sorted order: indices i, i+1 with run_id equal.
        first = np.flatnonzero(is_new)
        paired = first[counts == 2]
        c0, s0 = cell_of[paired], side_of[paired]
        c1, s1 = cell_of[paired + 1], side_of[paired + 1]
        if np.any(c0 == c1):
            raise MeshError("degenerate cell: a cell is its own neighbour")
        self.cell_neighbours[c0, s0] = c1
        self.neighbour_side[c0, s0] = s1
        self.cell_neighbours[c1, s1] = c0
        self.neighbour_side[c1, s1] = s0
        # Interior face bookkeeping reused by _build_faces.
        self._face_pairs = (c0, s0, c1, s1)
        single = first[counts == 1]
        self.boundary_cells = cell_of[single].copy()
        self.boundary_sides = side_of[single].copy()

    def _build_node_cells(self) -> None:
        """CSR node -> (cell, corner) adjacency."""
        cn = self.cell_nodes
        nodes = cn.ravel()
        corner = np.tile(np.arange(4, dtype=np.int64), self.ncell)
        cells = np.repeat(np.arange(self.ncell, dtype=np.int64), 4)
        order = np.argsort(nodes, kind="stable")
        counts = np.bincount(nodes, minlength=self.nnode)
        self.node_cell_offsets = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        self.node_cell_cells = cells[order]
        self.node_cell_corner = corner[order]

    def _build_faces(self) -> None:
        """Interior face arrays from the side pairing."""
        c0, s0, c1, s1 = self._face_pairs
        del self._face_pairs
        self.nface = c0.size
        self.face_cells = np.stack([c0, c1], axis=1)   # (nface, 2)
        self.face_sides = np.stack([s0, s1], axis=1)   # (nface, 2)
        # Face nodes ordered as traversed by the *left* cell (cell 0):
        n0 = self.cell_nodes[c0, s0]
        n1 = self.cell_nodes[c0, (s0 + 1) % 4]
        self.face_nodes = np.stack([n0, n1], axis=1)   # (nface, 2)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @cached_property
    def plans(self) -> MeshPlans:
        """Connectivity-derived index plans (limiter neighbour indices,
        grid detection for the nodal scatter), built on first use — the
        topology is immutable, so once per mesh."""
        return MeshPlans(self)

    def gather_cell_coords(self, x: Optional[np.ndarray] = None,
                           y: Optional[np.ndarray] = None
                           ) -> Tuple[np.ndarray, np.ndarray]:
        """(ncell, 4) per-corner coordinates for given (or initial) nodes."""
        x = self.x if x is None else x
        y = self.y if y is None else y
        return x[self.cell_nodes], y[self.cell_nodes]

    def cell_areas(self, x: Optional[np.ndarray] = None,
                   y: Optional[np.ndarray] = None) -> np.ndarray:
        """Signed cell areas (positive for valid CCW cells)."""
        cx, cy = self.gather_cell_coords(x, y)
        return _shoelace_area(cx, cy)

    def cell_centroids(self, x: Optional[np.ndarray] = None,
                       y: Optional[np.ndarray] = None
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Vertex-average cell centres."""
        cx, cy = self.gather_cell_coords(x, y)
        return cx.mean(axis=1), cy.mean(axis=1)

    def boundary_nodes(self) -> np.ndarray:
        """Sorted unique node indices lying on the mesh boundary."""
        n0 = self.cell_nodes[self.boundary_cells, self.boundary_sides]
        n1 = self.cell_nodes[self.boundary_cells, (self.boundary_sides + 1) % 4]
        return np.unique(np.concatenate([n0, n1]))

    def node_degree(self) -> np.ndarray:
        """Number of cells incident on each node (arbitrary — the
        defining property of an unstructured mesh)."""
        return np.diff(self.node_cell_offsets)

    def cells_around_node(self, node: int) -> np.ndarray:
        """Cell indices incident on one node."""
        lo, hi = self.node_cell_offsets[node], self.node_cell_offsets[node + 1]
        return self.node_cell_cells[lo:hi]

    def cell_adjacency_pairs(self) -> np.ndarray:
        """(nface, 2) unique neighbouring-cell pairs — the cell graph
        edges used by the partitioners."""
        return self.face_cells

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Full consistency checks; raises :class:`MeshError` on failure.

        Whole-array comparisons only, no row sorts: a cell's nodes are
        distinct when its six node pairs differ, and two paired sides
        join the same nodes when their (min, max) node pairs agree.
        Sides are addressed by their flat ``cell * 4 + side`` index.
        """
        cn = self.cell_nodes
        # Distinct nodes per cell.
        a, b, c, d = cn.T
        repeated = ((a == b) | (a == c) | (a == d)
                    | (b == c) | (b == d) | (c == d))
        if repeated.any():
            bad = np.flatnonzero(repeated)[:5]
            raise MeshError(f"cells with repeated nodes: {bad.tolist()}")
        # Finite coordinates (a NaN area is not <= 0).
        finite = np.isfinite(self.x) & np.isfinite(self.y)
        if not finite.all():
            bad = np.flatnonzero(~finite)[:5]
            raise MeshError(f"non-finite node coordinates: {bad.tolist()}")
        # Positive orientation on initial coordinates.
        areas = self.cell_areas()
        if np.any(areas <= 0.0):
            bad = np.flatnonzero(areas <= 0.0)[:5]
            raise MeshError(
                f"cells with non-positive initial area: {bad.tolist()}"
            )
        # Mutual neighbour consistency: the cell across every interior
        # side looks back across its paired side.
        nb = self.cell_neighbours.ravel()
        side = np.flatnonzero(nb >= 0)
        other = nb[side] * 4 + self.neighbour_side.ravel()[side]
        if not np.array_equal(nb[other], side // 4):
            raise MeshError("neighbour tables are not mutual")
        # Shared side must consist of the same two nodes: equal
        # (min, max) node pairs, keyed ``min * nnode + max``.
        first, second = cn.ravel(), np.roll(cn, -1, axis=1).ravel()
        key = (np.minimum(first, second) * np.int64(self.nnode)
               + np.maximum(first, second))
        if not np.array_equal(key[side], key[other]):
            raise MeshError("paired sides reference different nodes")
        # Every node must belong to at least one cell.
        orphan = self.node_degree() == 0
        if orphan.any():
            raise MeshError(
                f"orphan nodes: {np.flatnonzero(orphan)[:5].tolist()}")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<QuadMesh ncell={self.ncell} nnode={self.nnode} "
            f"nface={self.nface} nboundary={self.boundary_cells.size}>"
        )
