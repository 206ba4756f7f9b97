"""Swept (flux) volumes — BookLeaf's ``alegetfvol``.

The remap moves the mesh from the Lagrangian coordinates to the target
coordinates; the volume swept by each face is the advection flux volume
(Benson 1989, as the paper cites).  For a directed face A→B moving to
A′→B′ the swept volume is the signed shoelace area of the quad
(A, B, B′, A′); with the face directed as traversed by its *owner*
cell (CCW), a positive value is volume flowing *out* of the owner.

Two families of faces are needed:

* primal faces (cell sides) — drive the cell-centred advection; the
  polygon identity ``V_new = V_old − Σ_sides fv`` holds exactly, which
  the tests check and which makes uniform-flow preservation exact;
* dual faces (edge-midpoint → cell-centroid segments) — drive the
  momentum advection on the nodal control volumes; the matching
  identity relates nodal volume changes to the dual sweeps.

Temporaries of the sizes the Lagrangian phase pools — 4·ncell,
ncell, nnode — are borrowed from the optional workspace and
released, so the remap recycles the blocks the Lagrangian phase left on
the free-list and adds nothing of its own to the arena.  Face-shaped
temporaries are plain allocations: no other phase uses that shape, so a
pooled face block would only sit idle between remaps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..core.geometry import centroid
from ..perf.workspace import Workspace, scratch


def sweep_quads(ax0: np.ndarray, ay0: np.ndarray, bx0: np.ndarray,
                by0: np.ndarray, bx1: np.ndarray, by1: np.ndarray,
                ax1: np.ndarray, ay1: np.ndarray,
                out: Optional[np.ndarray] = None,
                ws: Optional[Workspace] = None) -> np.ndarray:
    """Signed shoelace area of quads (A_old, B_old, B_new, A_new)."""
    w = scratch(ws)
    if out is None:
        out = np.empty(ax0.shape)
    t1 = w.borrow(ax0.shape)
    t2 = w.borrow(ax0.shape)
    np.multiply(ax0, by0, out=out)          # ax0·by0 − bx0·ay0
    np.multiply(bx0, ay0, out=t1)
    out -= t1
    np.multiply(bx0, by1, out=t1)           # bx0·by1 − bx1·by0
    np.multiply(bx1, by0, out=t2)
    t1 -= t2
    out += t1
    np.multiply(bx1, ay1, out=t1)           # bx1·ay1 − ax1·by1
    np.multiply(ax1, by1, out=t2)
    t1 -= t2
    out += t1
    np.multiply(ax1, ay0, out=t1)           # ax1·ay0 − ax0·ay1
    np.multiply(ax0, ay1, out=t2)
    t1 -= t2
    out += t1
    out *= 0.5
    w.release(t1, t2)
    return out


def face_flux_volumes(mesh: QuadMesh,
                      x_old: np.ndarray, y_old: np.ndarray,
                      x_new: np.ndarray, y_new: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Primal flux volumes.

    Returns ``(fv_face, fv_boundary)``:

    * ``fv_face`` (nface,) — swept volume of each interior face,
      positive for flow out of ``face_cells[:, 0]`` into
      ``face_cells[:, 1]``;
    * ``fv_boundary`` (nboundary,) — swept volume of each boundary side
      (should be exactly zero when the target mesh respects the
      boundary, and is asserted against in the driver).
    """
    n1 = mesh.face_nodes[:, 0]
    n2 = mesh.face_nodes[:, 1]
    fv = sweep_quads(
        x_old[n1], y_old[n1], x_old[n2], y_old[n2],
        x_new[n2], y_new[n2], x_new[n1], y_new[n1],
    )
    bc_cells = mesh.boundary_cells
    bc_sides = mesh.boundary_sides
    b1 = mesh.cell_nodes[bc_cells, bc_sides]
    b2 = mesh.cell_nodes[bc_cells, (bc_sides + 1) % 4]
    fvb = sweep_quads(
        x_old[b1], y_old[b1], x_old[b2], y_old[b2],
        x_new[b2], y_new[b2], x_new[b1], y_new[b1],
    )
    return fv, fvb


def dual_flux_volumes(mesh: QuadMesh,
                      x_old: np.ndarray, y_old: np.ndarray,
                      x_new: np.ndarray, y_new: np.ndarray,
                      ws: Optional[Workspace] = None) -> np.ndarray:
    """Dual (nodal control volume) flux volumes, shape (ncell, 4).

    Entry (c, k) is the swept volume of the segment from the midpoint
    of side k of cell c to the centroid of c, positive for flow from
    node ``cell_nodes[c, k]`` to node ``cell_nodes[c, k+1]`` (the
    side's two nodes), whose median-dual volumes the segment separates.
    The result is a borrowed buffer.
    """
    w = scratch(ws)
    shape = (mesh.ncell, 4)
    c = w.borrow(shape)

    def midpoint_centroid(coord):
        """Side midpoints (ncell, 4) and cell centroid (ncell,)."""
        np.take(coord, mesh.cell_nodes, out=c, mode="clip")
        m = w.borrow(shape)
        np.add(c[:, 1:], c[:, :-1], out=m[:, :-1])
        np.add(c[:, 0], c[:, 3], out=m[:, 3])
        m *= 0.5
        return m, centroid(c.T, w.borrow(mesh.ncell))

    mx0, gx0 = midpoint_centroid(x_old)
    my0, gy0 = midpoint_centroid(y_old)
    mx1, gx1 = midpoint_centroid(x_new)
    my1, gy1 = midpoint_centroid(y_new)
    # Directed segment M -> C: traversing it, the subzone of the side's
    # first node (corner k) lies on the left, so a positive sweep is
    # flow out of node k's volume into node k+1's.
    dual_fv = sweep_quads(
        mx0, my0, gx0[:, None], gy0[:, None],
        gx1[:, None], gy1[:, None], mx1, my1,
        out=c, ws=w,
    )
    w.release(mx0, my0, gx0, gy0, mx1, my1, gx1, gy1)
    return dual_fv
