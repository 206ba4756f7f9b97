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

Each geometry is gathered once.  The interior faces' end points, old
and new, serve both the primal sweeps and the swept regions'
centroids.  The dual sweeps are corner-major like the Lagrangian step:
:func:`median_points` gathers a mesh's corners once as (4, ncell) rows
and reduces them to side midpoints and centroids — for the old mesh
those centroids are also the cell remap's donor centroids — and only
the finished dual volumes are handed over (ncell, 4), the layout the
momentum remap reads.

Corner-sized and cell-sized temporaries — the sizes the Lagrangian
phase pools — are borrowed from the optional workspace and released,
so the remap recycles the blocks the Lagrangian phase left on the
free-list and adds nothing of its own to the arena.  Face-shaped
arrays are plain allocations: no other phase uses that shape, so a
pooled face block would only sit idle between remaps.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..core.geometry import centroid, edge_mid
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
                      ) -> Tuple[np.ndarray, np.ndarray,
                                 Tuple[np.ndarray, np.ndarray]]:
    """Primal flux volumes.

    Returns ``(fv_face, fv_boundary, (sx, sy))``:

    * ``fv_face`` (nface,) — swept volume of each interior face,
      positive for flow out of ``face_cells[:, 0]`` into
      ``face_cells[:, 1]``;
    * ``fv_boundary`` (nboundary,) — swept volume of each boundary side
      (should be exactly zero when the target mesh respects the
      boundary, and is asserted against in the driver);
    * ``(sx, sy)`` (nface,) — the approximate centroid of each interior
      face's swept region (the mean of its four corners), where the
      cell remap evaluates the donor reconstruction.  It reads the
      same gathered face ends as the sweep.
    """
    n1 = mesh.face_nodes[:, 0]
    n2 = mesh.face_nodes[:, 1]
    ax0, ay0, bx0, by0 = x_old[n1], y_old[n1], x_old[n2], y_old[n2]
    ax1, ay1, bx1, by1 = x_new[n1], y_new[n1], x_new[n2], y_new[n2]
    fv = sweep_quads(ax0, ay0, bx0, by0, bx1, by1, ax1, ay1)
    sx = np.add(ax0, bx0, out=ax0)
    sx += ax1
    sx += bx1
    sx *= 0.25
    sy = np.add(ay0, by0, out=ay0)
    sy += ay1
    sy += by1
    sy *= 0.25
    sides = mesh.plans.boundary_side_nodes
    b1, b2 = sides[:, 0], sides[:, 1]
    fvb = sweep_quads(
        x_old[b1], y_old[b1], x_old[b2], y_old[b2],
        x_new[b2], y_new[b2], x_new[b1], y_new[b1],
    )
    return fv, fvb, (sx, sy)


def median_points(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
                  ws: Optional[Workspace] = None
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(mx, my, xc, yc)``: every cell's side midpoints (4, ncell) —
    row k is side k's — and vertex centroid (ncell,), the end points of
    the median-dual segments, from one corner gather of ``x, y``.

    The centroids of the old mesh are also the cell remap's donor
    centroids.  All four are borrowed buffers.
    """
    w = scratch(ws)
    shape = (4, mesh.ncell)
    c = w.borrow(shape)

    def points(coord):
        mesh.plans.gather(coord, out=c)
        return edge_mid(c, w.borrow(shape)), centroid(c, w.borrow(mesh.ncell))

    (mx, xc), (my, yc) = points(x), points(y)
    w.release(c)
    return mx, my, xc, yc


def dual_flux_volumes(old, new, ws: Optional[Workspace] = None
                      ) -> np.ndarray:
    """Dual (nodal control volume) flux volumes, shape (ncell, 4).

    ``old``, ``new``: :func:`median_points` of the mesh before and
    after the move.  Entry (c, k) is the swept volume of the segment
    from the midpoint of side k of cell c to the centroid of c,
    positive for flow from node ``cell_nodes[c, k]`` to node
    ``cell_nodes[c, k+1]`` (the side's two nodes), whose median-dual
    volumes the segment separates.  The sweep runs corner-major; the
    result is handed over (ncell, 4), the layout the momentum remap
    reads, in a borrowed buffer.
    """
    w = scratch(ws)
    mx0, my0, gx0, gy0 = old
    mx1, my1, gx1, gy1 = new
    # Directed segment M -> C: traversing it, the subzone of the side's
    # first node (corner k) lies on the left, so a positive sweep is
    # flow out of node k's volume into node k+1's.
    sweep = sweep_quads(mx0, my0, gx0, gy0, gx1, gy1, mx1, my1,
                        out=w.borrow(mx0.shape), ws=w)
    dual_fv = w.borrow(sweep.shape[::-1])
    np.copyto(dual_fv, sweep.T)
    w.release(sweep)
    return dual_fv
