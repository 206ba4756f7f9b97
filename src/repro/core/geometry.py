"""Geometry kernels — BookLeaf's ``getgeom``.

Everything here operates on gathered per-cell corner coordinate arrays
``cx, cy`` of shape (ncell, 4) in counter-clockwise order, which lets
every quantity be a handful of vectorised expressions.

Definitions (corner index arithmetic is mod 4):

* cell volume (area in 2-D): shoelace formula,
* volume gradients ``∂V_c/∂x_i = ½(y_{i+1} − y_{i−1})`` — the corner
  vectors that turn a cell pressure into compatible corner forces,
* corner (sub-zonal) volumes: the median decomposition — corner ``i``'s
  subzone is the quad (P_i, M_i, C, M_{i−1}) with M the edge midpoints
  and C the vertex centroid; the four subzones tile the cell exactly,
* subzone volume gradients ``∂V_i/∂x_j`` for the sub-zonal-pressure
  hourglass forces (each subzone's gradients sum to zero over the four
  nodes, so those forces conserve momentum exactly),
* the CFL length scale (shortest cell dimension).

Every kernel is written once against the
:class:`~repro.perf.workspace.Workspace` API: temporaries are borrowed
from the arena and released when they die, results land in
caller-provided ``out=`` buffers, and corner rolls go through
:func:`repro.perf.plans.roll_next`/``roll_prev`` (strided column
copies — bit-for-bit equal to ``np.roll`` but faster and with ``out=``
support).  ``ws`` is optional: a standalone call without one draws the
same temporaries as fresh allocations (:func:`repro.perf.workspace.scratch`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.plans import roll_next, roll_prev, spread_corners
from ..perf.workspace import Workspace, scratch
from ..utils.errors import TangledMeshError


def gather(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
           out: Optional[Tuple[np.ndarray, np.ndarray]] = None
           ) -> Tuple[np.ndarray, np.ndarray]:
    """(ncell, 4) corner coordinates from nodal arrays."""
    if out is None:
        return x[mesh.cell_nodes], y[mesh.cell_nodes]
    cx, cy = out
    np.take(x, mesh.cell_nodes, out=cx, mode="clip")
    np.take(y, mesh.cell_nodes, out=cy, mode="clip")
    return cx, cy


def cell_volumes(cx: np.ndarray, cy: np.ndarray,
                 out: Optional[np.ndarray] = None,
                 ws: Optional[Workspace] = None) -> np.ndarray:
    """Signed cell volumes (areas) via the shoelace formula."""
    ws = scratch(ws)
    n = cx.shape[0]
    if out is None:
        out = np.empty(n)
    t1 = ws.borrow(n)
    t2 = ws.borrow(n)
    np.subtract(cx[:, 2], cx[:, 0], out=t1)
    np.subtract(cy[:, 3], cy[:, 1], out=t2)
    np.multiply(t1, t2, out=out)
    np.subtract(cx[:, 1], cx[:, 3], out=t1)
    np.subtract(cy[:, 2], cy[:, 0], out=t2)
    np.multiply(t1, t2, out=t1)
    out += t1
    out *= 0.5
    ws.release(t1, t2)
    return out


def volume_gradients(cx: np.ndarray, cy: np.ndarray,
                     out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                     ws: Optional[Workspace] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``(∂V/∂x_i, ∂V/∂y_i)`` per corner, each (ncell, 4).

    ``∂V/∂x_i = ½(y_{i+1} − y_{i−1})``; ``∂V/∂y_i = ½(x_{i−1} − x_{i+1})``.
    The four gradients of a cell sum to zero (translation invariance),
    which is what makes the pressure corner forces conserve momentum.
    """
    ws = scratch(ws)
    if out is None:
        dvdx = np.empty_like(cx)
        dvdy = np.empty_like(cy)
    else:
        dvdx, dvdy = out
    t = ws.borrow(cx.shape)
    roll_next(cy, out=dvdx)
    roll_prev(cy, out=t)
    dvdx -= t
    dvdx *= 0.5
    roll_prev(cx, out=dvdy)
    roll_next(cx, out=t)
    dvdy -= t
    dvdy *= 0.5
    ws.release(t)
    return dvdx, dvdy


def corner_volumes(cx: np.ndarray, cy: np.ndarray,
                   out: Optional[np.ndarray] = None,
                   ws: Optional[Workspace] = None) -> np.ndarray:
    """(ncell, 4) median-decomposition subzone volumes.

    Subzone ``i`` is the quad (P_i, M_i, C, M_{i−1}); the four subzones
    tile the cell, so they sum to the shoelace cell volume exactly
    (an identity the tests check to round-off).
    """
    ws = scratch(ws)
    n = cx.shape[0]
    if out is None:
        out = np.empty_like(cx)
    mx = ws.borrow(cx.shape)                 # M_i midpoints
    my = ws.borrow(cx.shape)
    roll_next(cx, out=mx)
    mx += cx
    mx *= 0.5
    roll_next(cy, out=my)
    my += cy
    my *= 0.5
    g1 = ws.borrow(n)
    gx = ws.borrow(cx.shape)                 # centroid, spread per corner
    gy = ws.borrow(cx.shape)
    np.mean(cx, axis=1, out=g1)
    spread_corners(g1, gx)
    np.mean(cy, axis=1, out=g1)
    spread_corners(g1, gy)
    ws.release(g1)
    dx = ws.borrow(cx.shape)                 # D = M_{i-1}
    dy = ws.borrow(cx.shape)
    roll_prev(mx, out=dx)
    roll_prev(my, out=dy)
    # A = P_i = (cx, cy), B = M_i = (mx, my); shoelace of (A, B, C, D).
    t1 = ws.borrow(cx.shape)
    t2 = ws.borrow(cx.shape)
    np.multiply(cx, my, out=out)            # ax·by − bx·ay
    np.multiply(mx, cy, out=t1)
    out -= t1
    np.multiply(mx, gy, out=t1)             # bx·gy − gx·by
    np.multiply(gx, my, out=t2)
    t1 -= t2
    out += t1
    np.multiply(gx, dy, out=t1)             # gx·dy − dx·gy
    np.multiply(dx, gy, out=t2)
    t1 -= t2
    out += t1
    np.multiply(dx, cy, out=t1)             # dx·ay − ax·dy
    np.multiply(cx, dy, out=t2)
    t1 -= t2
    out += t1
    out *= 0.5
    ws.release(mx, my, gx, gy, dx, dy, t1, t2)
    return out


def subzone_volume_gradients(cx: np.ndarray, cy: np.ndarray,
                             out: Optional[Tuple[np.ndarray,
                                                 np.ndarray]] = None,
                             ws: Optional[Workspace] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """``∂V_subzone_i/∂x_j`` for all corner pairs (i, j).

    Returns ``(gradx, grady)``, each of shape (ncell, 4, 4) indexed
    ``[cell, subzone i, node j]``.  Chain rule through the subzone's
    vertices: node j enters subzone i via P_i (weight 1 when j == i),
    the midpoints M_i, M_{i−1} (weight ½) and the centroid (weight ¼).
    Each subzone's gradients sum to zero over j, and summing subzones
    recovers the cell volume gradient — both identities are tested.
    """
    ws = scratch(ws)
    ncell = cx.shape[0]
    shape = cx.shape
    mx = ws.borrow(shape)
    my = ws.borrow(shape)
    roll_next(cx, out=mx)
    mx += cx
    mx *= 0.5
    roll_next(cy, out=my)
    my += cy
    my *= 0.5
    g1 = ws.borrow(ncell)
    gx = ws.borrow(shape)
    gy = ws.borrow(shape)
    np.mean(cx, axis=1, out=g1)
    spread_corners(g1, gx)
    np.mean(cy, axis=1, out=g1)
    spread_corners(g1, gy)
    ws.release(g1)
    dx = ws.borrow(shape)
    dy = ws.borrow(shape)
    roll_prev(mx, out=dx)
    roll_prev(my, out=dy)

    if out is None:
        gradx = np.empty((ncell, 4, 4))
        grady = np.empty((ncell, 4, 4))
    else:
        gradx, grady = out
    gA = ws.borrow(shape)
    hB = ws.borrow(shape)
    q = ws.borrow(shape)
    t = ws.borrow(shape)
    idx = np.arange(4)
    nxt = (idx + 1) % 4
    prv = (idx - 1) % 4
    opp = (idx + 2) % 4

    # Shoelace partials of quad (A=P_i, B=M_i, C=centroid, D=M_{i-1})
    # w.r.t. its vertices, per component with (x, y)⊥ = (y, −x):
    # gA = ½(B − D)⊥, gB = ½(C − A)⊥ and, exactly, gC = −gA, gD = −gB —
    # so ½(gB + gD) vanishes and only gA, ½gB and ¼gC = −¼gA are needed.
    for grad, b, d, c, a in ((gradx, my, dy, gy, cy),
                             (grady, dx, mx, cx, gx)):
        np.subtract(b, d, out=gA)
        gA *= 0.5
        np.multiply(gA, -0.25, out=q)
        np.subtract(c, a, out=hB)
        hB *= 0.5
        hB *= 0.5
        # j == i: A fully + quarter of centroid.
        np.add(gA, q, out=t)
        grad[:, idx, idx] = t
        # j == i+1: half of M_i + quarter of centroid.
        np.add(hB, q, out=t)
        grad[:, idx, nxt] = t
        # j == i-1: half of M_{i-1} + quarter of centroid.
        np.subtract(q, hB, out=t)
        grad[:, idx, prv] = t
        # j == i+2: quarter of centroid only.
        grad[:, idx, opp] = q
    ws.release(mx, my, gx, gy, dx, dy, gA, hB, q, t)
    return gradx, grady


def cfl_length_sq(cx: np.ndarray, cy: np.ndarray,
                  volume: Optional[np.ndarray] = None,
                  out: Optional[np.ndarray] = None,
                  ws: Optional[Workspace] = None) -> np.ndarray:
    """Squared CFL length scale per cell: (V / longest side)².

    For a rectangle this is the shorter side — the distance a sound
    wave must cross — and it degrades correctly for skewed cells.
    """
    ws = scratch(ws)
    if volume is None:
        volume = cell_volumes(cx, cy, ws=ws)
    ex = ws.borrow(cx.shape)
    ey = ws.borrow(cx.shape)
    roll_next(cx, out=ex)
    ex -= cx
    roll_next(cy, out=ey)
    ey -= cy
    ex *= ex
    ey *= ey
    ex += ey
    if out is None:
        out = np.empty(cx.shape[0])
    np.max(ex, axis=1, out=out)             # longest side²
    np.maximum(out, 1e-300, out=out)
    t = ws.borrow(cx.shape[0])
    np.multiply(volume, volume, out=t)
    np.divide(t, out, out=out)
    ws.release(ex, ey, t)
    return out


def check_volumes(volume: np.ndarray, time: Optional[float] = None,
                  what: str = "cell",
                  mask: Optional[np.ndarray] = None,
                  ws: Optional[Workspace] = None) -> None:
    """Raise :class:`TangledMeshError` if any volume is non-positive.

    ``mask`` (per-cell boolean) restricts the check to owned cells in a
    decomposed run; ghost-cell geometry is not locally authoritative.
    """
    ws = scratch(ws)
    nonpositive = ws.borrow(volume.shape, dtype=bool)
    np.less_equal(volume, 0.0, out=nonpositive)
    bad = nonpositive
    if mask is not None:
        bad = bad & (mask[:, None] if volume.ndim > 1 else mask)
    if bad.any():
        if volume.ndim > 1:
            cells = np.unique(np.nonzero(bad)[0])[:10]
        else:
            cells = np.flatnonzero(bad)[:10]
        raise TangledMeshError(cells.tolist(), time=time)
    ws.release(nonpositive)


def getgeom(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
            time: Optional[float] = None,
            check_mask: Optional[np.ndarray] = None,
            ws: Optional[Workspace] = None,
            out: Optional[Tuple[np.ndarray, np.ndarray,
                                np.ndarray, np.ndarray]] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``getgeom`` kernel: gather coordinates and compute volumes.

    Returns ``(cx, cy, volume, corner_volume)`` — written into ``out``
    when given, freshly allocated otherwise — and raises
    :class:`TangledMeshError` on non-positive cell or corner volume —
    the same failure detection the Fortran code performs.  In a
    decomposed run ``check_mask`` restricts the failure check to owned
    cells.
    """
    if out is None:
        out = (np.empty((mesh.ncell, 4)), np.empty((mesh.ncell, 4)),
               np.empty(mesh.ncell), np.empty((mesh.ncell, 4)))
    cx, cy, volume, cvol = out
    gather(mesh, x, y, out=(cx, cy))
    cell_volumes(cx, cy, out=volume, ws=ws)
    check_volumes(volume, time=time, mask=check_mask, ws=ws)
    corner_volumes(cx, cy, out=cvol, ws=ws)
    check_volumes(cvol, time=time, what="corner", mask=check_mask, ws=ws)
    return cx, cy, volume, cvol
