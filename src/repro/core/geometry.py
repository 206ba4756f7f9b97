"""Geometry kernels — BookLeaf's ``getgeom``.

Everything here operates on gathered per-cell corner coordinate arrays
``cx, cy`` in counter-clockwise order, stored **corner-major** — shape
(4, ncell), one contiguous row per corner — so the neighbouring corner
is a row view (``a[1:] − a[:-1]`` plus one wrap row, no copy), a
per-cell operand broadcasts along contiguous rows, and a reduction
over the corners of a cell is three contiguous row passes
(:func:`repro.perf.plans.corner_reduce`).  Arrays that outlive the
step (``HydroState.corner_volume``, ``mesh.cell_nodes``) keep
(ncell, 4); the two layouts meet through ``.T`` views.

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
* the CFL length scale (shortest cell dimension), from the edge
  vectors.

Every kernel is written once against the
:class:`~repro.perf.workspace.Workspace` API: temporaries are borrowed
from the arena and released when they die, results land in
caller-provided ``out=`` buffers.  ``ws`` is optional: a standalone
call without one draws the same temporaries as fresh allocations
(:func:`repro.perf.workspace.scratch`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.plans import corner_reduce
from ..perf.workspace import Workspace, scratch
from ..utils.errors import TangledMeshError


def gather(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
           out: Tuple[Optional[np.ndarray], Optional[np.ndarray]]
           = (None, None)) -> Tuple[np.ndarray, np.ndarray]:
    """(4, ncell) corner coordinates from nodal arrays."""
    plans = mesh.plans
    return plans.gather(x, out=out[0]), plans.gather(y, out=out[1])


def edge_diff(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Edge vectors ``a[k+1] − a[k]`` of a corner-major array."""
    np.subtract(a[1:], a[:-1], out=out[:-1])
    np.subtract(a[0], a[3], out=out[3])
    return out


def edge_mid(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Edge midpoints ``½(a[k+1] + a[k])`` of a corner-major array."""
    np.add(a[1:], a[:-1], out=out[:-1])
    np.add(a[0], a[3], out=out[3])
    out *= 0.5
    return out


def centroid(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-cell mean of the four corners (``a.mean(axis=0)``, bitwise)."""
    corner_reduce(np.add, a.T, out=out)
    out /= 4.0
    return out


def corner_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray,
               ws) -> np.ndarray:
    """``Σ_k a[k]·b[k]`` per cell, associated ``(p0 + p2) + (p1 + p3)``
    — what ``einsum("ck,ck->c")`` and an ``(n, 4) @ (4,)`` matvec
    evaluate (two SIMD lanes, summed last); the tests pin it to them."""
    p = ws.borrow(a.shape)
    np.multiply(a, b, out=p)
    np.add(p[0], p[2], out=out)
    p[1] += p[3]
    out += p[1]
    ws.release(p)
    return out


def cell_volumes(cx: np.ndarray, cy: np.ndarray,
                 out: Optional[np.ndarray] = None,
                 ws: Optional[Workspace] = None) -> np.ndarray:
    """Signed cell volumes (areas) via the shoelace formula."""
    ws = scratch(ws)
    n = cx.shape[1]
    if out is None:
        out = np.empty(n)
    t1 = ws.borrow(n)
    t2 = ws.borrow(n)
    np.subtract(cx[2], cx[0], out=t1)
    np.subtract(cy[3], cy[1], out=t2)
    np.multiply(t1, t2, out=out)
    np.subtract(cx[1], cx[3], out=t1)
    np.subtract(cy[2], cy[0], out=t2)
    np.multiply(t1, t2, out=t1)
    out += t1
    out *= 0.5
    ws.release(t1, t2)
    return out


def volume_gradients(cx: np.ndarray, cy: np.ndarray,
                     out: Optional[Tuple[np.ndarray, np.ndarray]] = None
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """``(∂V/∂x_i, ∂V/∂y_i)`` per corner, each (4, ncell).

    ``∂V/∂x_i = ½(y_{i+1} − y_{i−1})``; ``∂V/∂y_i = ½(x_{i−1} − x_{i+1})``.
    The four gradients of a cell sum to zero (translation invariance),
    which is what makes the pressure corner forces conserve momentum.
    """
    if out is None:
        out = (np.empty_like(cx), np.empty_like(cy))
    dvdx, dvdy = out
    np.subtract(cy[2:], cy[:2], out=dvdx[1:3])
    np.subtract(cy[1], cy[3], out=dvdx[0])
    np.subtract(cy[0], cy[2], out=dvdx[3])
    dvdx *= 0.5
    np.subtract(cx[:2], cx[2:], out=dvdy[1:3])
    np.subtract(cx[3], cx[1], out=dvdy[0])
    np.subtract(cx[2], cx[0], out=dvdy[3])
    dvdy *= 0.5
    return dvdx, dvdy


def _mul_prev(a: np.ndarray, m: np.ndarray, out: np.ndarray) -> None:
    """``out[k] = a[k] · m[k−1]`` (``a`` per-corner or per-cell)."""
    per_corner = a.ndim == 2
    np.multiply(a[1:] if per_corner else a, m[:-1], out=out[1:])
    np.multiply(a[0] if per_corner else a, m[3], out=out[0])


def corner_volumes(cx: np.ndarray, cy: np.ndarray,
                   out: Optional[np.ndarray] = None,
                   ws: Optional[Workspace] = None,
                   centroids: Optional[Tuple[np.ndarray, np.ndarray]] = None
                   ) -> np.ndarray:
    """(4, ncell) median-decomposition subzone volumes.

    Subzone ``i`` is the quad (P_i, M_i, C, M_{i−1}); the four subzones
    tile the cell, so they sum to the shoelace cell volume exactly
    (an identity the tests check to round-off).  The vertex centroids
    C it builds on the way land in ``centroids`` when given.
    """
    ws = scratch(ws)
    n = cx.shape[1]
    if out is None:
        out = np.empty_like(cx)
    mx = edge_mid(cx, ws.borrow(cx.shape))   # M_i midpoints
    my = edge_mid(cy, ws.borrow(cx.shape))
    g = centroids if centroids is not None else (ws.borrow(n), ws.borrow(n))
    gx = centroid(cx, g[0])
    gy = centroid(cy, g[1])
    # A = P_i = (cx, cy), B = M_i = (mx, my), C = (gx, gy) and
    # D = M_{i-1}, read as the previous row of B; shoelace of (A, B, C, D).
    t1 = ws.borrow(cx.shape)
    t2 = ws.borrow(cx.shape)
    np.multiply(cx, my, out=out)            # ax·by − bx·ay
    np.multiply(mx, cy, out=t1)
    out -= t1
    np.multiply(mx, gy, out=t1)             # bx·gy − gx·by
    np.multiply(gx, my, out=t2)
    t1 -= t2
    out += t1
    _mul_prev(gx, my, t1)                   # gx·dy − dx·gy
    _mul_prev(gy, mx, t2)
    t1 -= t2
    out += t1
    _mul_prev(cy, mx, t1)                   # dx·ay − ax·dy
    _mul_prev(cx, my, t2)
    t1 -= t2
    out += t1
    out *= 0.5
    ws.release(mx, my, t1, t2)
    if g is not centroids:
        ws.release(*g)
    return out


def subzone_gradient_rows(cx: np.ndarray, cy: np.ndarray,
                          ws: Optional[Workspace] = None):
    """Yield ``(component, i, row)`` for component 0 (∂/∂x) then 1
    (∂/∂y) and subzone ``i`` ascending: ``row[j]`` is ``∂V_subzone_i``
    with respect to node ``j``'s coordinate, (4, ncell).  ``row`` is one
    scratch block, valid until the next item — a subzone's gradients
    are contracted as they come instead of held as (4, 4, ncell).

    Chain rule through the subzone's vertices: node j enters subzone i
    via P_i (weight 1 when j == i), the midpoints M_i, M_{i−1} (weight
    ½) and the centroid (weight ¼).
    """
    ws = scratch(ws)
    n = cx.shape[1]
    shape = cx.shape
    mx = edge_mid(cx, ws.borrow(shape))
    my = edge_mid(cy, ws.borrow(shape))
    gx = centroid(cx, ws.borrow(n))
    gy = centroid(cy, ws.borrow(n))
    gA = ws.borrow(shape)
    hB = ws.borrow(shape)
    q = ws.borrow(shape)
    row = ws.borrow(shape)

    # Shoelace partials of quad (A=P_i, B=M_i, C=centroid, D=M_{i-1})
    # w.r.t. its vertices, per component with (x, y)⊥ = (y, −x):
    # gA = ½(B − D)⊥, gB = ½(C − A)⊥ and, exactly, gC = −gA, gD = −gB —
    # so ½(gB + gD) vanishes and only gA, ½gB and ¼gC = −¼gA are needed.
    # M_i and M_{i-1} are read as (rows 1..3, row 0) of M and of M
    # shifted one row back.
    for component, b, d, c, a in (
            (0, (my[1:], my[0]), (my[:-1], my[3]), gy, cy),
            (1, (mx[:-1], mx[3]), (mx[1:], mx[0]), cx, gx)):
        np.subtract(b[0], d[0], out=gA[1:])
        np.subtract(b[1], d[1], out=gA[0])
        gA *= 0.5
        np.multiply(gA, -0.25, out=q)
        np.subtract(c, a, out=hB)
        hB *= 0.5
        hB *= 0.5
        for i in range(4):
            # j == i: A fully + quarter of centroid.
            np.add(gA[i], q[i], out=row[i])
            # j == i+1: half of M_i + quarter of centroid.
            np.add(hB[i], q[i], out=row[(i + 1) % 4])
            # j == i-1: half of M_{i-1} + quarter of centroid.
            np.subtract(q[i], hB[i], out=row[(i - 1) % 4])
            # j == i+2: quarter of centroid only.
            row[(i + 2) % 4] = q[i]
            yield component, i, row
    ws.release(mx, my, gx, gy, gA, hB, q, row)


def subzone_volume_gradients(cx: np.ndarray, cy: np.ndarray,
                             out: Optional[Tuple[np.ndarray,
                                                 np.ndarray]] = None,
                             ws: Optional[Workspace] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """``∂V_subzone_i/∂x_j`` for all corner pairs (i, j).

    Returns ``(gradx, grady)``, each of shape (4, 4, ncell) indexed
    ``[subzone i, node j, cell]`` — the rows of
    :func:`subzone_gradient_rows`, stacked.  Each subzone's gradients
    sum to zero over j, and summing subzones recovers the cell volume
    gradient — both identities are tested.
    """
    n = cx.shape[1]
    if out is None:
        out = (np.empty((4, 4, n)), np.empty((4, 4, n)))
    for component, i, row in subzone_gradient_rows(cx, cy, ws):
        out[component][i] = row
    return out


def longest_edge_sq(ex: np.ndarray, ey: np.ndarray, out: np.ndarray,
                    ws: Optional[Workspace] = None) -> np.ndarray:
    """Per-cell maximum of ``ex² + ey²`` over the four edge vectors
    (the edges are read, not written)."""
    ws = scratch(ws)
    s = ws.borrow(ex.shape)
    t = ws.borrow(ex.shape)
    np.multiply(ex, ex, out=s)
    np.multiply(ey, ey, out=t)
    s += t
    corner_reduce(np.maximum, s.T, out=out)
    ws.release(s, t)
    return out


def cfl_length_sq(ex: np.ndarray, ey: np.ndarray, volume: np.ndarray,
                  out: Optional[np.ndarray] = None,
                  ws: Optional[Workspace] = None) -> np.ndarray:
    """Squared CFL length scale per cell: (V / longest side)², from the
    edge vectors ``ex, ey`` and the cell volumes.

    For a rectangle this is the shorter side — the distance a sound
    wave must cross — and it degrades correctly for skewed cells.
    """
    ws = scratch(ws)
    if out is None:
        out = np.empty(ex.shape[1])
    longest_edge_sq(ex, ey, out, ws)
    np.maximum(out, 1e-300, out=out)
    t = ws.borrow(ex.shape[1])
    np.multiply(volume, volume, out=t)
    np.divide(t, out, out=out)
    ws.release(t)
    return out


def check_volumes(volume: np.ndarray, time: Optional[float] = None,
                  mask: Optional[np.ndarray] = None,
                  ws: Optional[Workspace] = None) -> None:
    """Raise :class:`TangledMeshError` if any volume is non-positive.

    ``volume`` is per-cell or corner-major per-corner.  ``mask``
    (per-cell boolean) restricts the check to owned cells in a
    decomposed run; ghost-cell geometry is not locally authoritative.
    """
    ws = scratch(ws)
    bad = ws.borrow(volume.shape, dtype=bool)
    try:
        np.less_equal(volume, 0.0, out=bad)
        if mask is not None:
            np.logical_and(bad, mask, out=bad)
        if np.logical_or.reduce(bad, axis=None):     # bad.any(), unwrapped
            cells = np.unique(np.nonzero(bad)[-1])[:10]
            raise TangledMeshError(cells.tolist(), time=time)
    finally:
        ws.release(bad)


def volumes(cx: np.ndarray, cy: np.ndarray,
            time: Optional[float] = None,
            check_mask: Optional[np.ndarray] = None,
            ws: Optional[Workspace] = None,
            out: Tuple[Optional[np.ndarray], Optional[np.ndarray]]
            = (None, None),
            centroids: Optional[Tuple[np.ndarray, np.ndarray]] = None
            ) -> Tuple[np.ndarray, np.ndarray]:
    """Checked ``(volume, corner_volume)`` of gathered corner-major
    coordinates; raises :class:`TangledMeshError` on a non-positive cell
    or corner volume — the failure detection the Fortran code performs.
    In a decomposed run ``check_mask`` restricts it to owned cells.
    ``centroids`` receives the vertex centroids (:func:`corner_volumes`)."""
    volume = cell_volumes(cx, cy, out=out[0], ws=ws)
    check_volumes(volume, time=time, mask=check_mask, ws=ws)
    cvol = corner_volumes(cx, cy, out=out[1], ws=ws, centroids=centroids)
    check_volumes(cvol, time=time, mask=check_mask, ws=ws)
    return volume, cvol


def getgeom(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
            time: Optional[float] = None,
            check_mask: Optional[np.ndarray] = None,
            ws: Optional[Workspace] = None,
            out: Tuple[Optional[np.ndarray], ...] = (None,) * 4,
            centroids: Optional[Tuple[np.ndarray, np.ndarray]] = None
            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``getgeom`` kernel: gather coordinates, compute :func:`volumes`.

    Returns ``(cx, cy, volume, corner_volume)`` — corner-major, written
    into ``out`` when given, freshly allocated otherwise; ``centroids``
    receives the cell centroids.
    """
    cx, cy = gather(mesh, x, y, out=out[:2])
    volume, cvol = volumes(cx, cy, time, check_mask, ws, out=out[2:],
                           centroids=centroids)
    return cx, cy, volume, cvol
