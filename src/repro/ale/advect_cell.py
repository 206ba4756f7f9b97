"""Cell-centred advection — the heart of BookLeaf's ``aleadvect``.

Second-order swept-volume donor-cell advection of the *independent*
cell variables (mass, then internal energy mass-weighted on top of the
mass fluxes):

1. least-squares gradients of the advected quantity over face
   neighbours (robust to boundary cells and to degenerate axis-aligned
   stencils),
2. Barth–Jespersen limiting so reconstructed face values stay within
   the local bounds (the Van Leer monotonicity treatment of the paper
   in its standard unstructured form),
3. upwind (donor-cell) evaluation at the swept-region centroid,
   multiplied by the flux volume.

Mass is advected with density reconstruction; energy with specific-
internal-energy reconstruction carried by the mass fluxes, which makes
a uniform-``e`` field an exact fixed point of the remap.

The gradients are corner-major like the Lagrangian step: a stencil
array is (4, ncell), row k holding every cell's side-k neighbour, so a
per-cell operand broadcasts along contiguous rows and a sum over the
stencil is three row passes.  Everything that depends on the donor
geometry alone — the neighbour offsets, the normal matrix and its
determinant — is one :class:`Stencil`, built once per remap and shared
by ρ and e; per field only the neighbour gather, the right-hand side,
the solve and the limiter remain.  Temporaries are borrowed from the
optional workspace; the face-shaped arrays (the donor offsets and
fluxes) are plain allocations, as in :mod:`repro.ale.fluxvol`.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ..core.comms import SerialComms
from ..mesh.topology import QuadMesh
from ..perf.plans import corner_reduce
from ..perf.workspace import Workspace, scratch
from .limiters import barth_jespersen

_TINY = 1.0e-300


class Stencil(NamedTuple):
    """The donor-geometry half of the least-squares gradient."""

    #: (4, ncell) side-k neighbours, the cell itself past a boundary
    cells: np.ndarray
    #: (4, ncell) centroid offsets to them (exactly 0 past a boundary)
    dx: np.ndarray
    dy: np.ndarray
    #: (4, ncell) rows: the normal matrix ``Σ dx², Σ dx dy, Σ dy²`` and
    #: its determinant, 1 where the stencil is degenerate
    normal: np.ndarray
    #: cells whose normal equations are singular (tube meshes)
    degenerate: np.ndarray

    def release(self, w) -> None:
        w.release(self.dx, self.dy, self.normal)


def _stencil_sum(a: np.ndarray, b: np.ndarray, p: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """``Σ_k a[k]·b[k]`` per cell, summed ``((p0 + p1) + p2) + p3``."""
    return corner_reduce(np.add, np.multiply(a, b, out=p).T, out=out)


def least_squares_stencil(mesh: QuadMesh, xc: np.ndarray, yc: np.ndarray,
                          ws: Optional[Workspace] = None) -> Stencil:
    """The gradient stencil over face neighbours on donor centroids
    ``xc, yc``; every array but ``cells`` is borrowed (release it with
    :meth:`Stencil.release`)."""
    w = scratch(ws)
    n = mesh.ncell
    cells = mesh.plans.stencil_cells
    dx = np.take(xc, cells, out=w.borrow((4, n)), mode="clip")
    dx -= xc
    dy = np.take(yc, cells, out=w.borrow((4, n)), mode="clip")
    dy -= yc
    normal = w.borrow((4, n))
    a11, a12, a22, det = normal
    p = w.borrow((4, n))
    _stencil_sum(dx, dx, p, a11)
    _stencil_sum(dx, dy, p, a12)
    _stencil_sum(dy, dy, p, a22)
    t, scale = p[0], p[1]
    np.multiply(a11, a22, out=det)
    np.multiply(a12, a12, out=t)
    np.maximum(det, t, out=scale)
    det -= t
    np.maximum(scale, _TINY, out=scale)
    scale *= 1e-12
    ok = np.greater(det, scale, out=w.borrow(n, dtype=bool))
    degenerate = np.flatnonzero(np.logical_not(ok, out=ok))
    det[degenerate] = 1.0
    w.release(p, ok)
    return Stencil(cells, dx, dy, normal, degenerate)


def _solve(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
           det: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``(a·b − c·d) / det``, one Cramer's-rule component."""
    np.multiply(a, b, out=out)
    out -= np.multiply(c, d, out=t)
    out /= det
    return out


def _fit_1d(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The independent 1-D fit of a degenerate direction (0 with no
    extent at all)."""
    return np.where(a > _TINY, b / np.maximum(a, _TINY), 0.0)


def stencil_gradients(st: Stencil, phi: np.ndarray, out: np.ndarray,
                      limit: bool = True,
                      ws: Optional[Workspace] = None) -> np.ndarray:
    """Limited least-squares gradients of cell field ``phi`` on stencil
    ``st``, written to ``out`` (2, ncell): rows ``∂φ/∂x``, ``∂φ/∂y``."""
    w = scratch(ws)
    n = phi.shape[0]
    gx, gy = out
    a11, a12, a22, det = st.normal
    around = np.take(phi, st.cells, out=w.borrow((4, n)), mode="clip")
    dphi = np.subtract(around, phi, out=w.borrow((4, n)))
    p = w.borrow((4, n))
    # The per-cell temporaries are the rows of one corner-sized block.
    b = w.borrow((4, n))
    b1, b2, t, alpha = b
    _stencil_sum(st.dx, dphi, p, b1)
    _stencil_sum(st.dy, dphi, p, b2)
    _solve(a22, b1, a12, b2, det, gx, t)
    _solve(a11, b2, a12, b1, det, gy, t)
    bad = st.degenerate
    if bad.size:
        gx[bad] = _fit_1d(b1[bad], a11[bad])
        gy[bad] = _fit_1d(b2[bad], a22[bad])

    if limit:
        # Past a boundary the stencil holds the cell itself, which is
        # in its own bounds anyway.
        lo = np.minimum(phi, corner_reduce(np.minimum, around.T, out=b1),
                        out=b1)
        hi = np.maximum(phi, corner_reduce(np.maximum, around.T, out=b2),
                        out=b2)
        # Bound at neighbour centroids (where dx, dy point); for
        # boundary sides dx = dy = 0 so they impose no constraint.
        d = np.multiply(st.dx, gx, out=p)
        d += np.multiply(st.dy, gy, out=dphi)
        # barth_jespersen borrows two corner blocks: these two
        w.release(around, dphi)
        barth_jespersen(phi, lo, hi, d, out=alpha, ws=w)
        gx *= alpha
        gy *= alpha
    else:
        w.release(around, dphi)
    w.release(p, b)
    return out


def cell_gradients(mesh: QuadMesh, xc: np.ndarray, yc: np.ndarray,
                   phi: np.ndarray, limit: bool = True
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Limited least-squares gradients of cell field ``phi``.

    ``xc, yc`` are cell centroids on the (old) donor geometry.  The
    normal equations degenerate for cells whose neighbours are
    collinear (single-row tube meshes); those directions fall back to
    independent 1-D fits, and fully isolated cells get zero gradient.
    """
    gx, gy = stencil_gradients(least_squares_stencil(mesh, xc, yc), phi,
                               np.empty((2, phi.shape[0])), limit)
    return gx, gy


def donor_values(phi: np.ndarray, gx: np.ndarray, gy: np.ndarray,
                 donor: np.ndarray, ox: np.ndarray, oy: np.ndarray
                 ) -> np.ndarray:
    """``φ_donor`` reconstructed at offsets ``(ox, oy)`` from the donor
    centroids: ``φ[donor] + gx[donor]·ox + gy[donor]·oy`` per face."""
    value = phi[donor]
    value += gx[donor] * ox
    value += gy[donor] * oy
    return value


def scatter_face_fluxes(mesh: QuadMesh, flux: np.ndarray,
                        target: np.ndarray) -> None:
    """Apply per-face fluxes to a cell array in place (conservative)."""
    np.subtract.at(target, mesh.face_cells[:, 0], flux)
    np.add.at(target, mesh.face_cells[:, 1], flux)


def advect_cells(mesh: QuadMesh,
                 centroids: Tuple[np.ndarray, np.ndarray],
                 swept: Tuple[np.ndarray, np.ndarray],
                 fv: np.ndarray,
                 cell_mass: np.ndarray, rho: np.ndarray, e: np.ndarray,
                 comms=SerialComms(),
                 ws: Optional[Workspace] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Advect mass and internal energy through the flux volumes.

    ``centroids``: the donor cells' centroids (the old mesh's,
    :func:`~repro.ale.fluxvol.median_points`); ``swept``: the swept
    regions' centroids and ``fv`` the face flux volumes
    (:func:`~repro.ale.fluxvol.face_flux_volumes`).

    Returns ``(mass_new, energy_mass_new)`` where the second array is
    the advected total internal energy per cell (``m e``).  Both are
    exactly conservative: face fluxes are added to one cell and
    subtracted from its neighbour.

    In a decomposed run ``comms`` overwrites the ghost cells' gradient
    rows with their owners' (a ghost's own stencil is incomplete), so
    both sides of an interface face compute the identical donor
    reconstruction and conservation stays exact globally.
    """
    w = scratch(ws)
    xc, yc = centroids
    sx, sy = swept
    st = least_squares_stencil(mesh, xc, yc, w)
    grads = w.borrow((4, mesh.ncell))
    stencil_gradients(st, rho, grads[:2], ws=w)
    stencil_gradients(st, e, grads[2:], ws=w)
    st.release(w)
    grx, gry, gex, gey = grads
    # The donor selection, its offsets and the flux-target bases depend
    # only on local data, so they compute while the ghost gradient rows
    # are in flight.
    comms.post_cell_arrays(grx, gry, gex, gey)
    donor = np.where(fv > 0.0, mesh.face_cells[:, 0], mesh.face_cells[:, 1])
    ox = sx - xc[donor]
    oy = sy - yc[donor]
    mass_new = cell_mass.copy()
    energy_new = cell_mass * e
    comms.complete_cell_arrays(grx, gry, gex, gey)

    mass_flux = donor_values(rho, grx, gry, donor, ox, oy)
    mass_flux *= fv
    scatter_face_fluxes(mesh, mass_flux, mass_new)
    energy_flux = donor_values(e, gex, gey, donor, ox, oy)
    energy_flux *= mass_flux
    scatter_face_fluxes(mesh, energy_flux, energy_new)
    w.release(grads)
    return mass_new, energy_new
