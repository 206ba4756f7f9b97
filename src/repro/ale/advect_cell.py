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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.comms import SerialComms
from ..core.geometry import centroid
from ..mesh.topology import QuadMesh
from ..perf.plans import corner_reduce
from ..perf.workspace import Workspace, scratch
from .limiters import barth_jespersen

_TINY = 1.0e-300


def cell_gradients(mesh: QuadMesh, xc: np.ndarray, yc: np.ndarray,
                   phi: np.ndarray, limit: bool = True
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Limited least-squares gradients of cell field ``phi``.

    ``xc, yc`` are cell centroids on the (old) donor geometry.  The
    normal equations degenerate for cells whose neighbours are
    collinear (single-row tube meshes); those directions fall back to
    independent 1-D fits, and fully isolated cells get zero gradient.
    """
    nb = mesh.cell_neighbours
    valid = nb >= 0
    nbc = np.where(valid, nb, 0)
    dx = np.where(valid, xc[nbc] - xc[:, None], 0.0)
    dy = np.where(valid, yc[nbc] - yc[:, None], 0.0)
    dphi = np.where(valid, phi[nbc] - phi[:, None], 0.0)

    a11 = corner_reduce(np.add, dx * dx)
    a12 = corner_reduce(np.add, dx * dy)
    a22 = corner_reduce(np.add, dy * dy)
    b1 = corner_reduce(np.add, dx * dphi)
    b2 = corner_reduce(np.add, dy * dphi)
    det = a11 * a22 - a12 * a12
    scale = np.maximum(a11 * a22, a12 * a12)
    ok = det > 1e-12 * np.maximum(scale, _TINY)
    safe_det = np.where(ok, det, 1.0)
    gx = np.where(ok, (a22 * b1 - a12 * b2) / safe_det,
                  np.where(a11 > _TINY, b1 / np.maximum(a11, _TINY), 0.0))
    gy = np.where(ok, (a11 * b2 - a12 * b1) / safe_det,
                  np.where(a22 > _TINY, b2 / np.maximum(a22, _TINY), 0.0))

    if limit:
        nb_phi = np.where(valid, phi[nbc], phi[:, None])
        phi_min = np.minimum(phi, corner_reduce(np.minimum, nb_phi))
        phi_max = np.maximum(phi, corner_reduce(np.maximum, nb_phi))
        d = gx[:, None] * dx + gy[:, None] * dy
        # Bound at neighbour centroids (where dx, dy point); for
        # boundary sides dx = dy = 0 so they impose no constraint.
        alpha = barth_jespersen(phi, phi_min, phi_max, d)
        gx = gx * alpha
        gy = gy * alpha
    return gx, gy


def swept_centroids(mesh: QuadMesh,
                    x_old: np.ndarray, y_old: np.ndarray,
                    x_new: np.ndarray, y_new: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate centroid of each interior face's swept region."""
    n1 = mesh.face_nodes[:, 0]
    n2 = mesh.face_nodes[:, 1]
    sx = 0.25 * (x_old[n1] + x_old[n2] + x_new[n1] + x_new[n2])
    sy = 0.25 * (y_old[n1] + y_old[n2] + y_new[n1] + y_new[n2])
    return sx, sy


def face_fluxes(mesh: QuadMesh, fv: np.ndarray, phi: np.ndarray,
                gx: np.ndarray, gy: np.ndarray,
                xc: np.ndarray, yc: np.ndarray,
                sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """Per-face advected amount ``fv · φ_donor(swept centroid)``."""
    donor = np.where(fv > 0.0, mesh.face_cells[:, 0], mesh.face_cells[:, 1])
    phi_f = (
        phi[donor]
        + gx[donor] * (sx - xc[donor])
        + gy[donor] * (sy - yc[donor])
    )
    return fv * phi_f


def scatter_face_fluxes(mesh: QuadMesh, flux: np.ndarray,
                        target: np.ndarray) -> None:
    """Apply per-face fluxes to a cell array in place (conservative)."""
    np.subtract.at(target, mesh.face_cells[:, 0], flux)
    np.add.at(target, mesh.face_cells[:, 1], flux)


def advect_cells(mesh: QuadMesh,
                 x_old: np.ndarray, y_old: np.ndarray,
                 x_new: np.ndarray, y_new: np.ndarray,
                 fv: np.ndarray,
                 cell_mass: np.ndarray, rho: np.ndarray, e: np.ndarray,
                 comms=SerialComms(),
                 ws: Optional[Workspace] = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Advect mass and internal energy through the flux volumes.

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
    g = w.borrow((mesh.ncell, 4))
    cx = centroid(np.take(x_old, mesh.cell_nodes, out=g, mode="clip").T,
                  w.borrow(mesh.ncell))
    cy = centroid(np.take(y_old, mesh.cell_nodes, out=g, mode="clip").T,
                  w.borrow(mesh.ncell))
    w.release(g)
    sx, sy = swept_centroids(mesh, x_old, y_old, x_new, y_new)

    grx, gry = cell_gradients(mesh, cx, cy, rho)
    gex, gey = cell_gradients(mesh, cx, cy, e)
    # The donor selection and the flux-target bases depend only on
    # local data, so they compute while the ghost gradient rows are in
    # flight.
    comms.post_cell_arrays(grx, gry, gex, gey)
    donor = np.where(fv > 0.0, mesh.face_cells[:, 0], mesh.face_cells[:, 1])
    mass_new = cell_mass.copy()
    energy_new = cell_mass * e
    comms.complete_cell_arrays(grx, gry, gex, gey)

    mass_flux = face_fluxes(mesh, fv, rho, grx, gry, cx, cy, sx, sy)
    scatter_face_fluxes(mesh, mass_flux, mass_new)

    e_f = e[donor] + gex[donor] * (sx - cx[donor]) + gey[donor] * (sy - cy[donor])
    energy_flux = mass_flux * e_f
    scatter_face_fluxes(mesh, energy_flux, energy_new)
    w.release(cx, cy)
    return mass_new, energy_new
