"""Hourglass-mode control (paper Section III-A).

A staggered quad mesh supports eight kinematic degrees of freedom but
the physics only has six; the two spurious "hourglass" (zero-energy)
modes must be suppressed.  BookLeaf implements both standard remedies
and so do we:

* **Sub-zonal pressures** (Caramana & Shashkov, JCP 142, 1998): the
  fixed corner masses define corner densities; when hourglass motion
  distorts corner volumes at constant cell volume, corner densities
  deviate from the cell density and the resulting pressure
  perturbations ``δp_i = κ c_s² (ρ_i^z − ρ_c)`` push back through the
  subzone volume gradients.  Because each subzone's gradients sum to
  zero over the cell's nodes, these forces conserve momentum exactly.

* **Hourglass filter** (after Hancock, PISCES 2DELK): a viscous damping
  force proportional to the hourglass velocity amplitude
  ``h = ¼ Σ Γ_i u_i`` with the mode vector Γ = (1, −1, 1, −1):
  ``F_i = −κ ρ c_s sqrt(V) Γ_i h``.  The Γ pattern is orthogonal to
  translation and linear deformation, so the filter leaves physical
  motion untouched, conserves momentum (Σ Γ = 0) and strictly
  dissipates (the work rate is ``−4 κ ρ c_s sqrt(V) |h|² ≤ 0``).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..perf.plans import spread_corners
from ..perf.workspace import Workspace, scratch
from . import geometry


def subzonal_pressure_forces(cx: np.ndarray, cy: np.ndarray,
                             corner_mass: np.ndarray,
                             corner_volume: np.ndarray,
                             rho: np.ndarray, cs2: np.ndarray,
                             kappa: float,
                             ws: Optional[Workspace] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Corner forces (ncell, 4) from the sub-zonal pressure deviations."""
    w = scratch(ws)
    ncell = cx.shape[0]
    # δp_i = κ c_s² (ρ_i^z − ρ_c) with ρ_i^z the corner density.
    dp = w.borrow(cx.shape)
    np.maximum(corner_volume, 1e-300, out=dp)
    np.divide(corner_mass, dp, out=dp)
    sp = w.borrow(cx.shape)
    spread_corners(rho, sp)
    dp -= sp
    tk = w.borrow(ncell)
    np.multiply(cs2, kappa, out=tk)
    spread_corners(tk, sp)
    dp *= sp
    w.release(sp)
    gradx, grady = geometry.subzone_volume_gradients(
        cx, cy,
        out=(w.borrow((ncell, 4, 4)), w.borrow((ncell, 4, 4))),
        ws=w,
    )
    # F_j = Σ_i δp_i ∂V_i/∂x_j  — contract over the subzone axis.
    # The returned forces are borrowed buffers; the caller releases them.
    fx = np.einsum("ci,cij->cj", dp, gradx, out=w.borrow(cx.shape))
    fy = np.einsum("ci,cij->cj", dp, grady, out=w.borrow(cx.shape))
    w.release(dp, tk, gradx, grady)
    return fx, fy


#: the hourglass mode pattern on a quad's corners
GAMMA = np.array([1.0, -1.0, 1.0, -1.0])


def hourglass_filter_forces(cu: np.ndarray, cv: np.ndarray,
                            rho: np.ndarray, cs2: np.ndarray,
                            volume: np.ndarray,
                            kappa: float,
                            ws: Optional[Workspace] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Hancock-style damping forces (ncell, 4) on the corner velocities."""
    w = scratch(ws)
    ncell = cu.shape[0]
    hu = w.borrow(ncell)                     # hourglass amplitudes (ncell,)
    hv = w.borrow(ncell)
    np.matmul(cu, GAMMA, out=hu)
    hu *= 0.25
    np.matmul(cv, GAMMA, out=hv)
    hv *= 0.25
    coeff = w.borrow(ncell)
    t = w.borrow(ncell)
    np.multiply(rho, kappa, out=coeff)
    np.sqrt(cs2, out=t)
    coeff *= t
    np.maximum(volume, 0.0, out=t)
    np.sqrt(t, out=t)
    coeff *= t
    hu *= coeff
    np.negative(hu, out=hu)
    hv *= coeff
    np.negative(hv, out=hv)
    # The returned forces are borrowed buffers; the caller releases them.
    # Outer product with Γ as 4 scalar column scalings (the broadcast
    # form would hit numpy's buffered-iterator allocation).
    fx = w.borrow(cu.shape)
    fy = w.borrow(cu.shape)
    spread_corners(hu, fx)
    spread_corners(hv, fy)
    for k in range(4):
        fx[:, k] *= GAMMA[k]
        fy[:, k] *= GAMMA[k]
    w.release(hu, hv, coeff, t)
    return fx, fy


def hourglass_amplitude(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Diagnostic |hourglass velocity| per cell (for tests/monitoring)."""
    hu = 0.25 * (cu @ GAMMA)
    hv = 0.25 * (cv @ GAMMA)
    return np.hypot(hu, hv)
