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

from ..perf.workspace import Workspace, scratch
from . import geometry


def subzonal_pressure_forces(cx: np.ndarray, cy: np.ndarray,
                             corner_mass: np.ndarray,
                             corner_volume: np.ndarray,
                             rho: np.ndarray, cs2: np.ndarray,
                             kappa: float,
                             ws: Optional[Workspace] = None
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Corner forces (4, ncell) from the sub-zonal pressure deviations
    (every corner array corner-major)."""
    w = scratch(ws)
    ncell = cx.shape[1]
    # δp_i = κ c_s² (ρ_i^z − ρ_c) with ρ_i^z the corner density.  The
    # state's arrays arrive as strided ``.T`` views: copy, then compute
    # (a strided 2-D ufunc runs through 64 KB iterator buffers).
    dp = w.borrow(cx.shape)
    t = w.borrow(cx.shape)
    dp[...] = corner_volume
    np.maximum(dp, 1e-300, out=dp)
    t[...] = corner_mass
    np.divide(t, dp, out=dp)
    dp -= rho
    tk = w.borrow(ncell)
    np.multiply(cs2, kappa, out=tk)
    dp *= tk
    # F_j = Σ_i δp_i ∂V_i/∂x_j — contracted over the subzone axis in
    # ascending i, the order ``einsum("ci,cij->cj")`` accumulates in,
    # one subzone's gradient row at a time.  The returned forces are
    # borrowed buffers; the caller releases them.
    fx = w.borrow(cx.shape)
    fy = w.borrow(cx.shape)
    for component, i, row in geometry.subzone_gradient_rows(cx, cy, ws=w):
        f = (fx, fy)[component]
        if i == 0:
            np.multiply(dp[0], row, out=f)
        else:
            np.multiply(dp[i], row, out=t)
            f += t
    w.release(dp, tk, t)
    return fx, fy


#: the hourglass mode pattern on a quad's corners
GAMMA = np.array([1.0, -1.0, 1.0, -1.0])


def _amplitude(c: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``¼ Σ Γ_i c_i`` over corner-major rows, associated
    ``(c0 + c2) − (c1 + c3)`` like the ``(n, 4) @ Γ`` matvec."""
    np.add(c[0], c[2], out=out)
    np.add(c[1], c[3], out=t)
    out -= t
    out *= 0.25
    return out


def hourglass_filter_forces(cu: np.ndarray, cv: np.ndarray,
                            rho: np.ndarray, cs2: np.ndarray,
                            volume: np.ndarray,
                            kappa: float,
                            ws: Optional[Workspace] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
    """Hancock-style damping forces (4, ncell) on the corner-major
    corner velocities."""
    w = scratch(ws)
    ncell = cu.shape[1]
    t = w.borrow(ncell)
    hu = _amplitude(cu, w.borrow(ncell), t)  # hourglass amplitudes
    hv = _amplitude(cv, w.borrow(ncell), t)
    coeff = w.borrow(ncell)
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
    # Outer product with Γ, one corner row at a time.
    fx = w.borrow(cu.shape)
    fy = w.borrow(cu.shape)
    for k in range(4):
        np.multiply(hu, GAMMA[k], out=fx[k])
        np.multiply(hv, GAMMA[k], out=fy[k])
    w.release(hu, hv, coeff, t)
    return fx, fy


def hourglass_amplitude(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """Diagnostic |hourglass velocity| per cell (for tests/monitoring),
    from (ncell, 4) corner velocities — it runs outside the step."""
    hu = 0.25 * (cu @ GAMMA)
    hv = 0.25 * (cv @ GAMMA)
    return np.hypot(hu, hv)
