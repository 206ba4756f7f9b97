"""Slope limiters for the second-order remap (paper Section III-A).

The swept-volume advection reconstructs cell quantities linearly and
limits the gradients to enforce monotonicity, following Van Leer (1977)
as the paper cites.  Two standard limiters are provided:

* :func:`barth_jespersen` — the multidimensional cell-wise limiter used
  by the unstructured advection (limits the full gradient by a single
  scalar so reconstructed values stay within the neighbour bounds),
* :func:`van_leer` — the classic smooth ratio limiter, exposed for the
  1-D property tests and as an alternative edge limiter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..perf.workspace import Workspace, scratch


def van_leer(r: np.ndarray) -> np.ndarray:
    """Van Leer's harmonic limiter φ(r) = (r + |r|)/(1 + |r|).

    Zero for opposite-signed slopes (r ≤ 0), asymptoting to 2 for
    r → ∞, φ(1) = 1 (second order preserved in smooth regions).
    """
    r = np.asarray(r, dtype=np.float64)
    return (r + np.abs(r)) / (1.0 + np.abs(r))


def barth_jespersen(phi_c: np.ndarray, phi_min: np.ndarray,
                    phi_max: np.ndarray, d: np.ndarray,
                    out: Optional[np.ndarray] = None,
                    ws: Optional[Workspace] = None) -> np.ndarray:
    """Cell-wise limiter factors α in [0, 1].

    ``phi_c``: cell values (ncell,); ``phi_min/phi_max``: local bounds
    (min/max over the cell and its face neighbours, so they bracket
    ``phi_c``); ``d``: the *unlimited* reconstruction increments
    ``g·(r_f − r_c)`` at each of the cell's evaluation points,
    point-major — shape (npoints, ncell), one contiguous row per point,
    as the remap's corner arrays are.  Returns α such that
    ``phi_c + α d`` lies within [phi_min, phi_max] at every point.
    """
    w = scratch(ws)
    if out is None:
        out = np.empty(phi_c.shape)
    up = w.borrow(d.shape)
    down = w.borrow(d.shape)
    # The room to each bound over d.  The bound d heads towards gives
    # the larger ratio — the other one has the opposite sign — so the
    # maximum picks it.  A zero d divides to ±inf or NaN, and huge
    # ratios overflow to inf: the NaN-skipping fmin(·, 1) caps all of
    # those at "unconstrained", α = 1.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(np.subtract(phi_max, phi_c, out=out), d, out=up)
        np.divide(np.subtract(phi_min, phi_c, out=out), d, out=down)
    alpha = np.maximum(down, up, out=up)
    np.fmin(alpha, 1.0, out=alpha)
    np.minimum.reduce(alpha, axis=0, out=out)
    w.release(up, down)
    return np.clip(out, 0.0, 1.0, out=out)
