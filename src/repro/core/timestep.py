"""Timestep control — BookLeaf's ``getdt``.

The explicit scheme needs a stable dt each step.  Four constraints
compete and the reason (plus controlling cell) is reported, exactly as
the Fortran code prints it:

* ``cfl``    — acoustic CFL: ``dt = f_cfl · min_c l_c / c_eff`` with
  ``c_eff² = c_s² + 2 q/ρ`` (the viscous correction keeps shocks
  stable) and ``l_c`` the shortest cell dimension,
* ``div``    — volume-change limit: ``dt = f_div / max_c |V̇/V|``,
* ``growth`` — ``dt ≤ growth · dt_prev`` (smooth ramp-up),
* ``max``    — the absolute cap; plus ``end`` when the remaining time
  to ``time_end`` is shorter than everything else.

In the distributed code this is the *single global reduction* per step
the paper mentions: each rank computes its local minimum and the
reduction takes the global one.  :func:`local_dt_candidates` exposes
the per-rank part so the parallel driver can do exactly that.

The work is two stages.  :func:`dt_fields` is the array part — the CFL
ratio and volume-change-rate fields, one value per cell, from the
step's corner quantities (:mod:`repro.core.corners`), which it is
usually the first to read.
:func:`dt_candidates` and :func:`pick_dt` are the scalar part: reduce
the fields to the two physics candidates, then apply the deterministic
caps.  An ensemble computes the fields once on its union mesh and runs
the scalar part once per lane on that lane's contiguous segment.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..perf.workspace import Workspace, scratch
from ..utils.errors import TimestepCollapseError
from . import geometry
from .comms import SerialComms
from .controls import HydroControls
from .corners import StepCorners
from .state import HydroState

Candidate = Tuple[float, str, int]

#: the corner quantities :func:`dt_fields` reads from the step's bundle
DT_QUANTITIES = ("positions", "edges", "grad_v", "velocities")


def dt_fields(state: HydroState, controls: HydroControls,
              mask: Optional[np.ndarray] = None,
              ws: Optional[Workspace] = None,
              corners: Optional[StepCorners] = None
              ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell ``(ratio, rate)``: the squared CFL crossing time
    ``l² / c_eff²`` and the volume-change rate ``|V̇/V|``.

    ``mask`` restricts the reductions to owned cells in a decomposed
    run (ghost cells carry locally-meaningless thermodynamics: they get
    ``inf`` and ``0``).  The corner quantities — positions, edge
    vectors, ∇V and velocities — are read from the step's ``corners``
    (usually their first reader, so they are computed here and left
    there for ``lagstep``); without one a bundle is made and closed
    here.  Every temporary is borrowed from ``ws`` — and so are the
    two results, which the caller releases.
    """
    w = scratch(ws)
    c = corners if corners is not None else StepCorners.of(state, w)
    volume = state.volume
    ncell = state.mesh.ncell

    # CFL: l² / c_eff², with the viscous augmentation of the wave speed.
    ratio = geometry.cfl_length_sq(*c.edges, volume, out=w.borrow(ncell),
                                   ws=w)
    c_eff_sq = w.borrow(ncell)
    t = w.borrow(ncell)
    np.multiply(state.q, 2.0, out=c_eff_sq)
    np.maximum(state.rho, controls.dencut, out=t)
    c_eff_sq /= t
    c_eff_sq += state.cs2
    np.maximum(c_eff_sq, controls.ccut, out=c_eff_sq)
    ratio /= c_eff_sq
    if mask is not None:             # ghosts drop out of both reductions
        ghost = np.logical_not(mask, out=w.borrow(ncell, dtype=bool))
        ratio[ghost] = np.inf

    # Volume-change rate: V̇ = Σ_i ∇_i V · u_i on current velocities.
    dvdx, dvdy = c.grad_v
    cu, cv = c.velocities
    rate = geometry.corner_dot(dvdx, cu, c_eff_sq, w)    # c_eff² is consumed
    geometry.corner_dot(dvdy, cv, t, w)
    rate += t
    np.abs(rate, out=rate)
    rate /= volume
    if mask is not None:
        rate[ghost] = 0.0
        w.release(ghost)
    w.release(t)
    if c is not corners:
        c.close()
    return ratio, rate


def dt_candidates(ratio: np.ndarray, rate: np.ndarray,
                  controls: HydroControls) -> List[Candidate]:
    """CFL and divergence candidates ``(dt, reason, cell)`` of the
    :func:`dt_fields` (or one lane's segment of them)."""
    icfl = int(ratio.argmin())
    dt_cfl = controls.cfl_safety * float(np.sqrt(ratio[icfl]))
    idiv = int(rate.argmax())
    max_rate = float(rate[idiv])
    dt_div = controls.div_safety / max_rate if max_rate > controls.zcut else np.inf
    return [(dt_cfl, "cfl", icfl), (dt_div, "div", idiv)]


def local_dt_candidates(state: HydroState, controls: HydroControls,
                        mask: Optional[np.ndarray] = None,
                        ws: Optional[Workspace] = None,
                        corners: Optional[StepCorners] = None
                        ) -> List[Candidate]:
    """This domain's :func:`dt_candidates`."""
    ratio, rate = dt_fields(state, controls, mask, ws, corners)
    candidates = dt_candidates(ratio, rate, controls)
    scratch(ws).release(ratio, rate)
    return candidates


def getdt(state: HydroState, controls: HydroControls,
          dt_prev: float, time: float, comms=None,
          ws: Optional[Workspace] = None,
          corners: Optional[StepCorners] = None) -> Candidate:
    """Choose the next timestep; raises on collapse below ``dt_min``.

    With a ``comms`` object the physics candidates are reduced globally
    first (the one collective per step), then the deterministic caps
    (growth/max/end) are applied identically on every domain.
    ``corners`` is the step's :class:`~repro.core.corners.StepCorners`.
    """
    comms = comms if comms is not None else SerialComms()
    candidates = local_dt_candidates(
        state, controls, comms.owned_cell_mask(state), ws=ws,
        corners=corners)
    return pick_dt([comms.reduce_dt(candidates)], controls, dt_prev, time)


def pick_dt(candidates: List[Candidate], controls: HydroControls,
            dt_prev: float, time: float) -> Candidate:
    """The smallest of the (reduced) physics candidates and the
    growth/max caps, clipped to the remaining time; raises on collapse
    below ``dt_min``."""
    candidates = candidates + [(controls.dt_growth * dt_prev, "growth", -1),
                               (controls.dt_max, "max", -1)]
    dt, reason, cell = min(candidates, key=lambda c: c[0])
    if dt < controls.dt_min:
        raise TimestepCollapseError(dt, controls.dt_min, cell=cell, time=time)
    remaining = controls.time_end - time
    if dt >= remaining:
        return (remaining, "end", -1)
    return (dt, reason, cell)
