"""Nodal acceleration and velocity update — BookLeaf's ``getacc``.

Scatter-assembles the corner forces onto nodes, divides by the nodal
(corner-sum) mass, applies the kinematic boundary conditions and
advances the velocity:

    a_n      = (Σ_corners F) / m_n
    u^{n+1}  = u^n + dt a_n
    ū        = ½ (u^n + u^{n+1})

The time-centred ū is returned for the mesh move and the compatible
energy update.  This kernel is the one the paper singles out as having
a data dependency that defeats OpenMP threading (the scatter-assembly
race); in numpy the scatter is a ``bincount`` and the whole kernel is
a few vector operations.

The local scatter goes through the mesh's
:class:`~repro.perf.plans.MeshPlans` into arena buffers — from owned
cells only when the endpoint says some are not — and the partial sums
are posted to and completed through the comms seam (serially they
already are the totals, and the nodal mass comes from the state's
cache); a :class:`~repro.perf.workspace.Workspace` supplies every
buffer, so repeat calls allocate nothing.  The returned arrays live in
the arena (``acc.*``) — the caller commits them by copy.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..perf.workspace import Workspace, scratch
from .comms import SerialComms
from .state import HydroState


def getacc(state: HydroState, fx: np.ndarray, fy: np.ndarray, dt: float,
           comms=None,
           ws: Optional[Workspace] = None
           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance nodal velocities by ``dt`` under the corner-major
    (4, ncell) corner forces ``fx, fy``.

    Returns ``(u_new, v_new, u_bar, v_bar)``.  The state's velocity
    arrays are *not* modified — the caller (``lagstep``) commits them,
    keeping this kernel side-effect free and independently testable.

    With a ``comms`` object, the partial nodal force/mass sums of
    shared interface nodes are completed across domains before the
    divide — BookLeaf's second communication point.
    """
    comms = comms if comms is not None else SerialComms()
    w = scratch(ws)
    nnode = state.mesh.nnode
    plans = state.mesh.plans
    owned = comms.owned_cell_mask(state)
    node_fx = plans.owned_node_sum(fx.T, owned, w)
    node_fy = plans.owned_node_sum(fy.T, owned, w)
    local = [node_fx, node_fy]
    if owned is None:
        # Corner masses are fixed between remaps and the state caches
        # their sum over every cell.
        mass = state.node_mass()
    else:
        mass = plans.owned_node_sum(state.corner_mass, owned, w)
        local.append(mass)
    comms.post_node_sums(state, node_fx, node_fy, mass)
    # Laying out the divide needs no peer's sums.
    massless = w.borrow(nnode, dtype=bool)
    safe_mass = w.borrow(nnode)
    ax = w.borrow(nnode)
    ay = w.borrow(nnode)
    node_fx, node_fy, mass = comms.complete_node_sums(
        state, node_fx, node_fy, mass)
    # Ghost-only nodes of a decomposed run have zero completed mass
    # (their sums live on other ranks); guard the divide — their values
    # are overwritten by the next kinematic exchange.
    np.less_equal(mass, 0.0, out=massless)
    safe_mass[...] = mass
    safe_mass[massless] = 1.0
    np.divide(node_fx, safe_mass, out=ax)
    ax[massless] = 0.0
    np.divide(node_fy, safe_mass, out=ay)
    ay[massless] = 0.0
    w.release(*local)
    state.bc.apply_acceleration(ax, ay)
    u_new = w.array("acc.unew", nnode)
    v_new = w.array("acc.vnew", nnode)
    np.multiply(ax, dt, out=u_new)
    u_new += state.u
    np.multiply(ay, dt, out=v_new)
    v_new += state.v
    w.release(massless, safe_mass, ax, ay)
    state.bc.apply_velocity(u_new, v_new)
    u_bar = w.array("acc.ubar", nnode)
    v_bar = w.array("acc.vbar", nnode)
    np.add(state.u, u_new, out=u_bar)
    u_bar *= 0.5
    np.add(state.v, v_new, out=v_bar)
    v_bar *= 0.5
    return u_new, v_new, u_bar, v_bar
