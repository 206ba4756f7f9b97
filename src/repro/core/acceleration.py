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

On a single-domain run the force scatter goes straight through the
mesh's :class:`~repro.perf.plans.MeshPlans` into arena buffers (a
decomposed run must complete its partial sums through the comms seam
instead) and the nodal mass comes from the state's cache; a
:class:`~repro.perf.workspace.Workspace` supplies every buffer, so
repeat calls allocate nothing.  The returned arrays then live in the
arena (``acc.*``) — the caller commits them by copy.
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
    if comms is None:
        comms = SerialComms()
    w = scratch(ws)
    nnode = state.mesh.nnode
    local = ()
    if comms.size == 1:
        # This rank owns every node: the local scatter is the total.
        plans = state.mesh.plans
        pad = w.borrow(nnode)
        node_fx = plans.scatter_to_nodes(fx.T, out=w.borrow(nnode), pad=pad)
        node_fy = plans.scatter_to_nodes(fy.T, out=w.borrow(nnode), pad=pad)
        w.release(pad)
        local = (node_fx, node_fy)
        mass = state.node_mass()
    else:
        # The seam speaks (ncell, 4).
        node_fx, node_fy, mass = comms.assemble_node_sums(state, fx.T, fy.T)
    # Ghost-only nodes of a decomposed run have zero completed mass
    # (their sums live on other ranks); guard the divide — their values
    # are overwritten by the next kinematic exchange.
    massless = w.borrow(nnode, dtype=bool)
    np.less_equal(mass, 0.0, out=massless)
    safe_mass = w.borrow(nnode)
    np.copyto(safe_mass, mass)
    np.copyto(safe_mass, 1.0, where=massless)
    ax = w.borrow(nnode)
    ay = w.borrow(nnode)
    np.divide(node_fx, safe_mass, out=ax)
    np.copyto(ax, 0.0, where=massless)
    np.divide(node_fy, safe_mass, out=ay)
    np.copyto(ay, 0.0, where=massless)
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
