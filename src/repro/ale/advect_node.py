"""Momentum advection on the dual (nodal) mesh.

The kinematic variables live on nodes, so their remap runs on the
median-dual control volumes (the union of each node's cell corners).
Following the staggered-remap approach of Benson (1989):

* the dual flux volumes come from :func:`repro.ale.fluxvol.dual_flux_volumes`
  — the exact swept volumes of the median-mesh segments, so nodal
  volume changes are reproduced identically,
* nodal mass fluxes upwind the nodal density (mass / dual volume),
* momentum fluxes carry the upwind node's velocity, which makes a
  uniform velocity field an exact fixed point of the remap and
  conserves total momentum to round-off (every flux is added to one
  node and subtracted from another).

The advected nodal mass ``m*`` is used solely to turn momentum back
into velocity; the corner masses the next Lagrangian phase uses are
rebuilt from the remapped cell state (the standard small inconsistency
of staggered remaps, quantified in the tests).

In a decomposed run every per-node sum (base mass/momentum and the
flux scatters) is accumulated from *owned* cells only and completed
across ranks through the comms seam — each dual segment belongs to
exactly one cell, so each is counted exactly once globally and the
remap stays conservative.  Ghost-only nodes end with zero completed
mass; their velocities are left untouched (the next kinematic halo
exchange overwrites them).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.comms import SerialComms
from ..core.state import HydroState
from ..perf.workspace import Workspace, scratch
from ..utils.errors import BookLeafError


def advect_momentum(state: HydroState, dual_fv: np.ndarray,
                    comms=SerialComms(),
                    ws: Optional[Workspace] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advect nodal momentum through the dual flux volumes.

    ``dual_fv`` has shape (ncell, 4): entry (c, k) is flow from node
    ``cell_nodes[c, k]`` to node ``cell_nodes[c, k+1]`` (the side's two
    nodes), whose median-dual volumes the segment separates.  Returns
    ``(u_new, v_new, node_mass_star)``.
    """
    mesh = state.mesh
    w = scratch(ws)
    owned = comms.owned_cell_mask(state)

    # Base nodal volume/mass/momentum as completed corner sums.
    plans = mesh.plans
    node_vol = plans.owned_node_sum(state.corner_volume, owned, w)
    node_mass = plans.owned_node_sum(state.corner_mass, owned, w)
    cu = np.take(state.u, mesh.cell_nodes,
                 out=w.borrow((mesh.ncell, 4)), mode="clip")
    cv = np.take(state.v, mesh.cell_nodes,
                 out=w.borrow((mesh.ncell, 4)), mode="clip")
    cu *= state.corner_mass
    cv *= state.corner_mass
    mom_x = plans.owned_node_sum(cu, owned, w)
    mom_y = plans.owned_node_sum(cv, owned, w)
    w.release(cu, cv)
    local = (node_vol, node_mass, mom_x, mom_y)
    # The donor selection depends only on the flux signs, so it
    # computes while the peers' sum blocks arrive.
    comms.post_node_sums(state, *local)
    n1 = mesh.cell_nodes
    n2 = plans.side_end_nodes
    donor = np.where(dual_fv > 0.0, n1, n2)
    node_vol, node_mass, mom_x, mom_y = comms.complete_node_sums(
        state, *local)

    # Upwind nodal density needs complete sums; guard ghost-only nodes.
    complete = node_vol > 0.0
    rho_n = np.where(complete, node_mass / np.where(complete, node_vol, 1.0),
                     0.0)

    fm = dual_fv * rho_n[donor]
    fmx = fm * state.u[donor]
    fmy = fm * state.v[donor]

    # Flux scatters (owned segments only in decomposed runs; each
    # segment is owned by exactly one rank so sums complete exactly).
    def segment_sums(field: np.ndarray) -> np.ndarray:
        masked = field if owned is None else np.where(
            owned[:, None], field, 0.0)
        out = np.zeros(mesh.nnode)
        np.subtract.at(out, n1.ravel(), masked.ravel())
        np.add.at(out, n2.ravel(), masked.ravel())
        return out

    d_mass = segment_sums(fm)
    d_momx = segment_sums(fmx)
    d_momy = segment_sums(fmy)
    comms.post_node_sums(state, d_mass, d_momx, d_momy)
    d_mass, d_momx, d_momy = comms.complete_node_sums(
        state, d_mass, d_momx, d_momy)

    mass_star = node_mass + d_mass
    mom_x += d_momx
    mom_y += d_momy

    bad = complete & (mass_star <= 0.0)
    if bad.any():
        nodes = np.flatnonzero(bad)[:5]
        raise BookLeafError(
            f"momentum remap produced non-positive nodal mass at nodes "
            f"{nodes.tolist()} — reduce the remap step (ale_every/ale_relax)"
        )
    safe = np.where(complete, mass_star, 1.0)
    u_new = np.where(complete, mom_x / safe, state.u)
    v_new = np.where(complete, mom_y / safe, state.v)
    w.release(*local)
    return u_new, v_new, mass_star
