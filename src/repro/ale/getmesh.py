"""Target-mesh selection — BookLeaf's ``alegetmesh``.

The remap needs a target mesh to map the Lagrangian solution onto.
Two strategies are provided, matching the bounding cases the paper
describes (Section III-A):

* ``eulerian`` — the target is the *initial* mesh: running the remap
  every step makes the calculation fully Eulerian.  Requires a
  wall-bounded domain: free boundary segments are frozen at their
  Lagrangian positions (so no boundary face sweeps volume), and if
  they collapse inward past the fixed interior target — a freely
  imploding boundary like Noh's — the target mesh tangles; use
  ``relax`` for such problems;
* ``relax``    — Winslow-type smoothing: each interior node moves a
  fraction ``ale_relax`` of the way towards the average of its
  edge-connected neighbours, undoing Lagrangian distortion while
  following the flow (true ALE).

Constrained boundary nodes only move within their wall (their fixed
coordinate components are preserved); *free* boundary nodes are never
moved, which keeps every boundary face's swept volume identically zero
and the remap strictly conservative.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..core.state import HydroState
from ..mesh.boundary import FIX_X, FIX_Y
from ..utils.errors import BookLeafError


def _neighbour_average(state: HydroState) -> Tuple[np.ndarray, np.ndarray]:
    """Average position of each node's edge-connected neighbours."""
    mesh = state.mesh
    cn = mesh.cell_nodes
    # Every cell side contributes the (n1 -> n2) and (n2 -> n1) pairs;
    # interior edges are counted twice on both ends symmetrically, so
    # the average is well defined on any unstructured mesh.
    n1 = cn.ravel()
    n2 = np.roll(cn, -1, axis=1).ravel()
    sx = np.bincount(n1, weights=state.x[n2], minlength=mesh.nnode)
    sy = np.bincount(n1, weights=state.y[n2], minlength=mesh.nnode)
    cnt = np.bincount(n1, minlength=mesh.nnode).astype(np.float64)
    sx += np.bincount(n2, weights=state.x[n1], minlength=mesh.nnode)
    sy += np.bincount(n2, weights=state.y[n1], minlength=mesh.nnode)
    cnt += np.bincount(n2, minlength=mesh.nnode)
    return sx / cnt, sy / cnt


def frozen_boundary_nodes(state: HydroState,
                          side_nodes: np.ndarray,
                          tol: float = 1e-12) -> np.ndarray:
    """Nodes on *free* boundary segments, which the remap must freeze.

    A boundary side is a wall (its nodes may slide along it during the
    remap) only when both endpoints share the matching constraint and
    the side actually lies along that constrained coordinate; anything
    else — free surfaces, and the corners where a wall meets one — is
    frozen entirely, so no boundary face ever sweeps volume.
    """
    if side_nodes.size == 0:
        return np.empty(0, dtype=np.int64)
    flags = state.bc.flags
    n1, n2 = side_nodes[:, 0], side_nodes[:, 1]
    scale = max(float(np.abs(state.x).max()),
                float(np.abs(state.y).max()), 1.0)
    wall_x = (
        ((flags[n1] & FIX_X) != 0) & ((flags[n2] & FIX_X) != 0)
        & (np.abs(state.x[n1] - state.x[n2]) <= tol * scale)
    )
    wall_y = (
        ((flags[n1] & FIX_Y) != 0) & ((flags[n2] & FIX_Y) != 0)
        & (np.abs(state.y[n1] - state.y[n2]) <= tol * scale)
    )
    free_side = ~(wall_x | wall_y)
    return np.unique(side_nodes[free_side].ravel())


def select_target(state: HydroState, mode: str, relax: float,
                  x0: np.ndarray, y0: np.ndarray,
                  boundary_sides: "np.ndarray | None" = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Target node coordinates for the remap.

    ``x0, y0`` are the initial coordinates captured at setup (used by
    the Eulerian mode).  ``boundary_sides`` overrides the (nb, 2) node
    pairs of the boundary sides subject to the freeze/slide rules —
    the decomposed driver passes the *physical* domain boundary, since
    a subdomain's own mesh boundary includes artificial ghost edges.
    """
    mesh = state.mesh
    if mode == "eulerian":
        xt = x0.copy()
        yt = y0.copy()
    elif mode == "relax":
        ax, ay = _neighbour_average(state)
        xt = state.x + relax * (ax - state.x)
        yt = state.y + relax * (ay - state.y)
    else:
        raise BookLeafError(f"unknown ALE mesh mode {mode!r}")

    # Constrained nodes keep their fixed components (sliding within
    # their wall); nodes on free boundary segments freeze entirely.
    flags = state.bc.flags
    fix_x = (flags & FIX_X) != 0
    fix_y = (flags & FIX_Y) != 0
    xt[fix_x] = state.x[fix_x]
    yt[fix_y] = state.y[fix_y]
    if boundary_sides is None:
        boundary_sides = mesh.plans.boundary_side_nodes
    frozen = frozen_boundary_nodes(state, boundary_sides)
    xt[frozen] = state.x[frozen]
    yt[frozen] = state.y[frozen]
    return xt, yt
