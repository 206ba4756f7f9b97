"""Boundary-condition classification.

BookLeaf's kinematic boundary conditions constrain nodal velocity (and
acceleration) components.  We encode them as a per-node bitmask:

* ``FIX_X`` — the x velocity component is held at a prescribed value
  (zero for a reflecting/symmetry wall, non-zero for a piston),
* ``FIX_Y`` — likewise for y.

:func:`classify_box_boundary` assigns wall conditions on an axis-aligned
box domain (all the bundled problems), and :class:`BoundaryConditions`
applies the constraints inside the acceleration kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .topology import QuadMesh

FIX_X = 1
FIX_Y = 2


@dataclass
class BoundaryConditions:
    """Per-node velocity constraints.

    ``flags`` is the FIX_X/FIX_Y bitmask.  ``ux``/``uy`` are the
    prescribed velocity values for constrained components (zero for
    walls; the Saltzmann piston sets ``ux = 1`` on the driven nodes).

    ``driver`` optionally makes the prescribed values *time-dependent*:
    any object with ``velocities(t) -> (ux, uy)`` (full per-node
    arrays) and ``subset(nodes) -> driver`` (restriction for domain
    decomposition).  The :class:`~repro.core.hydro.Hydro` step loop
    calls :meth:`advance` with the end-of-step time before each
    Lagrangian step, so driven nodes land exactly on the prescribed
    velocity at every time level (the Kidder shell compression drives
    its boundary arcs this way).  Time-driven conditions cannot be
    batched — lanes advance at different times — so the ensemble layer
    rejects them.
    """

    flags: np.ndarray
    ux: np.ndarray = field(default=None)  # type: ignore[assignment]
    uy: np.ndarray = field(default=None)  # type: ignore[assignment]
    driver: Optional[object] = None

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=np.int8)
        n = self.flags.size
        self.ux = (np.zeros(n) if self.ux is None
                   else np.asarray(self.ux, dtype=np.float64))
        self.uy = (np.zeros(n) if self.uy is None
                   else np.asarray(self.uy, dtype=np.float64))
        if self.driver is not None:
            self.advance(0.0)

    def advance(self, t: float) -> None:
        """Refresh the prescribed velocities from the driver at ``t``
        (no-op for static conditions)."""
        if self.driver is None:
            return
        ux, uy = self.driver.velocities(t)
        self.ux = np.asarray(ux, dtype=np.float64)
        self.uy = np.asarray(uy, dtype=np.float64)

    @classmethod
    def free(cls, nnode: int) -> "BoundaryConditions":
        """No constraints anywhere."""
        return cls(np.zeros(nnode, dtype=np.int8))

    def apply_velocity(self, u: np.ndarray, v: np.ndarray) -> None:
        """Overwrite constrained velocity components in place."""
        mx = (self.flags & FIX_X) != 0
        my = (self.flags & FIX_Y) != 0
        u[mx] = self.ux[mx]
        v[my] = self.uy[my]

    def apply_acceleration(self, ax: np.ndarray, ay: np.ndarray) -> None:
        """Zero accelerations along constrained components in place."""
        ax[(self.flags & FIX_X) != 0] = 0.0
        ay[(self.flags & FIX_Y) != 0] = 0.0

    def constrained_nodes(self) -> np.ndarray:
        """Indices of nodes with any constraint (for reporting)."""
        return np.flatnonzero(self.flags != 0)

    def subset(self, nodes: np.ndarray) -> "BoundaryConditions":
        """Restriction to a node subset (used by the domain decomposer)."""
        return BoundaryConditions(
            self.flags[nodes], self.ux[nodes], self.uy[nodes],
            driver=(self.driver.subset(nodes)
                    if self.driver is not None else None),
        )


def classify_box_boundary(
    mesh: QuadMesh,
    extents: Tuple[float, float, float, float],
    walls: Optional[Dict[str, bool]] = None,
    tol: float = 1.0e-9,
) -> BoundaryConditions:
    """Wall (reflecting) conditions on the sides of a box domain.

    ``walls`` maps side names (``left``/``right``/``bottom``/``top``) to
    whether that side is a fixed wall (default: all four).  Nodes on a
    vertical wall get ``FIX_X``; on a horizontal wall ``FIX_Y``; corner
    nodes get both.  Classification uses the *initial* coordinates, and
    the constraints keep those nodes on their walls forever, so the
    classification stays valid as the mesh moves.
    """
    walls = walls or {"left": True, "right": True, "bottom": True, "top": True}
    x0, x1, y0, y1 = extents
    scale_x = max(abs(x0), abs(x1), 1.0)
    scale_y = max(abs(y0), abs(y1), 1.0)
    flags = np.zeros(mesh.nnode, dtype=np.int8)
    if walls.get("left"):
        flags[np.abs(mesh.x - x0) <= tol * scale_x] |= FIX_X
    if walls.get("right"):
        flags[np.abs(mesh.x - x1) <= tol * scale_x] |= FIX_X
    if walls.get("bottom"):
        flags[np.abs(mesh.y - y0) <= tol * scale_y] |= FIX_Y
    if walls.get("top"):
        flags[np.abs(mesh.y - y1) <= tol * scale_y] |= FIX_Y
    return BoundaryConditions(flags)
