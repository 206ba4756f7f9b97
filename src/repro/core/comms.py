"""Communication seam between the hydro kernels and any comm layer.

The Lagrangian step communicates at exactly three points per timestep
(paper Sections III-A and IV-A):

* ghost nodal kinematics immediately before the viscosity calculation,
* completion of the partial nodal force/mass sums during the
  acceleration,
* the single global reduction in ``getdt``.

Every exchange has one form, split in two: ``post_*`` starts it and
``complete_*`` finishes it, and a kernel writes its comm point once as
*post → the work that needs no halo → complete*.  Nothing a peer sends
may be read before the complete; *when* between the two halves the
data lands is the endpoint's business, not the kernel's.

:class:`SerialComms` is the endpoint of a single-domain run: its halo
is empty and its partial sums already are the totals, so every half is
a no-op.  The simulated Typhon layer
(:class:`repro.parallel.typhon.TyphonComms`) is the one every
decomposed run uses, over an in-process or a shared-memory transport.
Keeping the seam this small is what makes the kernels identical in
serial and parallel — the mini-app's defining property.

The seam is formally typed as
:class:`repro.parallel.interface.CommEndpoint`; every implementation
declares conformance (``__comm_endpoint__``) and is structurally
checked against the protocol by ``tests/parallel/test_protocol.py``.

The seam also exposes ``owned_cell_mask``: in a decomposed run the
ghost cells' thermodynamic state is not locally meaningful (their own
halos live on other ranks), so reductions (``getdt``), nodal sums and
failure checks (tangling) must restrict themselves to owned cells.
Serially the mask is ``None`` (everything owned).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    from .timestep import Candidate

#: the stale strip of a domain without a halo: no cells, no corner rows
_NO_STRIP = (np.empty(0, dtype=np.intp), np.empty((0, 4), dtype=np.intp))


class SerialComms:
    """No-op communications for a single-domain run.

    Stateless, so one instance may serve any number of callers.
    """

    #: declares conformance to repro.parallel.interface.CommEndpoint
    __comm_endpoint__ = True

    #: number of participating domains (for diagnostics)
    size: int = 1
    rank: int = 0

    def post_kinematics(self, state) -> None:
        """Start the refresh of the ghost nodes' x, y, u, v."""

    def complete_kinematics(self, state) -> Tuple[np.ndarray, np.ndarray]:
        """Finish the kinematic refresh.  Returns the stale strip
        ``(cells, cell_nodes[cells])``: the cells with a ghost node,
        whose corner gathers since the post must be redone (none
        serially)."""
        return _NO_STRIP

    def post_node_sums(self, state, *partials: np.ndarray) -> None:
        """Start completing per-node sums accumulated from *owned*
        cells only."""

    def complete_node_sums(self, state, *partials: np.ndarray
                           ) -> Tuple[np.ndarray, ...]:
        """Finish the posted completion (pass the same arrays) and
        return the totals — serially the partials themselves."""
        return partials

    def reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Global minimum over all domains' dt candidates."""
        return min(candidates, key=lambda c: c[0])

    def owned_cell_mask(self, state) -> Optional[np.ndarray]:
        """Boolean mask of locally-owned cells (None = all owned)."""
        return None

    # ------------------------------------------------------------------
    # extensions used by the distributed ALE remap
    # ------------------------------------------------------------------
    def post_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Start a refresh of the ghost-cell rows of per-cell arrays."""

    def complete_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Finish the posted ghost-cell refresh (pass the same arrays)."""

    def post_cell_fields(self, state) -> None:
        """Start the refresh of the ghost cells' thermodynamic state."""

    def complete_cell_fields(self, state) -> None:
        """Finish the ghost-cell thermodynamic refresh."""

    def physical_boundary_sides(self, state) -> Optional[np.ndarray]:
        """(nb, 2) node pairs of the *physical* boundary sides (None =
        use the local mesh's own boundary, correct for undecomposed
        meshes)."""
        return None

    def physical_boundary_side_mask(self, state) -> Optional[np.ndarray]:
        """Mask over the local mesh's boundary sides selecting the
        physical ones (None = all physical)."""
        return None

    def allreduce_max(self, value: float) -> float:
        """Global maximum of a scalar (identity serially).  Control-flow
        decisions (e.g. 'did any rank's mesh move?') must be collective
        or the ranks' barrier sequences diverge."""
        return value

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global sum of a small vector (identity serially).
        Used by the live-metrics probe for conservation sums."""
        return np.array(values, dtype=np.float64)

    def allreduce_min(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global minimum of a small vector (identity
        serially).  Used by the live-metrics probe for field extrema."""
        return np.array(values, dtype=np.float64)
