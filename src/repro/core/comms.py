"""Communication seam between the hydro kernels and any comm layer.

The Lagrangian step communicates at exactly three points per timestep
(paper Sections III-A and IV-A):

* ghost nodal kinematics immediately before the viscosity calculation,
* completion of the partial nodal force/mass sums during the
  acceleration,
* the single global reduction in ``getdt``.

:class:`SerialComms` (alias :data:`NullComms`) is the do-nothing
implementation used by serial runs; the simulated Typhon layer
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
halos live on other ranks), so reductions (``getdt``) and failure
checks (tangling) must restrict themselves to owned cells.  Serially
the mask is ``None`` (everything owned).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .timestep import Candidate


class SerialComms:
    """No-op communications for a single-domain run."""

    #: declares conformance to repro.parallel.interface.CommEndpoint
    __comm_endpoint__ = True

    #: number of participating domains (for diagnostics)
    size: int = 1
    rank: int = 0

    def exchange_kinematics(self, state) -> None:
        """Refresh ghost nodal positions and velocities (no-op serially)."""

    def assemble_node_sums(self, state, fx: np.ndarray, fy: np.ndarray
                           ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scatter corner forces/masses to nodes and complete the sums
        across domains.  Serially this is just the local scatter."""
        return (
            state.scatter_to_nodes(fx),
            state.scatter_to_nodes(fy),
            state.node_mass(),
        )

    def reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Global minimum over all domains' dt candidates."""
        return min(candidates, key=lambda c: c[0])

    def owned_cell_mask(self, state) -> Optional[np.ndarray]:
        """Boolean mask of locally-owned cells (None = all owned)."""
        return None

    # ------------------------------------------------------------------
    # extensions used by the distributed ALE remap
    # ------------------------------------------------------------------
    def exchange_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Refresh ghost-cell rows of per-cell arrays (no-op serially)."""

    def exchange_cell_fields(self, state) -> None:
        """Refresh the ghost cells' thermodynamic state (no-op serially)."""

    def complete_node_arrays(self, state, *arrays: np.ndarray
                             ) -> Tuple[np.ndarray, ...]:
        """Complete partial nodal sums across domains (identity serially;
        the inputs must already be full local scatters)."""
        return arrays

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

    def comm_plan(self):
        """The compiled packed-exchange plan driving this endpoint
        (None: a serial run has no halos to pack)."""
        return None

    # ------------------------------------------------------------------
    # split-phase (overlapped) exchange API — serial degenerate forms.
    # A single domain has no halo, so posts are no-ops and completions
    # return the inputs; kernels gate the split code path on
    # ``overlap_enabled()`` anyway.
    # ------------------------------------------------------------------
    def overlap_enabled(self) -> bool:
        """Whether split-phase halo exchange is active (never serially)."""
        return False

    def post_kinematics(self, state) -> None:
        """Start the kinematic halo refresh (no-op serially)."""

    def complete_kinematics(self, state) -> None:
        """Finish the kinematic halo refresh (no-op serially)."""

    def post_node_sums(self, state, *partials: np.ndarray) -> None:
        """Start a nodal-sum completion (serially just remembers the
        partials, which already are the totals)."""
        self._pending_sums = partials

    def complete_node_sums(self, state) -> Tuple[np.ndarray, ...]:
        """Finish a posted nodal-sum completion (identity serially)."""
        partials = getattr(self, "_pending_sums", ())
        self._pending_sums = ()
        return partials

    def post_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Start a ghost-cell refresh of per-cell arrays (no-op)."""

    def complete_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Finish a posted ghost-cell refresh (no-op serially)."""

    def post_cell_fields(self, state) -> None:
        """Start the ghost-cell thermodynamic refresh (no-op)."""

    def complete_cell_fields(self, state) -> None:
        """Finish the ghost-cell thermodynamic refresh (no-op)."""


#: the formal name of the do-nothing endpoint in the backend registry
#: (``repro.parallel.interface`` nomenclature); same class, two names.
NullComms = SerialComms
