"""Batched state — N same-mesh lanes as one disjoint-union mesh.

BookLeaf's kernels assume nothing about the mesh beyond "quads,
arbitrary valence", so N runs on one topology are just one more
unstructured mesh: N copies side by side, no cell or node shared
between them.  :class:`UnionMesh` tiles the lanes' (already validated)
connectivity with per-lane offsets, and :class:`EnsembleState` holds
the lanes' fields concatenated in one ordinary
:class:`~repro.core.state.HydroState` on it (``union``) — what
:func:`repro.core.lagstep.lagstep` steps.  Every gather, limiter lookup
and nodal sum stays inside its own component, in the same order as on
the lane's own mesh, so a lane is bit-identical to its solo run.

Lane ``i`` owns the contiguous segment ``[i·n, (i+1)·n)`` of every
union array.  Lane views (:meth:`EnsembleState.lane_state`) rebuild a
genuine :class:`HydroState` on the lanes' own mesh whose fields are
those segments — the ``state`` of the lane's own
:class:`~repro.core.hydro.Hydro` — so everything a serial driver does
around a step (the dt choice, the ALE remapper, observers, the
diagnostics probe) runs unchanged on one lane without copying.

Ragged retirement is by *compaction*: :meth:`EnsembleState.compact`
rebuilds a narrower union from the surviving segments, which preserves
every surviving lane's bits exactly.  Masking finished lanes in place
(e.g. ``dt = 0``) is deliberately avoided — a zero dt turns ``0 · inf``
NaNs loose in the timestep kernels.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.state import HydroState
from ..mesh.boundary import BoundaryConditions
from ..perf.plans import MeshPlans
from ..utils.errors import BookLeafError


class UnionMesh:
    """``n`` disjoint copies of ``base``'s connectivity.

    Carries what the step reads of a mesh (sizes, ``cell_nodes``, the
    neighbour tables :class:`MeshPlans` compiles its limiter indices
    from, and the ``plans``): copy ``i``'s node and cell ids are
    ``base``'s shifted by ``i·nnode`` / ``i·ncell``, which is exactly
    what :class:`~repro.mesh.topology.QuadMesh` would derive from the
    tiled ``cell_nodes``.
    """

    def __init__(self, base, n: int):
        self.ncell = n * base.ncell
        self.nnode = n * base.nnode
        lane = np.arange(n)[:, None, None]
        self.cell_nodes = (base.cell_nodes
                           + lane * base.nnode).reshape(-1, 4)
        neighbours = base.cell_neighbours
        self.cell_neighbours = np.where(
            neighbours >= 0, neighbours + lane * base.ncell, -1
        ).reshape(-1, 4)
        self.neighbour_side = np.tile(base.neighbour_side, (n, 1))
        self.plans = MeshPlans(self)


class EnsembleState:
    """N lanes of one same-mesh problem, concatenated."""

    def __init__(self, states: List[HydroState]):
        if not states:
            raise BookLeafError("an ensemble needs at least one lane")
        first = states[0]
        if first.bc.driver is not None:
            raise BookLeafError(
                "time-driven boundary conditions (bc.driver) cannot be "
                "batched — lanes advance at different times, so the "
                "shared prescribed-velocity arrays would be wrong; run "
                "this problem through repro.api.run instead"
            )
        for i, st in enumerate(states[1:], start=1):
            if st.mesh.ncell != first.mesh.ncell \
                    or st.mesh.nnode != first.mesh.nnode \
                    or not np.array_equal(st.mesh.cell_nodes,
                                          first.mesh.cell_nodes):
                raise BookLeafError(
                    f"ensemble lane {i} has a different mesh topology; "
                    "all lanes must share one mesh"
                )
            if not np.array_equal(st.mat, first.mat):
                raise BookLeafError(
                    f"ensemble lane {i} has a different material layout"
                )
            if not (np.array_equal(st.bc.flags, first.bc.flags)
                    and np.array_equal(st.bc.ux, first.bc.ux)
                    and np.array_equal(st.bc.uy, first.bc.uy)):
                raise BookLeafError(
                    f"ensemble lane {i} has different boundary conditions"
                )
        #: the lanes' own mesh, boundary conditions and material layout
        self.mesh = first.mesh
        self.bc = first.bc
        self.mat = first.mat.copy()
        self._unite(states)

    def _unite(self, states: List[HydroState]) -> None:
        """(Re)build ``union`` from lane states (or lane views)."""
        n = len(states)
        bc = self.bc
        self.union = HydroState(
            mesh=UnionMesh(self.mesh, n),
            bc=BoundaryConditions(np.tile(bc.flags, n), np.tile(bc.ux, n),
                                  np.tile(bc.uy, n)),
            **{name: np.concatenate([getattr(st, name) for st in states])
               for name in HydroState.field_names()},
        )

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return self.union.mesh.ncell // self.mesh.ncell

    def lane_state(self, i: int) -> HydroState:
        """A :class:`HydroState` whose fields are lane i's segments.

        Mutating the view's arrays *in place* mutates the union; code
        that rebinds fields (the ALE update) must be followed by
        :meth:`absorb_lane` to copy the rebound arrays back.
        """
        mesh = self.mesh
        size = {"node": mesh.nnode, "cell": mesh.ncell, "corner": mesh.ncell}
        fields = {}
        for kind, names in HydroState.FIELDS.items():
            n = size[kind]
            for name in names:
                fields[name] = getattr(self.union, name)[i * n:(i + 1) * n]
        return HydroState(mesh=mesh, bc=self.bc, **fields)

    def absorb_lane(self, i: int, st: HydroState) -> None:
        """Copy a lane state's (possibly rebound) fields back into
        segment i; the union's nodal-mass cache goes with them."""
        view = self.lane_state(i)
        for name in HydroState.field_names():
            # Unconditional segment copy: a no-op when the field is
            # still the view, a commit when the remapper rebound it.
            getattr(view, name)[...] = getattr(st, name)
        self.union.invalidate_node_mass()

    def extract_lane(self, i: int) -> HydroState:
        """A standalone copy of lane i (the final per-lane result)."""
        return self.lane_state(i).copy()

    # ------------------------------------------------------------------
    def compact(self, keep: List[int]) -> None:
        """Drop retired lanes: keep only the lanes listed in ``keep``.

        The survivors' segments are copied into a narrower union —
        bit-preserving, and no dead lane is left to step.
        """
        self._unite([self.lane_state(i) for i in keep])
