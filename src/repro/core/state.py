"""The staggered-mesh hydrodynamic state.

BookLeaf's discretisation (paper Section III-A) centres thermodynamic
variables (ρ, e, p, q, c²) in cells and kinematic variables (x, u) on
nodes.  Masses are the conserved bookkeeping: a fixed cell mass plus
fixed corner (sub-zonal) masses during the Lagrangian phase; the nodal
mass used by the momentum equation is the scatter-sum of the corner
masses around each node.

:class:`HydroState` owns all of these arrays plus the scatter helper
(node assembly is the only gather/scatter primitive the kernels need).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, Optional, Tuple

import numpy as np

from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import BoundaryConditions
from ..mesh.topology import QuadMesh
from ..utils.errors import MeshError, SnapshotError
from . import geometry


#: the boundary-condition planes a stored state carries, as ``bc_<name>``
_BC_PLANES = ("flags", "ux", "uy")

#: the stored planes that are not float64
_DTYPES = {"mat": np.dtype(np.int64), "bc_flags": np.dtype(np.int8)}

#: a stored plane's ``(shape, dtype)``
Layout = Dict[str, Tuple[Tuple[int, ...], np.dtype]]


def _check_stored(arrays: Dict[str, np.ndarray], layout: Layout) -> None:
    """Raise :class:`SnapshotError` unless ``arrays`` has every member
    of ``layout`` with that shape and dtype."""
    for name, (shape, dtype) in layout.items():
        stored = arrays.get(name)
        if stored is None or stored.shape != shape or stored.dtype != dtype:
            found = (None if stored is None
                     else f"{stored.shape} {stored.dtype}")
            raise SnapshotError(f"stored state has no {shape} {dtype} "
                                f"member {name!r} (found {found})")


@dataclass
class HydroState:
    """All evolving fields of one (serial or per-rank) hydro domain."""

    mesh: QuadMesh
    # nodal kinematics
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    # cell thermodynamics
    rho: np.ndarray
    e: np.ndarray
    p: np.ndarray
    cs2: np.ndarray
    q: np.ndarray
    mat: np.ndarray
    # masses (fixed during the Lagrangian phase)
    cell_mass: np.ndarray
    corner_mass: np.ndarray
    # geometry caches (refreshed by getgeom)
    volume: np.ndarray
    corner_volume: np.ndarray
    bc: BoundaryConditions = field(default=None)  # type: ignore[assignment]
    # cached nodal mass — valid while corner_mass is unchanged, i.e. for
    # the whole Lagrangian phase; the ALE update invalidates it.
    _node_mass: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False)

    #: THE field table: every evolving array, by the mesh entity that
    #: sizes it — ``node`` (nnode,), ``cell`` (ncell,), ``corner``
    #: (ncell, 4).  Everything that copies, stores, restricts, gathers
    #: or scans a state enumerates it through this table.
    FIELDS: ClassVar[Dict[str, Tuple[str, ...]]] = {
        "node": ("x", "y", "u", "v"),
        "cell": ("rho", "e", "p", "cs2", "q", "volume", "cell_mass",
                 "mat"),
        "corner": ("corner_mass", "corner_volume"),
    }

    @classmethod
    def field_names(cls, *kinds: str) -> Tuple[str, ...]:
        """Field names of the given kinds (all kinds when none given)."""
        return tuple(name for kind in kinds or cls.FIELDS
                     for name in cls.FIELDS[kind])

    @classmethod
    def layout(cls, mesh: QuadMesh) -> Layout:
        """``(shape, dtype)`` of every stored plane on ``mesh`` — each
        field, then the ``bc_*`` planes — by name."""
        by_kind = {"node": (mesh.nnode,), "cell": (mesh.ncell,),
                   "corner": (mesh.ncell, 4)}
        shapes = {name: by_kind[kind]
                  for kind, names in cls.FIELDS.items() for name in names}
        shapes.update((f"bc_{name}", (mesh.nnode,)) for name in _BC_PLANES)
        return {name: (shape, _DTYPES.get(name, np.dtype(float)))
                for name, shape in shapes.items()}

    def __post_init__(self):
        if self.bc is None:
            self.bc = BoundaryConditions.free(self.mesh.nnode)
        nnode, ncell = self.mesh.nnode, self.mesh.ncell
        shapes = {"node": (nnode,), "cell": (ncell,), "corner": (ncell, 4)}
        for kind, names in self.FIELDS.items():
            for name in names:
                shape = getattr(self, name).shape
                if shape != shapes[kind]:
                    raise MeshError(f"state field {name} has shape {shape}, "
                                    f"expected {shapes[kind]}")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_initial(cls, mesh: QuadMesh, table: MaterialTable,
                     rho: np.ndarray, e: np.ndarray,
                     mat: Optional[np.ndarray] = None,
                     u: Optional[np.ndarray] = None,
                     v: Optional[np.ndarray] = None,
                     bc: Optional[BoundaryConditions] = None) -> "HydroState":
        """Build a consistent state from ρ, e (and optional u, v, mat).

        Masses are set from the initial geometry (cell mass = ρV, corner
        masses = ρ × corner volume, i.e. uniform sub-zonal density), and
        p/c² are initialised through the EoS.
        """
        ncell, nnode = mesh.ncell, mesh.nnode
        rho = np.ascontiguousarray(rho, dtype=np.float64)
        e = np.ascontiguousarray(e, dtype=np.float64)
        mat = (np.zeros(ncell, dtype=np.int64) if mat is None
               else np.ascontiguousarray(mat, dtype=np.int64))
        x = mesh.x.copy()
        y = mesh.y.copy()
        volume, cvol = cls._volumes(mesh, x, y)
        state = cls(
            mesh=mesh,
            x=x, y=y,
            # own copies: the step loop commits into these in place
            u=np.zeros(nnode) if u is None else np.array(u, dtype=np.float64),
            v=np.zeros(nnode) if v is None else np.array(v, dtype=np.float64),
            rho=rho.copy(), e=e.copy(),
            p=np.zeros(ncell), cs2=np.zeros(ncell), q=np.zeros(ncell),
            mat=mat,
            cell_mass=rho * volume,
            corner_mass=rho[:, None] * cvol,
            volume=volume,
            corner_volume=cvol,
            bc=bc,
        )
        state.p, state.cs2 = table.getpc(state.mat, state.rho, state.e)
        state.bc.apply_velocity(state.u, state.v)
        return state

    @classmethod
    def from_arrays(cls, mesh: QuadMesh, arrays: Dict[str, np.ndarray],
                    driver: Optional[object] = None) -> "HydroState":
        """A state on private copies of stored :meth:`arrays` (a cache
        entry's), with ``driver`` as its boundary driver: nothing is
        computed, and nothing is built unless every member is there
        with the shape and dtype of :meth:`layout`."""
        _check_stored(arrays, cls.layout(mesh))
        bc = BoundaryConditions(*(arrays[f"bc_{name}"].copy()
                                  for name in _BC_PLANES))
        # the stored planes already hold the driver's latest velocities
        bc.driver = driver
        return cls(mesh=mesh, bc=bc, **{name: arrays[name].copy()
                                        for name in cls.field_names()})

    # ------------------------------------------------------------------
    # scatter / assembly primitives
    # ------------------------------------------------------------------
    def scatter_to_nodes(self, corner_field: np.ndarray) -> np.ndarray:
        """Sum an (ncell, 4) corner field onto nodes -> (nnode,).

        Bit-for-bit the ``bincount`` sum over the flattened
        connectivity on every mesh (see
        :meth:`repro.perf.plans.MeshPlans.scatter_to_nodes`).
        """
        return self.mesh.plans.scatter_to_nodes(corner_field)

    def node_mass(self) -> np.ndarray:
        """Nodal mass: scatter-sum of corner masses (always > 0).

        Corner masses are fixed during the Lagrangian phase, so the sum
        is computed once and cached until :meth:`invalidate_node_mass`
        (called by the ALE update, which rewrites the corner masses).
        The returned array is shared — callers must treat it read-only.
        """
        if self._node_mass is None:
            self._node_mass = self.scatter_to_nodes(self.corner_mass)
        return self._node_mass

    def invalidate_node_mass(self) -> None:
        """Drop the cached nodal mass (call after changing corner_mass)."""
        self._node_mass = None

    # ------------------------------------------------------------------
    # health sentinels (the live-metrics layer's hard invariants)
    # ------------------------------------------------------------------
    def sentinel_scan(self, cell_mask: Optional[np.ndarray] = None,
                      max_ids: int = 32,
                      e_mask: Optional[np.ndarray] = None) -> dict:
        """Scan for states no healthy step may produce.

        Checks every kinematic and thermodynamic field for NaN/Inf and
        the invariant-domain bounds of the compatible scheme: positive
        cell volume, density and mass, non-negative internal energy.
        Returns ``{sentinel_name: offending ids}`` (empty dict =
        healthy; node ids for the nodal fields, cell ids otherwise);
        ids are truncated to ``max_ids`` per sentinel.
        ``cell_mask`` restricts the *cell* checks to owned cells in a
        decomposed run (ghost thermodynamics are refreshed lazily and
        may be stale, never authoritative).  ``e_mask`` restricts the
        ``negative:e`` check to the cells whose material admits only
        ``e >= 0`` (:meth:`~repro.eos.MaterialTable.nonnegative_e_cells`;
        ``None`` = every cell).
        """
        violations = {}

        def trip(name: str, bad: np.ndarray) -> None:
            idx = np.flatnonzero(bad)
            if idx.size:
                violations[name] = idx[:max_ids]

        for name in self.FIELDS["node"]:
            trip(f"nonfinite:{name}", ~np.isfinite(getattr(self, name)))
        owned = (np.ones(self.mesh.ncell, dtype=bool)
                 if cell_mask is None else cell_mask)
        for name in self.FIELDS["cell"]:
            if name != "mat":       # an index, never NaN
                trip(f"nonfinite:{name}",
                     owned & ~np.isfinite(getattr(self, name)))
        trip("nonpositive:volume", owned & (self.volume <= 0.0))
        trip("nonpositive:rho", owned & (self.rho <= 0.0))
        trip("nonpositive:cell_mass", owned & (self.cell_mass <= 0.0))
        if e_mask is not None:
            owned = owned & e_mask
        trip("negative:e", owned & (self.e < 0.0))
        return violations

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def kinetic_energy(self) -> float:
        """Total kinetic energy ``Σ ½ m_n |u_n|²`` on the nodal masses."""
        mass = self.node_mass()
        return float(0.5 * np.sum(mass * (self.u ** 2 + self.v ** 2)))

    def internal_energy(self) -> float:
        """Total internal energy ``Σ m_c e_c``."""
        return float(np.sum(self.cell_mass * self.e))

    def total_energy(self) -> float:
        return self.kinetic_energy() + self.internal_energy()

    def total_mass(self) -> float:
        return float(self.cell_mass.sum())

    def momentum(self) -> np.ndarray:
        """Total momentum vector on the nodal masses."""
        mass = self.node_mass()
        return np.array([np.sum(mass * self.u), np.sum(mass * self.v)])

    @staticmethod
    def _volumes(mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
                 time: Optional[float] = None):
        """``(volume, corner_volume)`` in the state's (ncell, 4) layout,
        gathered without ``mesh.plans``: building a state (for a run
        that may never step, such as a zero-step run) should not pin
        the step's index plans."""
        corners = np.ascontiguousarray(mesh.cell_nodes.T)
        volume, cvol = geometry.volumes(x[corners], y[corners], time=time)
        return volume, np.ascontiguousarray(cvol.T)

    def refresh_geometry(self, time: Optional[float] = None) -> None:
        """Recompute volume caches from the current coordinates."""
        self.volume, self.corner_volume = self._volumes(
            self.mesh, self.x, self.y, time=time)

    def copy(self) -> "HydroState":
        """Deep copy of all evolving arrays (mesh topology is shared)."""
        return HydroState(
            mesh=self.mesh,
            bc=BoundaryConditions(self.bc.flags.copy(),
                                  self.bc.ux.copy(), self.bc.uy.copy(),
                                  driver=self.bc.driver),
            **{name: getattr(self, name).copy()
               for name in self.field_names()},
        )

    # ------------------------------------------------------------------
    # the state outside the step loop: snapshots, cache entries, payloads
    # ------------------------------------------------------------------
    def _planes(self) -> Iterator[Tuple[str, np.ndarray]]:
        """``(stored name, live array)`` of every field and bc plane."""
        for name in self.field_names():
            yield name, getattr(self, name)
        for name in _BC_PLANES:
            yield f"bc_{name}", getattr(self.bc, name)

    def arrays(self) -> Dict[str, np.ndarray]:
        """Every array that defines this state, as a flat dict."""
        return {name: np.ascontiguousarray(arr)
                for name, arr in self._planes()}

    def overlay(self, arrays: Dict[str, np.ndarray]) -> "HydroState":
        """Write stored :meth:`arrays` back in place and drop the
        node-mass cache.  The mesh, the boundary driver and whatever
        captured this state stay the freshly built ones.  Nothing is
        written unless every member is there with its plane's shape
        and dtype."""
        planes = list(self._planes())
        _check_stored(arrays, {name: (live.shape, live.dtype)
                               for name, live in planes})
        for name, live in planes:
            live[...] = arrays[name]
        self.invalidate_node_mass()
        return self
