"""Per-step corner quantities — one bundle feeds ``getdt`` and ``lagstep``.

Both halves of the Lagrangian step evaluate their forces at the
start-of-step velocities uⁿ, and ``getdt`` reads the same xⁿ and uⁿ
just before them.  Computed where each kernel needs it, a step gathered
uⁿ four times (``getdt``, ``getq`` twice, the predictor's ``getein``),
xⁿ twice, built ∇V and the edge vectors at xⁿ twice each, and the
corrector's ``getq`` redid the predictor's velocity jumps on identical
inputs.  A :class:`StepCorners` is created at the top of each step and
holds the corner-major (4, ncell) quantities at (xⁿ, uⁿ):

=============  ====================================  ==================
name           value                                 made from
=============  ====================================  ==================
``positions``  ``(cx, cy)``, the gathered xⁿ         nodal x, y
``velocities`` ``(cu, cv)``, the gathered uⁿ         nodal u, v
``edges``      edge vectors ``x[k+1] − x[k]``        positions
``grad_v``     volume gradients ``∇V``               positions
``centroids``  per-cell vertex centroids             positions
``jumps``      edge velocity jumps ``Δu``            velocities
``jump_sq``    ``|Δu|²``                             jumps
``jump``       ``|Δu|``                              jump_sq
``rigid``      ``|Δu| > DU_CUT`` (bool)              jump
=============  ====================================  ==================

Each is computed by its first reader, so its cost lands in that
reader's timer region: ``getdt`` for the positions, velocities, edge
vectors and ∇V (on a step without ``getdt`` — the first — ``lagstep``
fills those four while the kinematic halo is in flight), ``getq`` for
the rest.
Readers read the attributes; the reader that ends a quantity's life
:meth:`take`\\ s it and may overwrite it (``getq`` turns ``edges`` into
its compression test and ``jumps`` into its edge forces, ``getforce``
turns ``grad_v`` into the pressure forces).  A taken quantity asked for
again is computed again — only ``jumps`` ever is: the corrector's
``getq`` rebuilds them from the held ``velocities`` (one edge
difference) rather than the bundle holding two more planes through the
predictor's ``getforce`` and ``getgeom``, which would raise the step's
arena peak.  Blocks come from the arena and go back after their last
use; :meth:`close` returns whatever is left.

The corrector evaluates its forces at the half-step geometry with the
same uⁿ: :meth:`moved` gives a view at that geometry (its positions and
centroids are the half-step ``getgeom``'s) that shares this bundle's
velocity quantities.

**Distributed runs.**  ``getdt`` fills the bundle before the kinematic
halo exchange, so the cells with a ghost node hold stale columns.
:meth:`refresh` recomputes, on that stale strip only, every quantity
already materialised.  Every column is a function of its own cell's
four nodes, so this is bitwise equal to filling after the halo.

**Nothing is carried across steps.**  The one saving carrying would add
is the re-gather of xⁿ⁺¹; its price would be invalidating the bundle on
every remap, lane refill, restart and observer that touches the state.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.workspace import Workspace, scratch
from .geometry import centroid, edge_diff, gather, volume_gradients

#: velocity-jump magnitude below which an edge is treated as rigid
DU_CUT = 1.0e-30


def _edges(positions, out, ws):
    edge_diff(positions[0], out[0])
    edge_diff(positions[1], out[1])


def _grad_v(positions, out, ws):
    volume_gradients(positions[0], positions[1], out=out)


def _centroids(positions, out, ws):
    centroid(positions[0], out[0])
    centroid(positions[1], out[1])


def _jump_sq(jumps, out, ws):
    dux, duy = jumps
    np.multiply(dux, dux, out=out)
    t = ws.borrow(duy.shape)
    np.multiply(duy, duy, out=t)
    out += t
    ws.release(t)


def _jump(jump_sq, out, ws):
    np.sqrt(jump_sq, out=out)


def _rigid(jump, out, ws):
    np.greater(jump, DU_CUT, out=out)


#: name -> (source quantity, or the nodal pair gathered; number of
#: arrays — a pair is held as a tuple, one as the array itself; per
#: cell rather than per corner; dtype; fill(source, out, ws)), in
#: dependency order
SPECS = {
    "positions": ("xy", 2, False, np.float64, None),
    "velocities": ("uv", 2, False, np.float64, None),
    "edges": ("positions", 2, False, np.float64, _edges),
    "grad_v": ("positions", 2, False, np.float64, _grad_v),
    "centroids": ("positions", 2, True, np.float64, _centroids),
    "jumps": ("velocities", 2, False, np.float64, _edges),
    "jump_sq": ("jumps", 1, False, np.float64, _jump_sq),
    "jump": ("jump_sq", 1, False, np.float64, _jump),
    "rigid": ("jump", 1, False, np.bool_, _rigid),
}

#: the quantities a :meth:`StepCorners.moved` view shares with its bundle
VELOCITY = ("velocities", "jumps", "jump_sq", "jump", "rigid")
#: the quantities a view holds itself
GEOMETRY = tuple(name for name in SPECS if name not in VELOCITY)


def _planes(value) -> Tuple[np.ndarray, ...]:
    """A held quantity as its tuple of arrays."""
    return value if type(value) is tuple else (value,)


class _Quantity:
    """Attribute access to one quantity, computed on first read.

    The read stores the value in the bundle's ``__dict__``; the
    descriptor has no ``__set__``, so from then on that instance
    attribute answers every read without calling anything (the
    ``functools.cached_property`` idiom), until :meth:`~StepCorners.take`
    or :meth:`~StepCorners.release` deletes it.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, bundle, owner=None):
        if bundle is None:
            return self
        return bundle._get(self.name)


class StepCorners:
    """The corner quantities of one step at (xⁿ, uⁿ); see the module
    docstring.  ``x, y, u, v`` are the nodal arrays (referenced, not
    copied); every block is borrowed from ``ws``."""

    positions = _Quantity()
    velocities = _Quantity()
    edges = _Quantity()
    grad_v = _Quantity()
    centroids = _Quantity()
    jumps = _Quantity()
    jump_sq = _Quantity()
    jump = _Quantity()
    rigid = _Quantity()

    def __init__(self, mesh: QuadMesh, x: np.ndarray, y: np.ndarray,
                 u: np.ndarray, v: np.ndarray,
                 ws: Optional[Workspace] = None):
        self.mesh = mesh
        self.ws = scratch(ws)
        self._nodal = {"xy": (x, y), "uv": (u, v)}
        #: on a :meth:`moved` view, the bundle holding its velocity
        #: quantities
        self._shared = None
        #: quantities handed in by the caller, never released here
        self._given = ()
        self._views = []

    @classmethod
    def of(cls, state, ws: Optional[Workspace] = None) -> "StepCorners":
        """The bundle at ``state``'s current positions and velocities."""
        return cls(state.mesh, state.x, state.y, state.u, state.v, ws)

    def moved(self, cx: np.ndarray, cy: np.ndarray,
              centroids: Tuple[np.ndarray, np.ndarray]) -> "StepCorners":
        """A view at the corner positions ``(cx, cy)`` with their cell
        ``centroids`` — both stay the caller's — that shares this
        bundle's velocity quantities; :meth:`close` closes it too."""
        view = StepCorners(self.mesh, None, None, *self._nodal["uv"],
                           self.ws)
        view._shared = self
        view.positions = (cx, cy)
        view.centroids = centroids
        view._given = ("positions", "centroids")
        self._views.append(view)
        return view

    # ------------------------------------------------------------------
    def _get(self, name: str):
        """The first read of quantity ``name``: compute and hold it (a
        view's velocity quantities are read from its bundle)."""
        if self._shared is not None and name in VELOCITY:
            return getattr(self._shared, name)
        source, count, per_cell, dtype, fill = SPECS[name]
        inputs = None if fill is None else getattr(self, source)
        ncell = self.mesh.ncell
        shape = ncell if per_cell else (4, ncell)
        value = self.ws.borrow(shape, dtype)
        if count == 2:
            value = (value, self.ws.borrow(shape, dtype))
        if fill is None:
            gather(self.mesh, *self._nodal[source], out=value)
        else:
            fill(inputs, value, self.ws)
        self.__dict__[name] = value
        return value

    def fill(self, *names: str) -> None:
        """Compute the named quantities now, if no reader has yet."""
        for name in names:
            getattr(self, name)

    def take(self, name: str):
        """Hand quantity ``name`` over to the caller, who may overwrite
        it and releases it to the arena; the bundle forgets it."""
        if self._shared is not None and name in VELOCITY:
            return self._shared.take(name)
        value = getattr(self, name)
        del self.__dict__[name]
        return value

    def release(self, *names: str) -> None:
        """Return the named quantities to the arena if they are held."""
        for name in names:
            if self._shared is not None and name in VELOCITY:
                self._shared.release(name)
                continue
            value = self.__dict__.pop(name, None)
            if value is not None and name not in self._given:
                self.ws.release(*_planes(value))

    def close(self) -> None:
        """Return every quantity still held — this bundle's and its
        views' — to the arena."""
        for view in self._views:
            view.close()
        self._views = []
        self.release(*(GEOMETRY if self._shared is not None else SPECS))

    # ------------------------------------------------------------------
    def refresh(self, cells: np.ndarray, cell_nodes: np.ndarray) -> None:
        """Recompute every materialised quantity on the columns of
        ``cells`` (with corner nodes ``cell_nodes``, (k, 4)) — the stale
        strip ``complete_kinematics`` returns; a no-op when it is
        empty."""
        if not len(cells):
            return
        columns = {}

        def at(name):
            if name not in columns:
                source, count, per_cell, dtype, fill = SPECS[name]
                if fill is None:
                    columns[name] = tuple(a[cell_nodes].T
                                          for a in self._nodal[source])
                else:
                    shape = len(cells) if per_cell else (4, len(cells))
                    out = np.empty(shape, dtype)
                    if count == 2:
                        out = (out, np.empty(shape, dtype))
                    fill(at(source), out, scratch(None))
                    columns[name] = out
            return columns[name]

        for name in SPECS:
            value = self.__dict__.get(name)
            if value is not None:
                for a, fresh in zip(_planes(value), _planes(at(name))):
                    a[..., cells] = fresh
