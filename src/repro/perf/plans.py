"""Precomputed per-mesh index plans for the hot kernels.

Everything in here is a function of the mesh *topology* only, so it is
computed once per mesh and reused every step:

* **Rolled-corner columns** — for (ncell, 4) corner arrays,
  ``np.roll(a, -1, axis=1)`` is exactly ``a[:, [1, 2, 3, 0]]``;
  :func:`roll_next`/:func:`roll_prev` express the roll as four strided
  column copies (``out=`` given) or one fancy-index gather (no
  ``out=``) — bit-for-bit identical to ``np.roll`` and measurably
  faster than it (``np.roll`` builds its result from two wrapped
  block copies plus the intermediate index arithmetic).

* **Scatter** — the corner→node sum (``scatter_to_nodes``) is the
  structural scatter of the whole code.  On a canonically numbered
  structured grid it collapses to four shifted-window adds, performed
  in ``np.bincount``'s own accumulation order; every other mesh uses
  ``np.bincount`` itself.  Either way the result is bit-for-bit the
  ``bincount`` sum, so every execution path (serial, decomposed,
  ensemble lane) agrees to the last bit on every mesh.

* **Limiter indices** — the Christiansen limiter's neighbour-edge node
  lookups (four index arrays plus the boundary mask) depend only on
  connectivity; the plan hoists them out of ``getq``.

:class:`MeshPlans` treats the mesh duck-typed (anything exposing
``cell_nodes``, ``cell_neighbours``, ``neighbour_side``,
``nnode``, ``ncell`` works), so this module has
no imports from the rest of the package and can be used from any
layer without cycles.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: column order of ``np.roll(a, -1, axis=1)`` for 4-corner arrays
ROLL_NEXT_COLS = np.array([1, 2, 3, 0], dtype=np.intp)
#: column order of ``np.roll(a, 1, axis=1)``
ROLL_PREV_COLS = np.array([3, 0, 1, 2], dtype=np.intp)


def roll_next(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.roll(a, -1, axis=1)`` for (n, 4) arrays, with ``out=`` support.

    ``out`` must not alias ``a``.
    """
    if out is None:
        return a[:, ROLL_NEXT_COLS]
    out[:, 0] = a[:, 1]
    out[:, 1] = a[:, 2]
    out[:, 2] = a[:, 3]
    out[:, 3] = a[:, 0]
    return out


def roll_prev(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``np.roll(a, 1, axis=1)`` for (n, 4) arrays, with ``out=`` support.

    ``out`` must not alias ``a``.
    """
    if out is None:
        return a[:, ROLL_PREV_COLS]
    out[:, 0] = a[:, 3]
    out[:, 1] = a[:, 0]
    out[:, 2] = a[:, 1]
    out[:, 3] = a[:, 2]
    return out


def spread_corners(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Materialise a per-cell value into all 4 corner columns of ``out``.

    Equivalent to ``out[:] = values[:, None]`` but via strided column
    copies: a ufunc whose operand broadcasts with zero stride *and* has
    an ``out=`` makes numpy fall back to its buffered iterator, which
    mallocs (and fills) a hidden full-size temporary on every call —
    exactly the allocation the workspace exists to avoid.  Feeding the
    subsequent arithmetic a materialised operand keeps it on the
    unbuffered fast path.  Values are copied, not recomputed, so any
    expression using the spread operand is bit-identical to the
    broadcast form.
    """
    v = values.reshape(-1)
    out[:, 0] = v
    out[:, 1] = v
    out[:, 2] = v
    out[:, 3] = v
    return out


def limiter_indices(mesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
    """Static node indices of the Christiansen continuation jumps.

    Returns ``(n_b1, n_b0, n_f1, n_f0, off)``, each (ncell, 4): the
    node pairs of the backward/forward continuation edges of every
    in-cell edge, and the boolean mask of edges whose continuation is
    missing (mesh boundary; the limiter forces ψ = 0 there).
    """
    nb = mesh.cell_neighbours
    ns = mesh.neighbour_side
    cn = mesh.cell_nodes

    lcell = roll_prev(nb)                   # neighbour across side k-1
    lside = roll_prev(ns)
    rcell = roll_next(nb)                   # neighbour across side k+1
    rside = roll_next(ns)
    has_b = lcell >= 0
    has_f = rcell >= 0
    lc = np.where(has_b, lcell, 0)
    ls = np.where(has_b, lside, 0)
    rc = np.where(has_f, rcell, 0)
    rs = np.where(has_f, rside, 0)

    n_b1 = cn[lc, ls]                        # node at our corner k
    n_b0 = cn[lc, (ls + 3) % 4]
    n_f1 = cn[rc, (rs + 2) % 4]
    n_f0 = cn[rc, (rs + 1) % 4]              # node at our corner k+1
    off = ~(has_b & has_f)
    return n_b1, n_b0, n_f1, n_f0, off


class MeshPlans:
    """All connectivity-derived index structures, built once per mesh.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.topology.QuadMesh` (or anything exposing
        the same connectivity attributes).
    """

    def __init__(self, mesh):
        self.mesh = mesh
        self.ncell = int(mesh.ncell)
        self.nnode = int(mesh.nnode)
        flat = np.ascontiguousarray(mesh.cell_nodes.reshape(-1))
        #: (ny, nx) when the mesh is a canonical structured grid
        self.grid_shape = self._detect_grid(flat)
        # Contiguous intp copies: ``np.take`` silently copies any other
        # index layout to a fresh contiguous buffer on every call.
        (self.lim_n_b1, self.lim_n_b0, self.lim_n_f1, self.lim_n_f0,
         self.lim_off) = (
            np.ascontiguousarray(a, dtype=np.intp) if a.dtype != np.bool_
            else np.ascontiguousarray(a)
            for a in limiter_indices(mesh))

    def _detect_grid(self, flat_cell_nodes: np.ndarray):
        """Recognise the canonical rectilinear numbering, if present.

        Cell (i, j) of an nx×ny grid owns nodes ``[j(nx+1)+i, +1,
        +nx+2, +nx+1]`` (counter-clockwise).  On such meshes the
        corner→node scatter collapses to four shifted-window adds.
        """
        cn = flat_cell_nodes.reshape(self.ncell, 4)
        if self.ncell == 0 or cn[0, 0] != 0 or cn[0, 1] != 1:
            return None
        nx = int(cn[0, 3]) - 1
        if nx <= 0 or self.ncell % nx != 0:
            return None
        ny = self.ncell // nx
        if self.nnode != (nx + 1) * (ny + 1):
            return None
        c = np.arange(self.ncell)
        base = (c // nx) * (nx + 1) + c % nx
        guess = np.stack([base, base + 1, base + nx + 2, base + nx + 1],
                         axis=1)
        return (ny, nx) if np.array_equal(cn, guess) else None

    # ------------------------------------------------------------------
    def gather(self, nodal: np.ndarray,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """(ncell, 4) per-corner values of a nodal array."""
        if out is None:
            return nodal[self.mesh.cell_nodes]
        return np.take(nodal, self.mesh.cell_nodes, out=out, mode="clip")

    def scatter_to_nodes(self, corner_field: np.ndarray,
                         out: Optional[np.ndarray] = None) -> np.ndarray:
        """Sum an (ncell, 4) corner field onto nodes -> (nnode,).

        On a canonical structured grid the scatter is four shifted
        2-D window adds, performed in ascending-cell order per node —
        bit-for-bit identical to ``bincount``, with no intermediate
        index traffic at all.  Every other mesh goes through
        ``bincount`` itself.  Orphan (valence-0) nodes get 0.
        """
        if (self.grid_shape is not None
                and corner_field.flags.c_contiguous
                and (out is None or out.flags.c_contiguous)):
            ny, nx = self.grid_shape
            if out is None:
                out = np.empty(self.nnode)
            f = corner_field.reshape(ny, nx, 4)
            o = out.reshape(ny + 1, nx + 1)
            # A node's incident cells in ascending index order reach it
            # through corners 2, 3, 1, 0 — adding the planes in that
            # order reproduces bincount's accumulation exactly.
            o.fill(0.0)
            o[1:, 1:] += f[:, :, 2]
            o[1:, :-1] += f[:, :, 3]
            o[:-1, 1:] += f[:, :, 1]
            o[:-1, :-1] += f[:, :, 0]
            return out
        result = np.bincount(self.mesh.cell_nodes.reshape(-1),
                             weights=corner_field.reshape(-1),
                             minlength=self.nnode)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def scatter_to_nodes_batched(self, corner_field: np.ndarray,
                                 out: Optional[np.ndarray] = None
                                 ) -> np.ndarray:
        """Sum a (B, ncell, 4) corner field onto nodes -> (B, nnode).

        The ensemble scatter: one shared plan serves every lane.  On a
        canonical grid the four shifted window adds run with a leading
        batch axis — each lane's accumulation order is exactly the
        single-lane grid path's, hence bit-identical to ``bincount``
        per lane.  Off-grid meshes fall back to a per-lane ``bincount``
        loop (bit-identical by construction, just not batched).
        """
        b = corner_field.shape[0]
        if out is None:
            out = np.empty((b, self.nnode))
        if (self.grid_shape is not None
                and corner_field.flags.c_contiguous
                and out.flags.c_contiguous):
            ny, nx = self.grid_shape
            f = corner_field.reshape(b, ny, nx, 4)
            o = out.reshape(b, ny + 1, nx + 1)
            o.fill(0.0)
            o[:, 1:, 1:] += f[:, :, :, 2]
            o[:, 1:, :-1] += f[:, :, :, 3]
            o[:, :-1, 1:] += f[:, :, :, 1]
            o[:, :-1, :-1] += f[:, :, :, 0]
            return out
        flat_nodes = self.mesh.cell_nodes.reshape(-1)
        for i in range(b):
            out[i] = np.bincount(flat_nodes,
                                 weights=corner_field[i].reshape(-1),
                                 minlength=self.nnode)
        return out
