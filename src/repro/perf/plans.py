"""Precomputed per-mesh index plans for the hot kernels.

Everything in here is a function of the mesh *topology* only, so it is
computed once per mesh and reused every step:

* **Corner-major connectivity** — inside the Lagrangian step every
  corner array is ``(4, ncell)``, one contiguous row per corner (see
  :mod:`repro.core.geometry`); ``corner_nodes`` is the connectivity the
  gathers index with.  Outside the step corner arrays stay
  ``(ncell, 4)`` and the two meet through ``.T`` views.

* **Corner reductions** — :func:`corner_reduce` reduces the length-4
  corner axis as three whole-array passes in numpy's own association;
  a length-4 inner axis is numpy's worst case (9-23x a contiguous pass).

* **Scatter** — the corner→node sum (``scatter_to_nodes``) is the
  structural scatter of the whole code.  On a canonically numbered
  structured grid it collapses to four shifted-window adds, performed
  in ``np.bincount``'s own accumulation order; every other mesh uses
  ``np.bincount`` itself.  Either way the result is bit-for-bit the
  ``bincount`` sum, so a serial run and an ensemble lane agree to the
  last bit on every mesh.  A decomposed run agrees only to round-off
  (up to |Δu| 5e-14 on Sod 64² × 50 steps): a shared node's sum is
  completed from per-rank partials in another association.

* **Limiter indices** — the Christiansen limiter's continuation-edge
  lookups depend only on connectivity; the plan hoists them out of
  ``getq`` as edge indices (the node-index form is kept as their
  test reference), each built on first use, and ``edge_index``, the
  arange the viscosity compresses its active-edge set out of.

:class:`MeshPlans` treats the mesh duck-typed (anything exposing
``cell_nodes``, ``cell_neighbours``, ``neighbour_side``,
``nnode``, ``ncell`` works), so this module has
no imports from the rest of the package and can be used from any
layer without import cycles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

#: column order of ``np.roll(a, -1, axis=1)`` / ``np.roll(a, 1, axis=1)``
_NEXT = [1, 2, 3, 0]
_PREV = [3, 0, 1, 2]


def corner_reduce(op, a: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """``op.reduce(a, axis=-1)`` over a length-4 corner axis.

    ``((a0 ∘ a1) ∘ a2) ∘ a3`` is the chain numpy's own 4-element reduce
    evaluates, so sums, maxima and minima are bit-identical to
    ``a.sum(axis=-1)`` etc. — as three passes over whole corner slices
    instead of a length-4 inner loop per cell.  ``a`` is corner-last;
    a corner-major ``(4, ncell)`` array goes in as its ``.T`` view.
    """
    out = op(a[..., 0], a[..., 1], out=out)
    op(out, a[..., 2], out=out)
    op(out, a[..., 3], out=out)
    return out


def _take_ready(arrays):
    """Contiguous intp (or bool) copies: ``np.take`` silently copies any
    other index layout to a fresh contiguous buffer on every call."""
    return tuple(
        np.ascontiguousarray(a, dtype=None if a.dtype == np.bool_
                             else np.intp) for a in arrays)


class MeshPlans:
    """All connectivity-derived index structures, built once per mesh.

    Holds the mesh's connectivity arrays, not the mesh: ``mesh.plans``
    must not form a reference cycle that keeps dropped meshes alive
    until a gc pass.  Every structure is built on first use.

    Parameters
    ----------
    mesh:
        A :class:`~repro.mesh.topology.QuadMesh` (or anything exposing
        the same connectivity attributes).
    """

    def __init__(self, mesh):
        self.ncell = int(mesh.ncell)
        self.nnode = int(mesh.nnode)
        self.cell_nodes = mesh.cell_nodes
        self._neighbours = mesh.cell_neighbours
        self._sides = mesh.neighbour_side

    @cached_property
    def corner_nodes(self) -> np.ndarray:
        """(4, ncell) connectivity: row k is every cell's corner-k node."""
        return _take_ready([self.cell_nodes.T])[0]

    @cached_property
    def _continuations(self):
        """Cells and sides continuing every in-cell edge ``k`` backward
        (across side k−1) and forward (across side k+1), 0 where
        missing, plus the mask of edges lacking either (mesh boundary;
        the limiter forces ψ = 0 there).  Each (ncell, 4)."""
        nb, ns = self._neighbours, self._sides
        lcell, rcell = nb[:, _PREV], nb[:, _NEXT]
        has_b, has_f = lcell >= 0, rcell >= 0
        return (np.where(has_b, lcell, 0), np.where(has_b, ns[:, _PREV], 0),
                np.where(has_f, rcell, 0), np.where(has_f, ns[:, _NEXT], 0),
                ~(has_b & has_f))

    @cached_property
    def limiter_nodes(self):
        """Node indices of the Christiansen continuation jumps (the
        reference the tests hold :attr:`limiter_edges` to):
        ``(n_b1, n_b0, n_f1, n_f0, off)``,
        each (ncell, 4) — the node pairs of the backward/forward
        continuation edges of every in-cell edge, and the mask of edges
        whose continuation is missing."""
        lc, ls, rc, rs, off = self._continuations
        cn = self.cell_nodes
        return _take_ready((cn[lc, ls],              # our corner k
                            cn[lc, (ls + 3) % 4],
                            cn[rc, (rs + 2) % 4],
                            cn[rc, (rs + 1) % 4],    # our corner k+1
                            off))

    @cached_property
    def limiter_edges(self):
        """The same jumps as edges of the neighbouring cells (what
        ``getq`` reads): ``u[n_b1] − u[n_b0]`` *is* edge ``ls − 1``
        of cell ``lc`` (the forward one edge ``rs + 1`` of ``rc``), a
        value the viscosity has already computed.  ``(back, fwd, off)``,
        each (4, ncell): flat indices into a corner-major edge array,
        and the missing-continuation mask."""
        lc, ls, rc, rs, off = self._continuations
        back = ((ls + 3) % 4) * self.ncell + lc
        fwd = ((rs + 1) % 4) * self.ncell + rc
        return _take_ready((back.T, fwd.T, off.T))

    @cached_property
    def edge_index(self) -> np.ndarray:
        """``arange(4·ncell)``: the flat index of every corner-major edge,
        what ``getq`` compresses its active-edge set out of."""
        return np.arange(4 * self.ncell, dtype=np.intp)

    @cached_property
    def grid_shape(self):
        """(ny, nx) when the mesh has the canonical rectilinear
        numbering, else None.

        Cell (i, j) of an nx×ny grid owns nodes ``[j(nx+1)+i, +1,
        +nx+2, +nx+1]`` (counter-clockwise).  On such meshes the
        corner→node scatter collapses to four shifted-window adds.
        """
        cn = self.cell_nodes
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
        """Corner-major (4, ncell) per-corner values of a nodal array."""
        return np.take(nodal, self.corner_nodes, out=out, mode="clip")

    def scatter_to_nodes(self, corner_field: np.ndarray,
                         out: Optional[np.ndarray] = None,
                         pad: Optional[np.ndarray] = None) -> np.ndarray:
        """Sum an (ncell, 4) corner field onto nodes -> (nnode,).

        On a canonical structured grid the scatter is four shifted
        window adds, performed in ascending-cell order per node —
        bit-for-bit identical to ``bincount``, with no intermediate
        index traffic at all.  Every other mesh goes through
        ``bincount`` itself.  Orphan (valence-0) nodes get 0.

        Any strides do: the ``.T`` view of a corner-major array scatters
        its four rows as the four planes.  ``pad``: nnode-sized scratch.
        """
        if (self.grid_shape is not None
                and (out is None or out.flags.c_contiguous)):
            ny, nx = self.grid_shape
            pitch = nx + 1
            if out is None:
                out = np.empty(self.nnode)
            if pad is None:
                pad = np.empty(self.nnode)
            # A window add on the (ny+1, nx+1) node grid is a strided
            # 2-D ufunc (64 KB iterator buffers, extra passes); widened
            # to the node pitch by a zero column, each plane adds as one
            # contiguous 1-D run at an offset.  The zeros land on nodes
            # the plane does not touch; the sums never hold -0.0.
            wide = pad[:ny * pitch].reshape(ny, pitch)
            wide[:, nx] = 0.0
            out.fill(0.0)
            # A node's incident cells in ascending index order reach it
            # through corners 2, 3, 1, 0 — adding the planes in that
            # order reproduces bincount's accumulation exactly.
            for k, offset in ((2, pitch + 1), (3, pitch), (1, 1), (0, 0)):
                wide[:, :nx] = corner_field[:, k].reshape(ny, nx)
                n = min(ny * pitch, self.nnode - offset)
                target = out[offset:offset + n]
                target += pad[:n]
            return out
        result = np.bincount(self.cell_nodes.reshape(-1),
                             weights=corner_field.reshape(-1),
                             minlength=self.nnode)
        if out is None:
            return result
        np.copyto(out, result)
        return out

    def owned_node_sum(self, corner_field: np.ndarray,
                       owned: Optional[np.ndarray], w) -> np.ndarray:
        """:meth:`scatter_to_nodes` over the ``owned`` cells only
        (``None``: all of them) — a decomposed rank's partial sum.
        The result and every temporary are borrowed from workspace
        ``w``; the caller releases the result."""
        out, pad = w.borrow(self.nnode), w.borrow(self.nnode)
        if owned is None:
            self.scatter_to_nodes(corner_field, out=out, pad=pad)
        else:
            # Copy everything, then zero the ghost strip: a masked
            # copy costs several times the plain one.
            masked = w.borrow((self.ncell, 4))
            np.copyto(masked, corner_field)
            masked[np.flatnonzero(~owned)] = 0.0
            self.scatter_to_nodes(masked, out=out, pad=pad)
            w.release(masked)
        w.release(pad)
        return out
