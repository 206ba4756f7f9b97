"""Edge-centred artificial viscosity — BookLeaf's ``getq`` kernel.

Follows Caramana, Shashkov & Whalen (JCP 144, 1998), the form the paper
cites: for every in-cell edge ``k`` (joining corners ``k`` and ``k+1``)
with velocity jump ``Δu`` the edge viscous pressure is

    q_k = (1 − ψ_k) ρ |Δu| ( c₂ (γ+1)/4 |Δu| + sqrt( (c₂ (γ+1)/4)² |Δu|²
                                                     + c₁² c_s² ) )

applied only where the edge is in compression (``Δu·Δx < 0``).  The
limiter ψ is Christiansen's: the velocity jump is compared with the
continuation jumps on the logically-parallel edges of the two
neighbouring cells (upstream and downstream of the edge), switching the
viscosity off in uniformly-compressing smooth flow and keeping it fully
on at shocks.  The neighbour lookups are why BookLeaf must halo-exchange
immediately before this kernel (paper Section IV-A).

The edge force on the two nodes is ``± q_k L_k û`` with ``û = Δu/|Δu|``
and ``L_k`` the median-mesh arm (centroid to edge midpoint), which
yields the correct face area for shocks aligned with either mesh
direction.  The pair of equal-and-opposite forces conserves momentum
exactly and — through the compatible energy update — converts kinetic
energy into heat at the rate ``q L |Δu| ≥ 0``.

This is the hottest kernel of the mini-app (Table II), so it takes the
full performance treatment: corner arrays are corner-major — (4, ncell),
see :mod:`repro.core.geometry` — so edge jumps are row differences and
per-cell coefficients broadcast along rows; the mesh's
:class:`~repro.perf.plans.MeshPlans` supply the limiter's static
continuation-edge indices (hoisted out of the per-step path), and a
:class:`~repro.perf.workspace.Workspace` supplies every temporary,
making repeat calls allocation-free.  A standalone call without a
workspace runs the same body on fresh allocations.

**Corner quantities.**  The kernel gathers nothing: the positions,
the velocity jumps Δu, |Δu|, |Δu|², the rigid-edge mask, the edge
vectors and the centroids come from the step's
:class:`~repro.core.corners.StepCorners`.  Both halves of the step
evaluate ``getq`` at uⁿ, so the corrector's call reuses |Δu| and the
rigid-edge mask of the predictor's; it rebuilds only Δu and |Δu|²,
which the predictor's call consumes.

**Active edges.**  Only the cheap part of the kernel is dense: the
velocity jumps, |Δu| and the compression test.  Away
from shocks few edges compress (6.7% on average over a 50-step Sod
128², never above 10%), so the limiter, ``q``, the median arm and the
edge forces run once, over the :class:`EdgeSet` ``E`` of active edges
only — flat indices into the (4, ncell) edge arrays, with per-cell
coefficients read at ``E % ncell`` — and the results are scattered into
dense bases.  An inactive edge's dense result is exact zero: ``+0`` for
``q``, and for the forces ``Δu · 0.0``, i.e. ``copysign(0, Δu)``, the
signed zero the dense chain ``((0·L)·Δu)·inv`` produces (``L`` and
``inv`` are non-negative), so ``fq`` and ``q_cell`` — from the
unchanged dense differences and :func:`~repro.perf.plans.corner_reduce`
— are bit-identical to evaluating every edge.  Gathering and
scattering cost more per edge than the arithmetic they skip, so once
more than :data:`SUBSET_MAX_FRACTION` of the edges are active (a Noh
implosion compresses nearly all of them) ``E`` is the whole edge array
and nothing is gathered at all; :func:`uses_subset` is the choice.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.plans import corner_reduce
from ..perf.workspace import Workspace, scratch
from .corners import DU_CUT, StepCorners
from .geometry import corner_dot, edge_mid, longest_edge_sq

#: active-edge fraction up to which ``getq`` works on the compressed
#: subset; above it the whole edge array is cheaper.  The measured
#: crossover (docs/PERFORMANCE.md, "Active-edge viscosity") is 1/3 at
#: 32² and 0.4 from 128² up; a third also fits three subset values in
#: one arena block.
SUBSET_MAX_FRACTION = 1.0 / 3.0

#: edges per ``np.compress`` call.  ``compress(..., out=)`` still
#: allocates 16 bytes per selected edge (its ``nonzero`` indices and a
#: raise-mode copy of the output), so the active set is compressed in
#: chunks: at most 256 KiB per call, whatever |E| is (32 KiB on a warm
#: Sod 128² step, 10% active).  The size is measured
#: (docs/PERFORMANCE.md, "Active-edge viscosity"): each chunk costs a
#: ``count_nonzero`` and a ``compress`` call, and 2048-edge chunks made
#: building the set twice as slow at 128² and 256².
COMPRESS_CHUNK = 16384


def uses_subset(nactive: int, nedge: int) -> bool:
    """Whether ``getq`` works on the ``nactive`` active edges alone
    (True) or on all ``nedge`` edges of the mesh (False)."""
    return nactive <= SUBSET_MAX_FRACTION * nedge


class EdgeSet:
    """The edges ``getq`` does its per-edge work on: every edge of the
    (4, ncell) arrays, or the flat indices ``E`` of the active ones.

    The kernel body is written once against this set.  On the whole
    array every accessor hands back the dense array itself, per-cell
    values broadcast along the corner rows and nothing is gathered or
    scattered.  On a subset, a value on the set is a length-``|E|``
    view into a full-size (``4·ncell``) arena block, placed at a
    multiple of the largest subset size, so a block holds the same
    number of values whatever ``|E|`` a step has and the arena never
    grows with it; values are recycled within the call and the blocks
    go back in :meth:`close`.

    ``active`` (borrowed from ``ws``; owned by the set from here on) is
    the mask of active edges, ``None`` for every edge with nothing to
    mask.
    """

    def __init__(self, ws, plans, active: Optional[np.ndarray] = None,
                 shape: Optional[Tuple[int, int]] = None):
        self.ws = ws
        self.shape = active.shape if active is not None else shape
        self.nedge = math.prod(self.shape)
        self.active = active
        #: |E| on a subset, None on the whole array
        self.n = self.flat = self.cells = None
        self._held = {}                      # id(view) -> slot
        self._free, self._blocks, self._room = [], [], 0
        if active is None:
            return
        n = int(np.count_nonzero(active))
        if not uses_subset(n, self.nedge):
            return
        self.n = n
        self._stride = max(1, int(SUBSET_MAX_FRACTION * self.nedge))
        self.flat = self.borrow(np.intp)
        mask, index, done = active.reshape(-1), plans.edge_index, 0
        for start in range(0, self.nedge, COMPRESS_CHUNK):
            chunk = slice(start, start + COMPRESS_CHUNK)
            count = int(np.count_nonzero(mask[chunk]))
            index[chunk].compress(mask[chunk],
                                  out=self.flat[done:done + count])
            done += count
        ws.release(active)
        self.active = None
        self.cells = self.borrow(np.intp)
        np.remainder(self.flat, self.shape[1], out=self.cells)

    # -- buffers -------------------------------------------------------
    def borrow(self, dtype=np.float64) -> np.ndarray:
        """Scratch for one value on the set; release with :meth:`release`."""
        if self.n is None:
            return self.ws.borrow(self.shape, dtype)
        n = self.n
        if self._free:
            slot = self._free.pop()
        else:
            if self._room < self._stride:
                self._blocks.append(self.ws.borrow(self.nedge))
                self._room = self.nedge
            start = self.nedge - self._room
            slot = self._blocks[-1][start:start + n]
            self._room -= self._stride
        view = slot if dtype is np.float64 else slot.view(dtype)[:n]
        self._held[id(view)] = slot
        return view

    def release(self, *values: np.ndarray) -> None:
        """Give back values from :meth:`borrow` and :meth:`view`."""
        if self.n is None:
            self.ws.release(*values)
            return
        for value in values:
            self._free.append(self._held.pop(id(value)))

    def release_edges(self, *values: np.ndarray) -> None:
        """Give back values from :meth:`edges`: views into the set's
        blocks on a subset, the caller's own arrays (kept) on the whole
        array."""
        if self.n is not None:
            self.release(*values)

    def close(self) -> None:
        """Return the subset's blocks and the active mask to the arena."""
        self.ws.release(*self._blocks)
        if self.active is not None:
            self.ws.release(self.active)

    # -- reading values on the set -------------------------------------
    def edges(self, a: np.ndarray) -> np.ndarray:
        """Edge array ``a`` on the set (``a`` itself on the whole array)."""
        if self.n is None:
            return a
        return a.take(self.flat, out=self.borrow(a.dtype.type), mode="clip")

    def view(self, base: np.ndarray) -> np.ndarray:
        """Scratch on the set that :meth:`spread` puts into ``base``
        (``base`` itself on the whole array, which :meth:`spread` keeps)."""
        return base if self.n is None else self.borrow()

    def cellwise(self, op, a: np.ndarray, per_cell: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
        """``op(a, c)`` with ``c`` the per-cell array ``per_cell`` read
        at each edge's cell."""
        if self.n is None:
            return op(a, per_cell, out=out)
        c = per_cell.take(self.cells, out=self.borrow(), mode="clip")
        op(a, c, out=out)
        self.release(c)
        return out

    def edge_mid(self, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Edge midpoints ``½(a[k+1] + a[k])`` of the corner-major
        array ``a`` on the set."""
        if self.n is None:
            return edge_mid(a, out)
        # corner k+1 of edge e = k·ncell + c is e + ncell, wrapped
        nxt = self.borrow(np.intp)
        np.add(self.flat, self.shape[1], out=nxt)
        a.take(nxt, out=out, mode="wrap")
        ak = a.take(self.flat, out=self.borrow(), mode="clip")
        out += ak
        out *= 0.5
        self.release(nxt, ak)
        return out

    # -- back to dense -------------------------------------------------
    def mask(self, x: np.ndarray) -> None:
        """Zero ``x`` on the inactive edges of the set (there are none
        in a subset).  Consumes the active mask: call once."""
        if self.active is not None:
            np.logical_not(self.active, out=self.active)
            x[self.active] = 0.0

    def spread(self, x: np.ndarray, base: np.ndarray,
               signed: bool) -> np.ndarray:
        """The dense (4, ncell) array that is ``x`` on the set and zero
        elsewhere, made in ``base`` — ``x`` must be :meth:`view` or
        :meth:`edges` of ``base``.  The zero is ``+0``, or with
        ``signed`` the signed zero ``base · 0.0`` of ``base``'s own
        values.  ``x`` is released."""
        if self.n is not None:
            if signed:
                base *= 0.0
            else:
                base.fill(0.0)
            base.put(self.flat, x, mode="clip")
            self.release(x)
        return base


def christiansen_limiter(mesh: QuadMesh,
                         dux: np.ndarray, duy: np.ndarray,
                         dumag_sq: np.ndarray,
                         ws: Optional[Workspace] = None,
                         edges: Optional[EdgeSet] = None) -> np.ndarray:
    """Limiter ψ in [0, 1]: 1 in smooth flow (no viscosity), 0 at shocks.

    ψ = max(0, min(½(r_b + r_f), 2 r_b, 2 r_f, 1)) with r the ratios of
    the continuation jumps projected onto this edge's jump.  Edges whose
    continuation is missing (mesh boundary) take ψ = 0, keeping full
    viscosity where shocks meet walls.

    A continuation jump is itself an edge jump of the neighbouring
    cell, so it is read out of ``dux``/``duy`` (corner-major, all cells)
    by one precomputed edge index from ``mesh.plans``.  ψ is evaluated
    on the edge set ``edges`` (default: every edge); the returned ψ is
    borrowed from the set, and the caller releases it there.  No input
    is written, and the ratios are formed one after the other, so at
    most nine values on the set are live at once.
    """
    es = edges if edges is not None else EdgeSet(
        scratch(ws), mesh.plans, shape=dux.shape)
    back, fwd, off = mesh.plans.limiter_edges
    sq = es.edges(dumag_sq)
    denom = es.borrow()
    np.maximum(sq, DU_CUT * DU_CUT, out=denom)
    es.release_edges(sq)
    ex, ey = es.edges(dux), es.edges(duy)
    ratios = []
    for continuation in (back, fwd):
        # (c · Δu) / |Δu|² with c the backward, then forward, jump
        at = es.edges(continuation)
        r = dux.take(at, out=es.borrow(), mode="clip")
        t = duy.take(at, out=es.borrow(), mode="clip")
        es.release_edges(at)
        r *= ex
        t *= ey
        r += t
        r /= denom
        es.release(t)
        ratios.append(r)
    es.release(denom)
    es.release_edges(ex, ey)
    rb, rf = ratios

    psi = es.borrow()                        # released by the caller
    np.add(rb, rf, out=psi)                  # ½(r_b + r_f)
    psi *= 0.5
    rb *= 2.0
    rf *= 2.0
    np.minimum(rb, rf, out=rb)
    np.minimum(psi, rb, out=psi)
    psi.clip(0.0, 1.0, out=psi)
    edge_off = es.edges(off)
    psi[edge_off] = 0.0
    es.release(rb, rf)
    es.release_edges(edge_off)
    return psi


def bulk_q(mesh: QuadMesh, corners: StepCorners,
           rho: np.ndarray, cs2: np.ndarray, volume: np.ndarray,
           cq1: float, cq2: float,
           ws: Optional[Workspace] = None,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cell-centred von Neumann–Richtmyer (bulk) viscosity.

    The classical alternative to the edge form:

        q = cq2 ρ (Δ div u)² + cq1 ρ c_s |Δ div u|,   div u < 0 only,

    with Δ = V / longest-side — the shortest cell dimension, the
    distance over which a compression wave actually crosses the cell
    (a geometric-mean sqrt(V) badly over-drives high-aspect cells).
    A scalar cell pressure — it simply augments p in the corner
    forces, so it cannot damp hourglass or shear modes (why BookLeaf's
    reference uses the edge form); provided as a design-choice option
    and used by the viscosity-form ablation tests.

    Reads ∇V and the corner velocities of ``corners`` (a
    :class:`~repro.core.corners.StepCorners`) and takes its edge
    vectors.
    """
    ws = scratch(ws)
    ncell = mesh.ncell
    dvdx, dvdy = corners.grad_v
    cu, cv = corners.velocities
    div_u = corner_dot(dvdx, cu, ws.borrow(ncell), ws)
    t = corner_dot(dvdy, cv, ws.borrow(ncell), ws)
    div_u += t
    div_u /= volume
    compressing = ws.borrow(ncell, dtype=bool)
    np.less(div_u, 0.0, out=compressing)
    ex, ey = corners.take("edges")
    longest = longest_edge_sq(ex, ey, out=t, ws=ws)
    ws.release(ex, ey)
    np.sqrt(longest, out=longest)
    du = ws.borrow(ncell)
    np.divide(volume, longest, out=du)
    np.abs(div_u, out=div_u)
    du *= div_u
    if out is None:
        out = np.empty(ncell)
    # q = cq2 ρ du² + cq1 ρ c_s du, only where compressing — each
    # term associated left to right (every run digest depends on it).
    np.multiply(rho, cq2, out=out)
    out *= du
    out *= du
    lin = t
    np.multiply(rho, cq1, out=lin)
    cs = div_u                               # reuse: |div u| is consumed
    np.sqrt(cs2, out=cs)
    lin *= cs
    lin *= du
    out += lin
    np.logical_not(compressing, out=compressing)
    out[compressing] = 0.0
    ws.release(div_u, t, du, compressing)
    return out


def getq(mesh: QuadMesh, corners: StepCorners,
         rho: np.ndarray, cs2: np.ndarray, gamma: np.ndarray,
         cq1: float, cq2: float, use_limiter: bool = True,
         ws: Optional[Workspace] = None
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The viscosity kernel.

    Parameters are the step's corner quantities ``corners`` (a
    :class:`~repro.core.corners.StepCorners`, or its half-step view),
    cell density/sound-speed² and the per-cell effective γ for the
    quadratic coefficient.  It reads the positions, centroids, |Δu| and
    the rigid-edge mask, and takes the edge vectors (for the compression
    test), |Δu|² (dead after the limiter) and the velocity jumps (they
    become the edge forces).

    Returns ``(fqx, fqy, q_cell)``: viscous corner forces (4, ncell) and
    the cell-averaged viscous pressure used by the timestep control and
    diagnostics.  The corner forces are borrowed buffers — the caller
    releases them once ``getforce`` has consumed them; ``q_cell`` is the
    arena buffer ``getq.qcell``, overwritten by the next call.
    """
    ws = scratch(ws)
    ncell = mesh.ncell
    shape = (4, ncell)
    dumag = corners.jump
    dumag_sq = corners.take("jump_sq")
    dux, duy = corners.take("jumps")         # the forces overwrite Δu
    # Compression test Δu·Δx < 0, and the rigid-edge cut.
    dxx, dxy = corners.take("edges")
    np.multiply(dux, dxx, out=dxx)
    np.multiply(duy, dxy, out=dxy)
    dxx += dxy
    active = ws.borrow(shape, dtype=bool)
    np.less(dxx, 0.0, out=active)
    active &= corners.rigid
    ws.release(dxx, dxy)

    # Everything below runs once per edge of E (the active edges, or
    # every edge), reading per-edge values through the set.
    es = EdgeSet(ws, mesh.plans, active)
    if use_limiter:
        psi = christiansen_limiter(mesh, dux, duy, dumag_sq, edges=es)
    else:
        psi = es.borrow()
        psi.fill(0.0)
    ws.release(dumag_sq)
    dumag_e = es.edges(dumag)

    # q_edge = (1−ψ) ρ |Δu| (c₂' |Δu| + sqrt((c₂' |Δu|)² + (c₁ c_s)²)),
    # the per-cell coefficients read at each edge's cell.
    cquad = ws.borrow(ncell)
    np.add(gamma, 1.0, out=cquad)
    cquad *= cq2
    cquad *= 0.25
    tq = ws.borrow(ncell)                    # (c₁ c_s)²
    np.sqrt(cs2, out=tq)
    tq *= cq1
    tq *= tq
    i1 = es.borrow()                         # c₂' |Δu|
    es.cellwise(np.multiply, dumag_e, cquad, out=i1)
    i2 = es.borrow()
    np.multiply(i1, i1, out=i2)
    es.cellwise(np.add, i2, tq, out=i2)
    np.sqrt(i2, out=i2)
    i2 += i1
    q_edge = ws.borrow(shape)
    q = es.view(q_edge)
    np.subtract(1.0, psi, out=q)
    es.cellwise(np.multiply, q, rho, out=q)
    q *= dumag_e
    q *= i2
    es.mask(q)
    es.release(psi, i1, i2)
    ws.release(cquad, tq)

    # Median arm: centroid to edge midpoint.
    cx, cy = corners.positions
    gx, gy = corners.centroids
    mx = es.edge_mid(cx, es.borrow())
    my = es.edge_mid(cy, es.borrow())
    es.cellwise(np.subtract, mx, gx, out=mx)
    es.cellwise(np.subtract, my, gy, out=my)
    arm = es.borrow()
    np.hypot(mx, my, out=arm)
    es.release(mx, my)

    # Unit jump direction (guarded); force ±q L û on the edge's nodes.
    # Associated as ((q·L)·Δu)·inv (every run digest depends on it).
    inv = es.borrow()
    np.maximum(dumag_e, DU_CUT, out=inv)
    np.divide(1.0, inv, out=inv)
    qarm = arm                               # reuse: q L
    np.multiply(q, arm, out=qarm)
    q_edge = es.spread(q, q_edge, signed=False)
    q_cell = ws.array("getq.qcell", ncell)
    corner_reduce(np.add, q_edge.T, out=q_cell)
    q_cell *= 0.25
    ws.release(q_edge)
    fx = es.edges(dux)                       # the forces overwrite Δu
    np.multiply(qarm, fx, out=fx)
    fx *= inv
    fy = es.edges(duy)
    np.multiply(qarm, fy, out=fy)
    fy *= inv
    fx_edge = es.spread(fx, dux, signed=True)
    fy_edge = es.spread(fy, duy, signed=True)
    es.release(qarm, inv)
    es.release_edges(dumag_e)
    es.close()
    # node k gets +f (pushed along Δu, i.e. decelerating node k relative
    # to k+1), node k+1 gets −f: corner k nets f[k] − f[k−1].
    fqx = ws.borrow(shape)
    fqy = ws.borrow(shape)
    for f_edge, fq in ((fx_edge, fqx), (fy_edge, fqy)):
        np.subtract(f_edge[1:], f_edge[:-1], out=fq[1:])
        np.subtract(f_edge[0], f_edge[3], out=fq[0])
    ws.release(fx_edge, fy_edge)
    return fqx, fqy, q_cell
