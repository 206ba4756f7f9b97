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
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.plans import corner_reduce
from ..perf.workspace import Workspace, scratch
from .geometry import (centroid, corner_dot, edge_diff, edge_mid,
                       volume_gradients)

#: velocity-jump magnitude below which an edge is treated as rigid
DU_CUT = 1.0e-30


def christiansen_limiter(mesh: QuadMesh,
                         dux: np.ndarray, duy: np.ndarray,
                         dumag_sq: np.ndarray,
                         ws: Optional[Workspace] = None) -> np.ndarray:
    """Limiter ψ in [0, 1]: 1 in smooth flow (no viscosity), 0 at shocks.

    ψ = max(0, min(½(r_b + r_f), 2 r_b, 2 r_f, 1)) with r the ratios of
    the continuation jumps projected onto this edge's jump.  Edges whose
    continuation is missing (mesh boundary) take ψ = 0, keeping full
    viscosity where shocks meet walls.

    A continuation jump is itself an edge jump of the neighbouring
    cell, so it is read out of ``dux``/``duy`` (corner-major, all cells)
    by one precomputed edge index from ``mesh.plans``.  The returned ψ
    is a borrowed buffer; the caller releases it.
    """
    ws = scratch(ws)
    back, fwd, off = mesh.plans.limiter_edges
    shape = dux.shape
    # backward / forward continuation jumps
    bx = np.take(dux, back, out=ws.borrow(shape), mode="clip")
    by = np.take(duy, back, out=ws.borrow(shape), mode="clip")
    fx = np.take(dux, fwd, out=ws.borrow(shape), mode="clip")
    fy = np.take(duy, fwd, out=ws.borrow(shape), mode="clip")

    t = ws.borrow(shape)
    denom = ws.borrow(shape)
    np.maximum(dumag_sq, DU_CUT * DU_CUT, out=denom)
    rb = bx                                  # reuse: projected ratios
    np.multiply(bx, dux, out=rb)
    np.multiply(by, duy, out=t)
    rb += t
    rb /= denom
    rf = fx
    np.multiply(fx, dux, out=rf)
    np.multiply(fy, duy, out=t)
    rf += t
    rf /= denom

    psi = ws.borrow(shape)                   # released by the caller
    np.add(rb, rf, out=psi)                  # ½(r_b + r_f)
    psi *= 0.5
    np.multiply(rb, 2.0, out=rb)
    np.multiply(rf, 2.0, out=rf)
    np.minimum(rb, rf, out=t)
    np.minimum(psi, t, out=psi)
    np.minimum(psi, 1.0, out=psi)
    np.clip(psi, 0.0, 1.0, out=psi)
    np.copyto(psi, 0.0, where=off)
    ws.release(t, bx, by, fx, fy, denom)
    return psi


def bulk_q(mesh: QuadMesh, cx: np.ndarray, cy: np.ndarray,
           u: np.ndarray, v: np.ndarray,
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
    """
    ws = scratch(ws)
    ncell = cx.shape[1]
    dvdx, dvdy = volume_gradients(
        cx, cy, out=(ws.borrow(cx.shape), ws.borrow(cx.shape)))
    cu = mesh.plans.gather(u, out=ws.borrow(cx.shape))
    cv = mesh.plans.gather(v, out=ws.borrow(cx.shape))
    div_u = corner_dot(dvdx, cu, ws.borrow(ncell), ws)
    t = corner_dot(dvdy, cv, ws.borrow(ncell), ws)
    div_u += t
    div_u /= volume
    ws.release(cu, cv)
    compressing = ws.borrow(ncell, dtype=bool)
    np.less(div_u, 0.0, out=compressing)
    ex = edge_diff(cx, dvdx)                 # reuse for edge vectors
    ey = edge_diff(cy, dvdy)
    ex *= ex
    ey *= ey
    ex += ey
    longest = corner_reduce(np.maximum, ex.T, out=t)
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
    np.copyto(out, 0.0, where=compressing)
    ws.release(dvdx, dvdy, div_u, t, du, compressing)
    return out


def getq(mesh: QuadMesh, cx: np.ndarray, cy: np.ndarray,
         u: np.ndarray, v: np.ndarray,
         rho: np.ndarray, cs2: np.ndarray, gamma: np.ndarray,
         cq1: float, cq2: float, use_limiter: bool = True,
         ws: Optional[Workspace] = None
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The viscosity kernel.

    Parameters are the gathered corner coordinates ``cx, cy`` (4, ncell),
    nodal velocities, cell density/sound-speed² and the per-cell
    effective γ for the quadratic coefficient.

    Returns ``(fqx, fqy, q_cell)``: viscous corner forces (4, ncell) and
    the cell-averaged viscous pressure used by the timestep control and
    diagnostics.  The corner forces are borrowed buffers — the caller
    releases them once ``getforce`` has consumed them; ``q_cell`` is the
    arena buffer ``getq.qcell``, overwritten by the next call.
    """
    ws = scratch(ws)
    ncell = mesh.ncell
    shape = (4, ncell)
    plans = mesh.plans
    cu = plans.gather(u, out=ws.borrow(shape))
    cv = plans.gather(v, out=ws.borrow(shape))
    dux = edge_diff(cu, ws.borrow(shape))    # edge velocity jumps
    duy = edge_diff(cv, ws.borrow(shape))
    ws.release(cu, cv)
    dxx = edge_diff(cx, ws.borrow(shape))    # edge vectors
    dxy = edge_diff(cy, ws.borrow(shape))
    t = ws.borrow(shape)
    dumag_sq = ws.borrow(shape)
    np.multiply(dux, dux, out=dumag_sq)
    np.multiply(duy, duy, out=t)
    dumag_sq += t
    dumag = ws.borrow(shape)
    np.sqrt(dumag_sq, out=dumag)
    # Compression test Δu·Δx < 0, and the rigid-edge cut.
    np.multiply(dux, dxx, out=t)
    np.multiply(duy, dxy, out=dxx)           # dxx consumed; reuse
    t += dxx
    active = ws.borrow(shape, dtype=bool)
    tb = ws.borrow(shape, dtype=bool)
    np.less(t, 0.0, out=active)
    np.greater(dumag, DU_CUT, out=tb)
    active &= tb
    ws.release(dxx, dxy, t)

    if use_limiter:
        psi = christiansen_limiter(mesh, dux, duy, dumag_sq, ws=ws)
    else:
        psi = ws.borrow(shape)
        psi.fill(0.0)
    ws.release(dumag_sq)

    # q_edge = (1−ψ) ρ |Δu| (c₂' |Δu| + sqrt((c₂' |Δu|)² + (c₁ c_s)²)),
    # the per-cell coefficients broadcasting along the corner rows.
    cquad = ws.borrow(ncell)
    np.add(gamma, 1.0, out=cquad)
    cquad *= cq2
    cquad *= 0.25
    i1 = ws.borrow(shape)                    # c₂' |Δu|
    np.multiply(dumag, cquad, out=i1)
    i2 = ws.borrow(shape)
    np.multiply(i1, i1, out=i2)
    tq = ws.borrow(ncell)                    # (c₁ c_s)²
    np.sqrt(cs2, out=tq)
    tq *= cq1
    tq *= tq
    i2 += tq
    np.sqrt(i2, out=i2)
    i2 += i1
    q_edge = ws.borrow(shape)
    np.subtract(1.0, psi, out=q_edge)
    q_edge *= rho
    q_edge *= dumag
    q_edge *= i2
    np.logical_not(active, out=tb)
    np.copyto(q_edge, 0.0, where=tb)
    ws.release(psi, cquad, i1, i2, tq, active, tb)

    # Median arm: centroid to edge midpoint.
    gx = centroid(cx, ws.borrow(ncell))
    gy = centroid(cy, ws.borrow(ncell))
    mx = edge_mid(cx, ws.borrow(shape))
    my = edge_mid(cy, ws.borrow(shape))
    mx -= gx
    my -= gy
    arm = ws.borrow(shape)
    np.hypot(mx, my, out=arm)
    ws.release(gx, gy, mx, my)

    # Unit jump direction (guarded); force ±q L û on the edge's nodes.
    # Associated as ((q·L)·Δu)·inv (every run digest depends on it).
    inv = ws.borrow(shape)
    np.maximum(dumag, DU_CUT, out=inv)
    np.divide(1.0, inv, out=inv)
    qarm = arm                               # reuse: q L
    np.multiply(q_edge, arm, out=qarm)
    fx_edge = ws.borrow(shape)
    np.multiply(qarm, dux, out=fx_edge)
    fx_edge *= inv
    fy_edge = ws.borrow(shape)
    np.multiply(qarm, duy, out=fy_edge)
    fy_edge *= inv
    ws.release(qarm, inv, dux, duy, dumag)
    # node k gets +f (pushed along Δu, i.e. decelerating node k relative
    # to k+1), node k+1 gets −f: corner k nets f[k] − f[k−1].
    fqx = ws.borrow(shape)
    fqy = ws.borrow(shape)
    for f_edge, fq in ((fx_edge, fqx), (fy_edge, fqy)):
        np.subtract(f_edge[1:], f_edge[:-1], out=fq[1:])
        np.subtract(f_edge[0], f_edge[3], out=fq[0])
    ws.release(fx_edge, fy_edge)

    q_cell = ws.array("getq.qcell", ncell)
    corner_reduce(np.add, q_edge.T, out=q_cell)
    q_cell *= 0.25
    ws.release(q_edge)
    return fqx, fqy, q_cell
