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
full performance treatment: the mesh's :class:`~repro.perf.plans.MeshPlans`
supply the limiter's static neighbour-node indices (hoisted out of the
per-step path), and a :class:`~repro.perf.workspace.Workspace` supplies
every temporary, making repeat calls allocation-free.  A standalone
call without a workspace runs the same body on fresh allocations.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..mesh.topology import QuadMesh
from ..perf.plans import roll_next, roll_prev, spread_corners
from ..perf.workspace import Workspace, scratch

#: velocity-jump magnitude below which an edge is treated as rigid
DU_CUT = 1.0e-30


def christiansen_limiter(mesh: QuadMesh, u: np.ndarray, v: np.ndarray,
                         dux: np.ndarray, duy: np.ndarray,
                         dumag_sq: np.ndarray,
                         ws: Optional[Workspace] = None) -> np.ndarray:
    """Limiter ψ in [0, 1]: 1 in smooth flow (no viscosity), 0 at shocks.

    ψ = max(0, min(½(r_b + r_f), 2 r_b, 2 r_f, 1)) with r the ratios of
    the continuation jumps projected onto this edge's jump.  Edges whose
    continuation is missing (mesh boundary) take ψ = 0, keeping full
    viscosity where shocks meet walls.

    The continuation-edge node indices depend only on connectivity and
    come precomputed from ``mesh.plans``.  The returned ψ is a borrowed
    buffer; the caller releases it.
    """
    ws = scratch(ws)
    plans = mesh.plans
    n_b1, n_b0 = plans.lim_n_b1, plans.lim_n_b0
    n_f1, n_f0 = plans.lim_n_f1, plans.lim_n_f0
    off = plans.lim_off
    shape = dux.shape
    t = ws.borrow(shape)
    bx = ws.borrow(shape)                    # backward continuation jump
    np.take(u, n_b1, out=bx, mode="clip")
    np.take(u, n_b0, out=t, mode="clip")
    bx -= t
    by = ws.borrow(shape)
    np.take(v, n_b1, out=by, mode="clip")
    np.take(v, n_b0, out=t, mode="clip")
    by -= t
    fx = ws.borrow(shape)                    # forward continuation jump
    np.take(u, n_f1, out=fx, mode="clip")
    np.take(u, n_f0, out=t, mode="clip")
    fx -= t
    fy = ws.borrow(shape)
    np.take(v, n_f1, out=fy, mode="clip")
    np.take(v, n_f0, out=t, mode="clip")
    fy -= t

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


def bulk_q(cx: np.ndarray, cy: np.ndarray,
           u: np.ndarray, v: np.ndarray, cell_nodes: np.ndarray,
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
    ncell = cx.shape[0]
    dvdx = ws.borrow(cx.shape)
    dvdy = ws.borrow(cx.shape)
    t4 = ws.borrow(cx.shape)
    roll_next(cy, out=dvdx)
    roll_prev(cy, out=t4)
    dvdx -= t4
    dvdx *= 0.5
    roll_prev(cx, out=dvdy)
    roll_next(cx, out=t4)
    dvdy -= t4
    dvdy *= 0.5
    cu = ws.borrow(cx.shape)
    cv = ws.borrow(cx.shape)
    np.take(u, cell_nodes, out=cu, mode="clip")
    np.take(v, cell_nodes, out=cv, mode="clip")
    div_u = ws.borrow(ncell)
    t = ws.borrow(ncell)
    np.einsum("ck,ck->c", dvdx, cu, out=div_u)
    np.einsum("ck,ck->c", dvdy, cv, out=t)
    div_u += t
    div_u /= volume
    ws.release(cu, cv)
    compressing = ws.borrow(ncell, dtype=bool)
    np.less(div_u, 0.0, out=compressing)
    ex = dvdx                                # reuse for edge vectors
    ey = dvdy
    roll_next(cx, out=ex)
    ex -= cx
    roll_next(cy, out=ey)
    ey -= cy
    ex *= ex
    ey *= ey
    ex += ey
    longest = t
    np.max(ex, axis=1, out=longest)
    np.sqrt(longest, out=longest)
    du = ws.borrow(ncell)
    np.divide(volume, longest, out=du)
    np.abs(div_u, out=div_u)
    du *= div_u
    if out is None:
        out = np.empty(ncell)
    # q = cq2 ρ du² + cq1 ρ c_s du, only where compressing — each
    # term associated left to right, as ``repro.ensemble.kernels`` does.
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
    np.copyto(out, 0.0, where=~compressing)
    ws.release(dvdx, dvdy, t4, div_u, t, du, compressing)
    return out


def getq(mesh: QuadMesh, cx: np.ndarray, cy: np.ndarray,
         u: np.ndarray, v: np.ndarray,
         rho: np.ndarray, cs2: np.ndarray, gamma: np.ndarray,
         cq1: float, cq2: float, use_limiter: bool = True,
         ws: Optional[Workspace] = None
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The viscosity kernel.

    Parameters are the gathered corner coordinates ``cx, cy`` (ncell, 4),
    nodal velocities, cell density/sound-speed² and the per-cell
    effective γ for the quadratic coefficient.

    Returns ``(fqx, fqy, q_cell)``: viscous corner forces (ncell, 4) and
    the cell-averaged viscous pressure used by the timestep control and
    diagnostics.  The corner forces are borrowed buffers — the caller
    releases them once ``getforce`` has consumed them; ``q_cell`` is the
    arena buffer ``getq.qcell``, overwritten by the next call.
    """
    ws = scratch(ws)
    ncell = mesh.ncell
    shape = (ncell, 4)
    cu = ws.borrow(shape)
    cv = ws.borrow(shape)
    np.take(u, mesh.cell_nodes, out=cu, mode="clip")
    np.take(v, mesh.cell_nodes, out=cv, mode="clip")
    dux = ws.borrow(shape)                   # edge velocity jumps
    duy = ws.borrow(shape)
    roll_next(cu, out=dux)
    dux -= cu
    roll_next(cv, out=duy)
    duy -= cv
    ws.release(cu, cv)
    dxx = ws.borrow(shape)                   # edge vectors
    dxy = ws.borrow(shape)
    roll_next(cx, out=dxx)
    dxx -= cx
    roll_next(cy, out=dxy)
    dxy -= cy
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
        psi = christiansen_limiter(mesh, u, v, dux, duy, dumag_sq, ws=ws)
    else:
        psi = ws.borrow(shape)
        psi.fill(0.0)
    ws.release(dumag_sq)

    # q_edge = (1−ψ) ρ |Δu| (c₂' |Δu| + sqrt((c₂' |Δu|)² + (c₁ c_s)²)).
    cquad = ws.borrow(ncell)
    np.add(gamma, 1.0, out=cquad)
    cquad *= cq2
    cquad *= 0.25
    cs = ws.borrow(ncell)
    np.sqrt(cs2, out=cs)
    sp = ws.borrow(shape)                    # spread per-cell operands
    i1 = ws.borrow(shape)                    # c₂' |Δu|
    spread_corners(cquad, sp)
    np.multiply(dumag, sp, out=i1)
    i2 = ws.borrow(shape)
    np.multiply(i1, i1, out=i2)
    tq = ws.borrow(ncell)                    # (c₁ c_s)²
    np.multiply(cs, cq1, out=tq)
    tq *= tq
    spread_corners(tq, sp)
    i2 += sp
    np.sqrt(i2, out=i2)
    i2 += i1
    q_edge = ws.borrow(shape)
    np.subtract(1.0, psi, out=q_edge)
    spread_corners(rho, sp)
    q_edge *= sp
    q_edge *= dumag
    q_edge *= i2
    np.logical_not(active, out=tb)
    np.copyto(q_edge, 0.0, where=tb)
    ws.release(psi, cquad, cs, i1, i2, tq, active, tb)

    # Median arm: centroid to edge midpoint.
    gx = ws.borrow(ncell)
    gy = ws.borrow(ncell)
    np.mean(cx, axis=1, out=gx)
    np.mean(cy, axis=1, out=gy)
    mx = ws.borrow(shape)
    my = ws.borrow(shape)
    roll_next(cx, out=mx)
    mx += cx
    mx *= 0.5
    roll_next(cy, out=my)
    my += cy
    my *= 0.5
    spread_corners(gx, sp)
    mx -= sp
    spread_corners(gy, sp)
    my -= sp
    arm = ws.borrow(shape)
    np.hypot(mx, my, out=arm)
    ws.release(gx, gy, mx, my, sp)

    # Unit jump direction (guarded); force ±q L û on the edge's nodes.
    # Associated as ((q·L)·Δu)·inv — what ``repro.ensemble.kernels``
    # is bit-compared against.
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
    # to k+1), node k+1 gets −f.
    fqx = ws.borrow(shape)
    roll_prev(fx_edge, out=fqx)
    np.subtract(fx_edge, fqx, out=fqx)
    fqy = ws.borrow(shape)
    roll_prev(fy_edge, out=fqy)
    np.subtract(fy_edge, fqy, out=fqy)
    ws.release(fx_edge, fy_edge)

    q_cell = ws.array("getq.qcell", ncell)
    np.sum(q_edge, axis=1, out=q_cell)
    q_cell *= 0.25
    ws.release(q_edge)
    return fqx, fqy, q_cell
