"""The Lagrangian step — predictor/corrector orchestration.

Implements Algorithm 1 of the paper exactly, with each kernel wrapped
in the timer region whose name appears in Table II:

    Predictor:  getq, getforce, getgeom (half step), getrho, getein, getpc
    Corrector:  getq, getforce, getacc, getgeom (full step), getrho,
                getein, getpc

The predictor advances the *thermodynamic* state to the half step using
the start-of-step velocities (first-order); the corrector re-evaluates
the forces there, accelerates the nodes, and advances everything over
the full step with time-centred quantities (second-order overall).

Communications (ghost kinematics before the viscosity, nodal-sum
completion inside the acceleration) go through the ``comms`` seam, each
written once as *post → the work that needs no halo → complete*, so
this very function body runs unchanged in serial and distributed mode
and under either exchange schedule (:mod:`repro.core.comms`).

Both halves evaluate their forces at the start-of-step velocities uⁿ,
and ``getdt`` reads xⁿ and uⁿ just before the step: the corner
quantities at (xⁿ, uⁿ) — gathered positions and velocities, edge
vectors, ∇V, velocity jumps, |Δu| — live in one per-step
:class:`~repro.core.corners.StepCorners` the caller creates with
``getdt`` and passes in, and every kernel of the step reads them from
there (the corrector through a view at the half-step geometry); the
step closes it.

Every kernel temporary, half-step field and returned array comes from
the :class:`~repro.perf.workspace.Workspace` the caller threads through
(``Hydro`` owns one per run), so after the first step the loop
allocates nothing mesh-sized.  Corner arrays are corner-major inside
the step (:mod:`repro.core.geometry`); the state's own keep (ncell, 4)
and are read through ``.T`` views.  Results are *committed* into the
long-lived state arrays by copy (the arena never leaks into the state,
and the state arrays keep their identity across steps — holders of a
reference see the new values, so anything that needs the old ones must
copy).  A standalone call without a workspace runs the same body on
fresh allocations.

This is also the step of an ensemble: N same-topology runs are one
more unstructured mesh, the disjoint union of N copies, and each
lane's own step size and viscosity coefficients enter as per-node /
per-cell vectors — the kernels multiply by whatever they are given
(:mod:`repro.ensemble`).
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from ..eos.multimaterial import MaterialTable
from ..perf.workspace import Workspace, scratch
from ..utils.timers import TimerRegistry
from . import energy as energy_mod
from . import geometry, viscosity
from .acceleration import getacc
from .comms import SerialComms
from .controls import HydroControls
from .corners import StepCorners
from .density import getrho
from .force import getforce
from .state import HydroState
from .timestep import DT_QUANTITIES


def _corner_forces(state, corners, rho, cs2, p, volume, corner_volume,
                   gamma, controls, timers, w, spent=()):
    """``getq`` then ``getforce`` at the geometry and velocities of
    ``corners`` and the given thermodynamics.

    The edge viscosity contributes corner forces; the bulk form augments
    the cell pressure instead and contributes none, so ``getforce`` skips
    the add.  The ``spent`` quantities of ``corners`` — read by nothing
    after this ``getq`` — go back to the arena before ``getforce``.
    Commits the cell viscous pressure to ``state.q`` and returns the
    assembled ``(fx, fy)`` — borrowed, released by the caller.
    """
    mesh = state.mesh
    fqx = fqy = None
    with timers.region("getq"):
        if controls.viscosity_form == "bulk":
            q_cell = viscosity.bulk_q(
                mesh, corners, rho, cs2, volume, controls.cq1, controls.cq2,
                ws=w, out=w.array("lag.bulkq", mesh.ncell),
            )
            p = np.add(p, q_cell, out=w.array("lag.peff", mesh.ncell))
        else:
            fqx, fqy, q_cell = viscosity.getq(
                mesh, corners, rho, cs2, gamma,
                controls.cq1, controls.cq2, controls.use_limiter, ws=w,
            )
        state.q[...] = q_cell
    corners.release(*spent)
    with timers.region("getforce"):
        fx, fy = getforce(
            mesh, corners, p, rho, cs2, fqx, fqy,
            state.corner_mass.T, corner_volume, volume, controls, ws=w,
        )
    if fqx is not None:
        w.release(fqx, fqy)
    return fx, fy


def lagstep(state: HydroState, table: MaterialTable,
            controls: HydroControls,
            dt: Union[float, Tuple[np.ndarray, np.ndarray]],
            timers: TimerRegistry, gamma: np.ndarray,
            comms=None, time: Optional[float] = None,
            ws: Optional[Workspace] = None,
            corners: Optional[StepCorners] = None) -> None:
    """Advance ``state`` in place by one Lagrangian step of size ``dt``.

    ``dt`` is one step size, or a ``(per-node, per-cell)`` pair of
    vectors when the components of a disjoint-union mesh each take
    their own; ``controls.cq1``/``cq2`` may likewise be per-cell.
    ``corners`` is the step's :class:`~repro.core.corners.StepCorners`
    at the state's current positions and velocities (``getdt`` may
    have filled part of it); one is made when it is not given.  It is
    closed before the return.
    """
    comms = comms if comms is not None else SerialComms()
    mesh = state.mesh
    ncell, nnode = mesh.ncell, mesh.nnode
    shape = (4, ncell)
    dt_node, dt_cell = dt if isinstance(dt, tuple) else (dt, dt)
    half_node, half_cell = 0.5 * dt_node, 0.5 * dt_cell
    mask = comms.owned_cell_mask(state)
    w = scratch(ws)
    corners = corners if corners is not None else StepCorners.of(state, w)

    # ------------------------------------------------------------------
    # predictor: evolve thermodynamics to the half step with u^n
    # ------------------------------------------------------------------
    with timers.region("exchange"):
        comms.post_kinematics(state)
    # The corner quantities getdt reads (already there on every step
    # that ran it, so each step holds the same set through the
    # predictor) are filled whole and contiguous while the kinematic
    # halo is in flight: every cell without a ghost node comes out
    # final, and once the ghost values have landed only the stale strip
    # (O(√ncell) cells; none serially) is recomputed.  Per-cell columns,
    # last write wins — bit-identical to filling after the halo.
    corners.fill(*DT_QUANTITIES)
    with timers.region("exchange"):
        stale = comms.complete_kinematics(state)
    corners.refresh(*stale)
    fx, fy = _corner_forces(
        state, corners, state.rho, state.cs2, state.p, state.volume,
        state.corner_volume.T, gamma, controls, timers, w,
    )
    corners.release("centroids")

    # One set of geometry buffers serves all three geometries of the
    # step: the start-of-step corners die with the predictor forces and
    # the half-step geometry with the corrector forces.
    cx, cy = corners.take("positions")
    geom = (cx, cy, w.borrow(ncell), w.borrow(shape))
    centroids = (w.borrow(ncell), w.borrow(ncell))
    with timers.region("getgeom"):
        x_h = w.array("lag.xh", nnode)
        y_h = w.array("lag.yh", nnode)
        np.multiply(state.u, half_node, out=x_h)
        x_h += state.x
        np.multiply(state.v, half_node, out=y_h)
        y_h += state.y
        cx_h, cy_h, vol_h, cvol_h = geometry.getgeom(
            mesh, x_h, y_h, time=time, check_mask=mask, ws=w, out=geom,
            centroids=centroids,
        )

    with timers.region("getrho"):
        rho_h = getrho(state.cell_mass, vol_h, controls.dencut,
                       out=w.array("lag.rhoh", ncell))
    with timers.region("getein"):
        e_h = energy_mod.getein(state, fx, fy, *corners.velocities,
                                half_cell, ws=w,
                                out=w.array("lag.eh", ncell))
    with timers.region("getpc"):
        p_h, cs2_h = table.getpc(
            state.mat, rho_h, e_h, ws=w,
            out=(w.array("lag.ph", ncell), w.array("lag.cs2h", ncell)),
        )

    # ------------------------------------------------------------------
    # corrector: forces at the half step (and still u^n), full-step
    # update
    # ------------------------------------------------------------------
    w.release(fx, fy)
    # Only the hourglass filter reads u^n after the corrector's getq.
    spent = ("jump", "rigid")
    if controls.filter_kappa == 0.0:
        spent += ("velocities",)
    fx, fy = _corner_forces(
        state, corners.moved(cx_h, cy_h, centroids), rho_h, cs2_h, p_h,
        vol_h, cvol_h, gamma, controls, timers, w, spent=spent,
    )
    corners.close()
    w.release(*centroids)

    with timers.region("getacc"):
        u_new, v_new, u_bar, v_bar = getacc(state, fx, fy, dt_node,
                                            comms=comms, ws=w)

    with timers.region("getgeom"):
        move = x_h                      # dead since the half-step gather
        np.multiply(u_bar, dt_node, out=move)
        state.x += move
        np.multiply(v_bar, dt_node, out=move)
        state.y += move
        _, _, vol, cvol = geometry.getgeom(
            mesh, state.x, state.y, time=time, check_mask=mask,
            ws=w, out=geom,
        )
        state.volume[...] = vol
        state.corner_volume[...] = cvol.T

    with timers.region("getrho"):
        getrho(state.cell_mass, state.volume, controls.dencut, out=state.rho)
    with timers.region("getein"):
        # out may alias state.e: the work term is fully accumulated
        # before the final elementwise subtraction.
        cu, cv = geometry.gather(mesh, u_bar, v_bar,
                                 out=(w.borrow(shape), w.borrow(shape)))
        energy_mod.getein(state, fx, fy, cu, cv, dt_cell, ws=w,
                          out=state.e)
        w.release(cu, cv)
    with timers.region("getpc"):
        table.getpc(state.mat, state.rho, state.e, ws=w,
                    out=(state.p, state.cs2))

    w.release(fx, fy, *geom)
    state.u[...] = u_new
    state.v[...] = v_new
