"""The batched Lagrangian step — predictor/corrector over all lanes.

A step-for-step mirror of :func:`repro.core.lagstep.lagstep`, with
every kernel call batched and per-lane dt entering as an ``(N, 1)``
column broadcast.  The serial reference the bit-identity gate compares
against is the serial backend's ``Hydro`` — the arena-backed ``core``
kernels — so each expression here must keep the serial association
within a lane — see the module docstring of
:mod:`repro.ensemble.kernels`.

Two shared caches thread through the step (both hold values the serial
kernels would recompute identically, so they cannot perturb a bit):

* ``vc`` — the velocity-edge cache.  Both viscosity passes, the
  predictor energy update and the caller's dt evaluation all read the
  committed ``u``/``v``, which only advance at step end.
* ``geom`` — the committed geometry's product cache, built by the
  *previous* step's corrector ``getgeom`` (coordinates haven't moved
  since) and handed in by the driver; the updated cache for this
  step's committed coordinates is returned for the same reuse.

Timer regions carry the serial names (``getq``/``getforce``/…) so a
per-lane :class:`RunResult` report has the familiar Table II rows; each
region now times all N lanes at once, which is the point.

This module is array-module generic like the kernels: no numpy import,
everything arrives through ``xp`` and the :class:`EnsembleContext`.
"""

from __future__ import annotations

from . import kernels


class EnsembleContext:
    """Shared, per-ensemble constant data the batched step consumes.

    Built once by the driver: connectivity and limiter index arrays,
    per-lane coefficient columns, the uniform control scalars, the
    batched EoS, the shared scatter plan and the shared workspace.
    """

    def __init__(self, *, xp, cell_nodes, lim, gamma, gamma_vec,
                 cq1_col, cq2_col, viscosity_form, use_limiter,
                 subzonal_kappa, filter_kappa, dencut,
                 bc, eos, scatter, ws):
        self.xp = xp
        self.cell_nodes = cell_nodes
        self.lim = lim
        #: raveled limiter index arrays for the sparse viscosity path
        self.lim_flat = tuple(a.reshape(-1) for a in lim)
        self.gamma = gamma              # (N, ncell) effective γ
        self.gamma_vec = gamma_vec      # (4,) hourglass mode pattern
        self.cq1_col = cq1_col          # (N, 1) per-lane viscosity coeffs
        self.cq2_col = cq2_col
        #: per-lane cq1 as a flat (N,) vector (sparse-path gather form)
        self.cq1_lane = cq1_col.reshape(-1)
        #: per-cell quadratic coefficient cq2·(γ+1)/4 — constant over a
        #: run (γ is material data), so hoisted out of every getq call;
        #: the association matches the serial per-call expression.
        self.cquad = cq2_col * (gamma + 1.0) * 0.25
        self.viscosity_form = viscosity_form
        self.use_limiter = use_limiter
        self.subzonal_kappa = subzonal_kappa
        self.filter_kappa = filter_kappa
        self.dencut = dencut
        self.bc = bc
        self.eos = eos
        self.scatter = scatter          # batched corner->node scatter
        self.ws = ws                    # shared Workspace arena

    def compact(self, keep) -> None:
        """Drop retired lanes from the per-lane batch-axis data."""
        self.gamma = self.gamma[keep]
        self.cq1_col = self.cq1_col[keep]
        self.cq2_col = self.cq2_col[keep]
        self.cq1_lane = self.cq1_lane[keep]
        self.cquad = self.cquad[keep]


def _viscosity(ctx, geom, vc, u, v, rho, cs2, p, volume):
    """Dispatch on the (uniform) viscosity form, batched.

    Mirrors ``core.lagstep._viscosity``: the edge form returns corner
    forces with p unchanged; the bulk form augments the cell pressure
    and returns no corner forces.
    """
    xp = ctx.xp
    if ctx.viscosity_form == "bulk":
        q_cell = kernels.bulk_q(
            xp, geom, vc, rho, cs2, volume, ctx.cq1_col, ctx.cq2_col,
        )
        return None, None, q_cell, p + q_cell
    fqx, fqy, q_cell = kernels.getq(
        xp, geom, vc, u, v, rho, cs2, ctx.cquad,
        ctx.cq1_col[:, :, None], ctx.cq1_lane,
        ctx.use_limiter, ctx.lim, ctx.lim_flat,
    )
    return fqx, fqy, q_cell, p


def lagstep_batch(es, ctx, dt_col, timers, time=None, vc=None,
                  geom=None):
    """Advance every lane of ``es`` in place by its own dt.

    ``dt_col`` is the (N, 1) per-lane timestep column; ``time`` (used
    only in tangle-error reporting) is a representative lane time.
    ``vc``/``geom`` are the step's velocity cache and the committed
    geometry's product cache (recomputed here when the driver has
    none).  Returns the product cache of the *newly* committed
    geometry for the next step.
    """
    xp = ctx.xp
    cell_nodes = ctx.cell_nodes
    half_col = 0.5 * dt_col
    ws = ctx.ws
    n, nnode = es.x.shape

    # ------------------------------------------------------------------
    # predictor: evolve thermodynamics to the half step with u^n
    # ------------------------------------------------------------------
    with timers.region("exchange"):
        pass                            # serial lanes: nothing to halo

    if vc is None:
        vc = kernels.velocity_edge_cache(xp, cell_nodes, es.u, es.v)
    if geom is None:
        geom = kernels.build_geom(xp, cell_nodes, es.x, es.y,
                                  time=time, check=False)

    with timers.region("getq"):
        fqx, fqy, q_cell, p_eff = _viscosity(
            ctx, geom, vc, es.u, es.v, es.rho, es.cs2, es.p, es.volume,
        )
        es.q[...] = q_cell
    with timers.region("getforce"):
        fx, fy = kernels.getforce(
            xp, geom, vc, p_eff, es.rho, es.cs2, fqx, fqy,
            es.corner_mass, es.corner_volume, es.volume,
            ctx.subzonal_kappa, ctx.filter_kappa, ctx.gamma_vec,
        )

    with timers.region("getgeom"):
        x_h = es.x + half_col * es.u
        y_h = es.y + half_col * es.v
        # Corner volumes at the half step feed only the subzonal force.
        geom_h = kernels.build_geom(
            xp, cell_nodes, x_h, y_h, time=time,
            need_cvol=(ctx.subzonal_kappa != 0.0),
        )

    with timers.region("getrho"):
        rho_h = kernels.getrho(xp, es.cell_mass, geom_h.volume,
                               ctx.dencut)
    with timers.region("getein"):
        e_h = kernels.getein(
            xp, es.e, es.cell_mass, fx, fy, vc.cu, vc.cv, half_col,
        )
    with timers.region("getpc"):
        p_h, cs2_h = ctx.eos.getpc(
            es.mat, rho_h, e_h,
            out=(ws.array("ens.ph", rho_h.shape),
                 ws.array("ens.cs2h", rho_h.shape)),
        )

    # ------------------------------------------------------------------
    # corrector: forces at the half step, full-step update
    # ------------------------------------------------------------------
    with timers.region("getq"):
        fqx, fqy, q_cell, p_eff_h = _viscosity(
            ctx, geom_h, vc, es.u, es.v, rho_h, cs2_h, p_h,
            geom_h.volume,
        )
        es.q[...] = q_cell
    with timers.region("getforce"):
        fx, fy = kernels.getforce(
            xp, geom_h, vc, p_eff_h, rho_h, cs2_h, fqx, fqy,
            es.corner_mass, geom_h.cvol, geom_h.volume,
            ctx.subzonal_kappa, ctx.filter_kappa, ctx.gamma_vec,
        )

    with timers.region("getacc"):
        node_fx = ctx.scatter(fx, out=ws.array("ens.nodefx", (n, nnode)))
        node_fy = ctx.scatter(fy, out=ws.array("ens.nodefy", (n, nnode)))
        mass = es.node_mass(ctx.scatter)
        u_new, v_new, u_bar, v_bar = kernels.getacc(
            xp, es.u, es.v, node_fx, node_fy, mass, dt_col, ctx.bc,
        )

    with timers.region("getgeom"):
        es.x += dt_col * u_bar
        es.y += dt_col * v_bar
        geom_new = kernels.build_geom(xp, cell_nodes, es.x, es.y,
                                      time=time)
        es.volume[...] = geom_new.volume
        es.corner_volume[...] = geom_new.cvol

    with timers.region("getrho"):
        es.rho[...] = kernels.getrho(xp, es.cell_mass, es.volume,
                                     ctx.dencut)
    with timers.region("getein"):
        cu_b = xp.take(u_bar, cell_nodes, axis=1)
        cv_b = xp.take(v_bar, cell_nodes, axis=1)
        es.e[...] = kernels.getein(
            xp, es.e, es.cell_mass, fx, fy, cu_b, cv_b, dt_col,
        )
    with timers.region("getpc"):
        ctx.eos.getpc(es.mat, es.rho, es.e, out=(es.p, es.cs2))

    es.u[...] = u_new
    es.v[...] = v_new
    return geom_new
