"""Batched (ensemble) kernels — the ``(N, …)`` mirrors of ``core/*``.

Every kernel here states, as plain workspace-free expressions, what
the corresponding ``repro.core`` kernel computes through its buffer
arena, with one leading batch axis: nodal
fields are ``(N, nnode)``, cell fields ``(N, ncell)``, corner fields
``(N, ncell, 4)``.  Within a lane the floating operations run in the
*same association* as the serial kernels — the batch axis only adds an
outer loop dimension — so lane ``i`` of a batched result is
bit-identical to the serial result on lane ``i``'s inputs.  The
bit-identity tests and the CI gate pin this down.

Three batched-only optimisations keep that contract while cutting the
per-step pass count well below N independent serial steps:

* **Shared geometry products** (:class:`Geom`): edge vectors, volume
  gradients, midpoints and centroids are computed once per geometry and
  reused by every consumer (viscosity, forces, dt fields) instead of
  re-derived per kernel.  The committed geometry additionally survives
  into the next step's predictor (the driver caches it), since the
  coordinates have not moved in between.
* **Shared velocity jumps** (:func:`velocity_edge_cache`): the
  corner-gathered velocities and edge jumps feeding both viscosity
  evaluations, the energy update and the dt fields of a step are
  identical (``u``/``v`` only commit at step end), so they are built
  once per step.
* **Sparse viscosity** (:func:`getq`): the CSW edge expression is only
  nonzero on *active* (compressing) edges.  When few edges are active
  the limiter, the q magnitude and the median arm evaluate on the
  compressed active set and scatter into zeros — bitwise the same
  result as the dense form, because inactive edges are exactly ``+0.0``
  either way (``xp.where(active, ., 0.0)`` in the dense path).  A dense
  fallback keeps strongly-compressing problems (Noh: every edge active)
  off the gather-heavy path.

Two layout rules make the batched reductions accumulate like the serial
ones (numpy pairwise summation follows memory order): corner gathers go
through ``xp.take`` (C-contiguous result, unlike ``x[:, idx]``), and
any arithmetic whose *both* operands are fancy-indexed writes into an
``out=`` buffer.  Reductions over the corner axis use the explicit
slice chain :func:`repro.perf.plans.corner_reduce` shared with
``repro.core`` and ``repro.ale``, whose association is the same as
numpy's sequential 4-element reduce and independent of layout.

The array module is a parameter (``xp``); this module never imports
numpy, so swapping in ``cupy`` (or any module with the used subset of
the numpy API) is a call-site change, not a rewrite — the WaterLily
backend-generic kernel idea in numpy form.  Index arrays (corner
connectivity, limiter neighbours) and the scatter plan are built by the
caller and passed in; a lint test (``tests/ensemble/test_xp_purity``)
enforces that no ``np.`` leaks in here.
"""

from __future__ import annotations

from ..perf.plans import corner_reduce
from ..utils.errors import TangledMeshError

#: velocity-jump magnitude below which an edge is treated as rigid
#: (mirror of ``core.viscosity.DU_CUT``)
DU_CUT = 1.0e-30

#: above this active-edge fraction the sparse viscosity path stops
#: paying for itself (gathers + scatters beat full-field arithmetic
#: only while the active set is small); Noh-like uniform compression
#: takes the dense branch, shocks traversing a quiet mesh the sparse
#: one.  Both branches are bit-identical — this is purely a cost model.
SPARSE_MAX_FRACTION = 0.6

#: corner permutations standing in for ``xp.roll(a, ∓1, axis=-1)`` on
#: the length-4 corner axis (identical values, ~4x cheaper)
_NEXT = [1, 2, 3, 0]
_PREV = [3, 0, 1, 2]


def edge_next(a):
    """``xp.roll(a, -1, axis=-1)`` for a 4-corner last axis."""
    return a[..., _NEXT]


def edge_prev(a):
    """``xp.roll(a, 1, axis=-1)`` for a 4-corner last axis."""
    return a[..., _PREV]


def _centroid(xp, a):
    """``a.mean(axis=-1)`` over 4 corners (== sequential sum / 4.0)."""
    return corner_reduce(xp.add, a) / 4.0


# ----------------------------------------------------------------------
# geometry (mirrors core/geometry.py, axis=1 -> axis=-1)
# ----------------------------------------------------------------------
def gather(xp, cell_nodes, x, y):
    """(N, ncell, 4) corner coordinates from (N, nnode) nodal arrays.

    ``xp.take(..., axis=1)`` rather than ``x[:, cell_nodes]``: the
    slice-plus-advanced-index form hands back a transposed-buffer view
    whose memory order changes how downstream reductions accumulate —
    ``take`` yields the C-contiguous layout the serial gather has, which
    the bit-identity contract depends on.
    """
    return (xp.take(x, cell_nodes, axis=1),
            xp.take(y, cell_nodes, axis=1))


def cell_volumes(xp, cx, cy):
    """Signed cell volumes (areas) via the shoelace formula."""
    return 0.5 * (
        (cx[:, :, 2] - cx[:, :, 0]) * (cy[:, :, 3] - cy[:, :, 1])
        + (cx[:, :, 1] - cx[:, :, 3]) * (cy[:, :, 2] - cy[:, :, 0])
    )


class Geom:
    """Every derived product of one corner geometry, computed once.

    ``cx``/``cy``
        (N, ncell, 4) corner coordinates (C-contiguous).
    ``dxx``/``dxy``
        edge vectors ``corner_{i+1} - corner_i`` (the ``roll(-1) - a``
        of the serial kernels).
    ``dvdx``/``dvdy``
        shoelace volume gradients per corner.
    ``mx``/``my``
        edge midpoints; ``gx``/``gy`` cell centroids (N, ncell).
    ``volume``/``cvol``
        cell and median-decomposition corner volumes.

    All fields hold exactly the values the serial kernels would have
    derived from the same coordinates; consumers reading them instead
    of recomputing is what keeps the batched step cheap.
    """

    __slots__ = ("cx", "cy", "dxx", "dxy", "dvdx", "dvdy",
                 "mx", "my", "gx", "gy", "volume", "cvol", "_elsq")

    def __init__(self):
        self._elsq = None

    def edge_len_sq(self, xp):
        """Longest squared edge per cell (lazy, shared by dt + bulk q)."""
        if self._elsq is None:
            self._elsq = corner_reduce(
                xp.maximum, self.dxx * self.dxx + self.dxy * self.dxy)
        return self._elsq


def build_geom(xp, cell_nodes, x, y, time=None, check=True,
               need_cvol=True):
    """Gather one geometry and derive every shared product.

    With ``check=True`` this is the batched ``getgeom`` — cell and
    corner volumes are validated (raising :class:`TangledMeshError`
    like the serial kernel).  ``check=False`` builds the product cache
    for a committed geometry the serial path never re-validates (the
    dt fields and the predictor read coordinates unchecked).

    ``need_cvol=False`` skips the corner-volume decomposition (and its
    tangle check) entirely — the caller passes it for the half-step
    geometry when subzonal forces are off, where nothing downstream
    reads corner volumes.  The skipped check only matters on a mesh
    whose cell volumes are all positive while a median subzone has
    already inverted mid-step — a run that is aborting either way.
    """
    g = Geom()
    cx, cy = gather(xp, cell_nodes, x, y)
    g.cx, g.cy = cx, cy
    g.volume = cell_volumes(xp, cx, cy)
    if check:
        check_volumes(xp, g.volume, time=time)

    cxn, cyn = edge_next(cx), edge_next(cy)
    cxp, cyp = edge_prev(cx), edge_prev(cy)
    g.dxx = cxn - cx
    g.dxy = cyn - cy
    # Both operands fancy-indexed -> write into a C buffer so einsum
    # consumers accumulate in serial memory order.
    dvdx = xp.empty_like(cx)
    xp.subtract(cyn, cyp, out=dvdx)
    dvdx *= 0.5
    dvdy = xp.empty_like(cx)
    xp.subtract(cxp, cxn, out=dvdy)
    dvdy *= 0.5
    g.dvdx, g.dvdy = dvdx, dvdy

    g.mx = 0.5 * (cx + cxn)
    g.my = 0.5 * (cy + cyn)
    g.gx = _centroid(xp, cx)
    g.gy = _centroid(xp, cy)
    if check and need_cvol:
        g.cvol = _corner_volumes_from(xp, g)
        check_volumes(xp, g.cvol, time=time, what="corner")
    else:
        g.cvol = None
    return g


def _corner_volumes_from(xp, g):
    """(N, ncell, 4) median subzone volumes from cached mids/centroid.

    Evaluates ``0.5·((A×B) + (B×G) + (G×D) + (D×A))`` (cross products
    of the quad A=P_i, B=M_i, G=centroid, D=M_{i-1}) with the serial
    left-to-right association, accumulated through three scratch
    buffers — elementwise ops are layout-independent bitwise, so the
    in-place form changes allocation traffic only, and the accumulator
    is C-contiguous for downstream reductions by construction.
    """
    ax, ay = g.cx, g.cy                        # A = P_i
    bx, by = g.mx, g.my                        # B = M_i
    gx, gy = g.gx[:, :, None], g.gy[:, :, None]
    dx, dy = edge_prev(g.mx), edge_prev(g.my)  # D = M_{i-1}
    acc = xp.empty_like(ax)
    s1 = xp.empty_like(ax)
    s2 = xp.empty_like(ax)
    xp.multiply(ax, by, out=acc)
    xp.multiply(bx, ay, out=s1)
    xp.subtract(acc, s1, out=acc)              # A × B
    xp.multiply(bx, gy, out=s1)
    xp.multiply(gx, by, out=s2)
    xp.subtract(s1, s2, out=s1)
    xp.add(acc, s1, out=acc)                   # + B × G
    xp.multiply(gx, dy, out=s1)
    xp.multiply(dx, gy, out=s2)
    xp.subtract(s1, s2, out=s1)
    xp.add(acc, s1, out=acc)                   # + G × D
    xp.multiply(dx, ay, out=s1)
    xp.multiply(ax, dy, out=s2)
    xp.subtract(s1, s2, out=s1)
    xp.add(acc, s1, out=acc)                   # + D × A
    acc *= 0.5
    return acc


def corner_volumes(xp, cx, cy):
    """(N, ncell, 4) median-decomposition subzone volumes (standalone)."""
    g = Geom()
    g.cx, g.cy = cx, cy
    g.mx = 0.5 * (cx + edge_next(cx))
    g.my = 0.5 * (cy + edge_next(cy))
    g.gx = _centroid(xp, cx)
    g.gy = _centroid(xp, cy)
    return _corner_volumes_from(xp, g)


def check_volumes(xp, volume, time=None, what="cell"):
    """Raise :class:`TangledMeshError` if any lane has a bad volume.

    ``volume`` is (N, ncell) or (N, ncell, 4); the error reports the
    offending cells of the first bad lane, like the serial check.
    """
    bad = volume <= 0.0
    if bad.any():
        flat = bad.reshape(bad.shape[0], -1)
        lanes = xp.nonzero(flat.any(axis=-1))[0]
        lane = int(lanes[0])
        if volume.ndim > 2:
            cells = xp.nonzero(bad[lane].any(axis=-1))[0][:10]
        else:
            cells = xp.nonzero(bad[lane])[0][:10]
        raise TangledMeshError(cells.tolist(), time=time)


# ----------------------------------------------------------------------
# density (mirrors core/density.py)
# ----------------------------------------------------------------------
def getrho(xp, cell_mass, volume, dencut):
    """Cell density from fixed mass and current volume."""
    rho = cell_mass / volume
    if dencut > 0.0:
        rho = xp.maximum(rho, dencut)
    return rho


# ----------------------------------------------------------------------
# artificial viscosity (mirrors core/viscosity.py)
# ----------------------------------------------------------------------
class StepCache:
    """The per-step velocity products every kernel shares.

    Corner velocities, edge jumps and jump magnitudes: both viscosity
    passes of a step, the predictor energy update and the dt fields all
    consume the *same* committed ``u``/``v`` (velocities only advance
    at step end), so one evaluation serves them all.  The limiter ψ and
    the guarded inverse jump are velocity-only too — they are cached
    lazily so the second viscosity pass of a step reuses the first's.
    """

    __slots__ = ("cu", "cv", "dux", "duy", "dumag_sq", "dumag",
                 "psi", "_inv")

    def __init__(self, cu, cv, dux, duy, dumag_sq, dumag):
        self.cu = cu
        self.cv = cv
        self.dux = dux
        self.duy = duy
        self.dumag_sq = dumag_sq
        self.dumag = dumag
        self.psi = None
        self._inv = None

    def dense_psi(self, xp, u, v, lim):
        """Full-field limiter ψ, computed once per step."""
        if self.psi is None:
            self.psi = christiansen_limiter(
                xp, u, v, self.dux, self.duy, self.dumag_sq, lim)
        return self.psi

    def inv_jump(self, xp):
        """``1 / max(|Δu|, DU_CUT)``, computed once per step."""
        if self._inv is None:
            self._inv = 1.0 / xp.maximum(self.dumag, DU_CUT)
        return self._inv


def velocity_edge_cache(xp, cell_nodes, u, v):
    """Build the :class:`StepCache` for the committed velocities."""
    cu = xp.take(u, cell_nodes, axis=1)
    cv = xp.take(v, cell_nodes, axis=1)
    dux = edge_next(cu) - cu
    duy = edge_next(cv) - cv
    dumag_sq = dux * dux + duy * duy
    dumag = xp.sqrt(dumag_sq)
    return StepCache(cu, cv, dux, duy, dumag_sq, dumag)


def christiansen_limiter(xp, u, v, dux, duy, dumag_sq, lim):
    """Limiter ψ in [0, 1] per in-cell edge; (N, ncell, 4).

    ``lim`` is the ``(n_b1, n_b0, n_f1, n_f0, off)`` index tuple
    ``mesh.plans.limiter_nodes`` (shared across lanes).
    """
    n_b1, n_b0, n_f1, n_f0, off = lim
    bx = xp.take(u, n_b1, axis=1) - xp.take(u, n_b0, axis=1)
    by = xp.take(v, n_b1, axis=1) - xp.take(v, n_b0, axis=1)
    fx = xp.take(u, n_f1, axis=1) - xp.take(u, n_f0, axis=1)
    fy = xp.take(v, n_f1, axis=1) - xp.take(v, n_f0, axis=1)
    denom = xp.maximum(dumag_sq, DU_CUT * DU_CUT)
    rb = (bx * dux + by * duy) / denom
    rf = (fx * dux + fy * duy) / denom
    psi = xp.minimum(0.5 * (rb + rf), xp.minimum(2.0 * rb, 2.0 * rf))
    psi = xp.clip(xp.minimum(psi, 1.0), 0.0, 1.0)
    psi[:, off] = 0.0
    return psi


def _limiter_sparse(xp, u, v, dux_c, duy_c, dumag_sq_c, lim_flat,
                    lane, pos):
    """ψ on the compressed active set only.

    ``lane``/``pos`` locate each active corner (batch row, flat
    in-lane corner index); ``lim_flat`` holds the raveled limiter
    index arrays.  Same expression as the dense limiter, evaluated at
    exactly the positions whose ψ the viscosity will read.
    """
    n_b1f, n_b0f, n_f1f, n_f0f, offf = lim_flat
    base = lane * u.shape[1]
    uf = u.reshape(-1)
    vf = v.reshape(-1)
    ib1 = base + n_b1f[pos]
    ib0 = base + n_b0f[pos]
    if1 = base + n_f1f[pos]
    if0 = base + n_f0f[pos]
    bx = uf[ib1] - uf[ib0]
    by = vf[ib1] - vf[ib0]
    fx = uf[if1] - uf[if0]
    fy = vf[if1] - vf[if0]
    denom = xp.maximum(dumag_sq_c, DU_CUT * DU_CUT)
    rb = (bx * dux_c + by * duy_c) / denom
    rf = (fx * dux_c + fy * duy_c) / denom
    psi = xp.minimum(0.5 * (rb + rf), xp.minimum(2.0 * rb, 2.0 * rf))
    psi = xp.clip(xp.minimum(psi, 1.0), 0.0, 1.0)
    psi[offf[pos]] = 0.0
    return psi


def _getq_dense(xp, geom, vc, u, v, rho, cs2, cquad, cq1_col,
                use_limiter, lim, active):
    """Full-field edge viscosity (the Noh-shaped branch)."""
    dux, duy, dumag = vc.dux, vc.duy, vc.dumag
    if use_limiter:
        psi = vc.dense_psi(xp, u, v, lim)
    else:
        psi = xp.zeros_like(dumag)
    cq = cquad[:, :, None]
    cs = xp.sqrt(cs2)[:, :, None]
    q_edge = (1.0 - psi) * rho[:, :, None] * dumag * (
        cq * dumag + xp.sqrt((cq * dumag) ** 2 + (cq1_col * cs) ** 2)
    )
    q_edge = xp.where(active, q_edge, 0.0)
    arm = xp.hypot(geom.mx - geom.gx[:, :, None],
                   geom.my - geom.gy[:, :, None])

    # Unit jump direction (guarded); force ±q L û on the edge's nodes.
    inv = vc.inv_jump(xp)
    qarm = q_edge * arm
    fx_edge = qarm * dux * inv
    fy_edge = qarm * duy * inv
    fqx = fx_edge - edge_prev(fx_edge)
    fqy = fy_edge - edge_prev(fy_edge)

    q_cell = 0.25 * corner_reduce(xp.add, q_edge)
    return fqx, fqy, q_cell


def _getq_sparse(xp, geom, vc, u, v, rho, cs2, cquad, cq1_lane,
                 use_limiter, lim_flat, idx):
    """Edge viscosity on the compressed active set, scattered out.

    ``idx`` is the flat (over ``N·ncell·4``) index of the active
    corners.  Inactive q entries stay exactly ``+0.0`` — the value
    ``xp.where(active, ., 0.0)`` gives them in the dense branch.  The
    edge forces need one more bit of care: the dense chain multiplies
    the zero q through ``arm · dux · inv`` whose only surviving effect
    is the *sign* of ``dux`` (arm and inv are positive) — so the
    sparse scatter base is ``copysign(0, dux)``, which reproduces the
    dense/serial signed-zero pattern exactly.
    """
    dux, duy = vc.dux, vc.duy
    dumag = vc.dumag
    ncorn = dumag.shape[1] * 4
    cellf = idx // 4               # flat (N·ncell) cell of each corner
    lane = idx // ncorn
    pos = idx - lane * ncorn       # in-lane flat corner position

    dumag_c = dumag.reshape(-1)[idx]
    dux_c = dux.reshape(-1)[idx]
    duy_c = duy.reshape(-1)[idx]
    rho_c = rho.reshape(-1)[cellf]
    cquad_c = cquad.reshape(-1)[cellf]
    cs_c = xp.sqrt(cs2.reshape(-1)[cellf])
    cq1_c = cq1_lane[lane]
    if use_limiter:
        if vc.psi is not None:     # full ψ already on the step cache
            psi_c = vc.psi.reshape(-1)[idx]
        else:
            dumag_sq_c = vc.dumag_sq.reshape(-1)[idx]
            psi_c = _limiter_sparse(xp, u, v, dux_c, duy_c,
                                    dumag_sq_c, lim_flat, lane, pos)
        one_minus_psi = 1.0 - psi_c
    else:
        one_minus_psi = 1.0
    t = cquad_c * dumag_c
    q_c = one_minus_psi * rho_c * dumag_c * (
        t + xp.sqrt(t ** 2 + (cq1_c * cs_c) ** 2)
    )

    arm_c = xp.hypot(geom.mx.reshape(-1)[idx] - geom.gx.reshape(-1)[cellf],
                     geom.my.reshape(-1)[idx] - geom.gy.reshape(-1)[cellf])
    inv_c = 1.0 / xp.maximum(dumag_c, DU_CUT)
    qarm_c = q_c * arm_c
    fx_edge = xp.copysign(0.0, dux)
    fy_edge = xp.copysign(0.0, duy)
    fx_edge.reshape(-1)[idx] = qarm_c * dux_c * inv_c
    fy_edge.reshape(-1)[idx] = qarm_c * duy_c * inv_c
    fqx = fx_edge - edge_prev(fx_edge)
    fqy = fy_edge - edge_prev(fy_edge)

    # q_cell = 0.25·Σ_corners q_edge with inactive corners exactly +0.0;
    # q ≥ 0 so skipping the zero terms is bitwise-identical to the dense
    # left-to-right corner sum (bincount adds in ascending corner order).
    ncellf = dumag.shape[0] * dumag.shape[1]
    q_cell = xp.bincount(cellf, weights=q_c, minlength=ncellf)
    q_cell = 0.25 * q_cell.reshape(dumag.shape[0], dumag.shape[1])
    return fqx, fqy, q_cell


def getq(xp, geom, vc, u, v, rho, cs2, cquad, cq1_col, cq1_lane,
         use_limiter, lim, lim_flat):
    """Edge (CSW) viscosity: ``(fqx, fqy, q_cell)`` batched.

    ``cquad`` is the per-cell ``cq2·(γ+1)/4`` coefficient (constant
    over a run, precomputed by the context); ``cq1_col``/``cq1_lane``
    are the per-lane linear coefficient as an ``(N, 1, 1)`` broadcast
    column and a flat ``(N,)`` vector for the sparse gather.
    """
    active = (vc.dux * geom.dxx + vc.duy * geom.dxy) < 0.0
    active &= vc.dumag > DU_CUT

    idx = xp.flatnonzero(active)
    if idx.size <= SPARSE_MAX_FRACTION * active.size:
        return _getq_sparse(
            xp, geom, vc, u, v, rho, cs2, cquad, cq1_lane,
            use_limiter, lim_flat, idx,
        )
    return _getq_dense(
        xp, geom, vc, u, v, rho, cs2, cquad, cq1_col,
        use_limiter, lim, active,
    )


def bulk_q(xp, geom, vc, rho, cs2, volume, cq1, cq2):
    """Cell-centred von Neumann–Richtmyer (bulk) viscosity, batched.

    ``cq1``/``cq2`` here are per-lane ``(N, 1)`` columns (the result is
    a cell field, not a corner field).
    """
    cu, cv = vc.cu, vc.cv
    vdot = (xp.einsum("nck,nck->nc", geom.dvdx, cu)
            + xp.einsum("nck,nck->nc", geom.dvdy, cv))
    div_u = vdot / volume
    compressing = div_u < 0.0
    longest = xp.sqrt(geom.edge_len_sq(xp))
    du = (volume / longest) * xp.abs(div_u)
    q = cq2 * rho * du * du + cq1 * rho * xp.sqrt(cs2) * du
    return xp.where(compressing, q, 0.0)


# ----------------------------------------------------------------------
# forces (mirrors core/force.py + core/hourglass.py)
# ----------------------------------------------------------------------
def pressure_forces(xp, geom, p):
    """Corner forces from a piecewise-constant cell pressure."""
    return p[:, :, None] * geom.dvdx, p[:, :, None] * geom.dvdy


def _quad_partials(ax, ay, bx, by, cx_, cy_, dx, dy):
    """Shoelace partials of quad (A,B,C,D) w.r.t. each vertex."""
    return (
        (0.5 * (by - dy), 0.5 * (dx - bx)),
        (0.5 * (cy_ - ay), 0.5 * (ax - cx_)),
        (0.5 * (dy - by), 0.5 * (bx - dx)),
        (0.5 * (ay - cy_), 0.5 * (cx_ - ax)),
    )


def subzone_volume_gradients(xp, geom):
    """``dV_subzone_i/dx_j`` for all corner pairs: (N, ncell, 4, 4)."""
    cx, cy = geom.cx, geom.cy
    n, ncell = cx.shape[0], cx.shape[1]
    gx = xp.broadcast_to(geom.gx[:, :, None], cx.shape)
    gy = xp.broadcast_to(geom.gy[:, :, None], cy.shape)
    ax, ay = cx, cy
    bx, by = geom.mx, geom.my
    dx, dy = edge_prev(geom.mx), edge_prev(geom.my)
    (gAx, gAy), (gBx, gBy), (gCx, gCy), (gDx, gDy) = _quad_partials(
        ax, ay, bx, by, gx, gy, dx, dy
    )
    gradx = xp.zeros((n, ncell, 4, 4))
    grady = xp.zeros((n, ncell, 4, 4))
    idx = xp.arange(4)
    nxt = (idx + 1) % 4
    prv = (idx - 1) % 4
    # j == i: A fully + half of both midpoints + quarter of centroid.
    gradx[:, :, idx, idx] = gAx + 0.5 * (gBx + gDx) + 0.25 * gCx
    grady[:, :, idx, idx] = gAy + 0.5 * (gBy + gDy) + 0.25 * gCy
    # j == i+1: half of M_i + quarter of centroid.
    gradx[:, :, idx, nxt] = 0.5 * gBx + 0.25 * gCx
    grady[:, :, idx, nxt] = 0.5 * gBy + 0.25 * gCy
    # j == i-1: half of M_{i-1} + quarter of centroid.
    gradx[:, :, idx, prv] = 0.5 * gDx + 0.25 * gCx
    grady[:, :, idx, prv] = 0.5 * gDy + 0.25 * gCy
    # j == i+2: quarter of centroid only.
    opp = (idx + 2) % 4
    gradx[:, :, idx, opp] = 0.25 * gCx
    grady[:, :, idx, opp] = 0.25 * gCy
    return gradx, grady


def subzonal_pressure_forces(xp, geom, corner_mass, corner_volume,
                             rho, cs2, kappa):
    """Corner forces (N, ncell, 4) from sub-zonal pressure deviations."""
    rho_z = corner_mass / xp.maximum(corner_volume, 1e-300)
    dp = kappa * cs2[:, :, None] * (rho_z - rho[:, :, None])
    gradx, grady = subzone_volume_gradients(xp, geom)
    fx = xp.einsum("nci,ncij->ncj", dp, gradx)
    fy = xp.einsum("nci,ncij->ncj", dp, grady)
    return fx, fy


def hourglass_filter_forces(xp, cu, cv, rho, cs2, volume, kappa,
                            gamma_vec):
    """Hancock-style damping forces; ``gamma_vec`` is (1, −1, 1, −1).

    The matvec runs on the flattened ``(N·ncell, 4)`` view so the
    per-row accumulation matches the serial ``(ncell, 4) @ (4,)`` call.
    """
    n, ncell = cu.shape[0], cu.shape[1]
    hu = 0.25 * (cu.reshape(-1, 4) @ gamma_vec).reshape(n, ncell)
    hv = 0.25 * (cv.reshape(-1, 4) @ gamma_vec).reshape(n, ncell)
    coeff = (kappa * rho * xp.sqrt(cs2)
             * xp.sqrt(xp.maximum(volume, 0.0)))
    fx = -(coeff * hu)[:, :, None] * gamma_vec[None, None, :]
    fy = -(coeff * hv)[:, :, None] * gamma_vec[None, None, :]
    return fx, fy


def getforce(xp, geom, vc, p, rho, cs2, fqx, fqy,
             corner_mass, corner_volume, volume,
             subzonal_kappa, filter_kappa, gamma_vec):
    """Assemble all corner forces (mirrors ``core.force.getforce``)."""
    fx, fy = pressure_forces(xp, geom, p)
    if fqx is not None:
        fx += fqx
        fy += fqy
    if subzonal_kappa > 0.0:
        sx, sy = subzonal_pressure_forces(
            xp, geom, corner_mass, corner_volume, rho, cs2,
            subzonal_kappa,
        )
        fx += sx
        fy += sy
    if filter_kappa > 0.0:
        hx, hy = hourglass_filter_forces(
            xp, vc.cu, vc.cv, rho, cs2, volume, filter_kappa, gamma_vec
        )
        fx += hx
        fy += hy
    return fx, fy


# ----------------------------------------------------------------------
# energy + acceleration (mirrors core/energy.py, core/acceleration.py)
# ----------------------------------------------------------------------
def getein(xp, e, cell_mass, fx, fy, cu, cv, dt_col):
    """Compatible internal-energy update; ``dt_col`` is (N, 1).

    ``cu``/``cv`` are the corner-gathered velocities the work sums
    against — the shared per-step cache at the predictor, a fresh
    gather of the time-centred velocity at the corrector.
    """
    work = (xp.einsum("nck,nck->nc", fx, cu)
            + xp.einsum("nck,nck->nc", fy, cv))
    return e - dt_col * work / cell_mass


def getacc(xp, u, v, node_fx, node_fy, mass, dt_col, bc):
    """Nodal acceleration and velocity update; ``dt_col`` is (N, 1).

    ``node_fx``/``node_fy``/``mass`` are the already-scattered (N, nnode)
    nodal sums; ``bc`` applies the kinematic boundary conditions with
    its batched methods.  Returns ``(u_new, v_new, u_bar, v_bar)``.
    """
    safe_mass = xp.where(mass > 0.0, mass, 1.0)
    ax = xp.where(mass > 0.0, node_fx / safe_mass, 0.0)
    ay = xp.where(mass > 0.0, node_fy / safe_mass, 0.0)
    bc.apply_acceleration_batched(ax, ay)
    u_new = u + dt_col * ax
    v_new = v + dt_col * ay
    bc.apply_velocity_batched(u_new, v_new)
    u_bar = 0.5 * (u + u_new)
    v_bar = 0.5 * (v + v_new)
    return u_new, v_new, u_bar, v_bar


# ----------------------------------------------------------------------
# timestep fields (mirrors core/timestep.local_dt_candidates arrays)
# ----------------------------------------------------------------------
def dt_candidate_fields(xp, geom, vc, volume, rho, cs2, q, dencut, ccut):
    """The (N, ncell) CFL ratio and volume-change rate fields.

    ``geom`` is the committed geometry's product cache and ``vc`` the
    step's velocity cache — both shared with the predictor, which reads
    the very same coordinates and velocities.  The per-lane
    argmin/argmax and the scalar candidate logic live in
    :mod:`repro.ensemble.timestep`; this is just the array part.
    """
    l_sq = volume * volume / xp.maximum(geom.edge_len_sq(xp), 1e-300)
    c_eff_sq = cs2 + 2.0 * q / xp.maximum(rho, dencut)
    ratio = l_sq / xp.maximum(c_eff_sq, ccut)
    vdot = (xp.einsum("nck,nck->nc", geom.dvdx, vc.cu)
            + xp.einsum("nck,nck->nc", geom.dvdy, vc.cv))
    rate = xp.abs(vdot) / volume
    return ratio, rate


# ----------------------------------------------------------------------
# ideal-gas EoS fast path (mirrors eos/ideal.py + the table cutoffs)
# ----------------------------------------------------------------------
def ideal_getpc(xp, rho, e, gm1_col, gfac_col, pcut, ccut, p, cs2):
    """Per-lane-γ ideal-gas pressure and sound speed², into ``p``/``cs2``.

    ``gm1_col`` is (N, 1) of ``γ−1``; ``gfac_col`` is (N, 1) of
    ``γ(γ−1)`` — both computed in Python-float arithmetic per lane so
    the products match :meth:`repro.eos.ideal.IdealGas.pressure_into`
    exactly.  Cutoffs mirror :meth:`MaterialTable.getpc`.
    """
    xp.multiply(rho, gm1_col, out=p)
    p *= e
    xp.maximum(e, 0.0, out=cs2)
    cs2 *= gfac_col
    p[xp.abs(p) < pcut] = 0.0
    xp.maximum(cs2, ccut, out=cs2)
    return p, cs2
