"""Unit tests for the artificial viscosity kernel (getq).

Corner arrays are corner-major, (4, ncell).  The active-edge property
tests run the one kernel body twice — on the whole edge array and on the
compressed set of active edges — and require the two results equal
byte for byte.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import geometry, viscosity
from repro.core.corners import StepCorners
from repro.ensemble.state import UnionMesh
from repro.mesh.generator import perturbed_mesh, pinwheel_mesh, rect_mesh
from repro.perf.workspace import Workspace
from tests.conftest import renumbered_mesh


def _getq(mesh, u, v, rho=None, cs2=None, cq1=0.5, cq2=0.75, limiter=True):
    ncell = mesh.ncell
    rho = np.ones(ncell) if rho is None else rho
    cs2 = np.ones(ncell) if cs2 is None else cs2
    gamma = np.full(ncell, 5.0 / 3.0)
    return viscosity.getq(mesh, StepCorners(mesh, mesh.x, mesh.y, u, v),
                          rho, cs2, gamma, cq1, cq2, limiter)


def _jumps(mesh, u, v):
    """Corner-major edge velocity jumps ``u[k+1] − u[k]``."""
    cu = u[mesh.cell_nodes].T
    cv = v[mesh.cell_nodes].T
    return np.roll(cu, -1, axis=0) - cu, np.roll(cv, -1, axis=0) - cv


def test_zero_for_gas_at_rest(unit_square_mesh):
    mesh = unit_square_mesh
    fqx, fqy, q = _getq(mesh, np.zeros(mesh.nnode), np.zeros(mesh.nnode))
    assert np.all(q == 0.0)
    assert np.all(fqx == 0.0)
    assert np.all(fqy == 0.0)


def test_zero_for_uniform_translation(unit_square_mesh):
    mesh = unit_square_mesh
    u = np.full(mesh.nnode, 3.0)
    v = np.full(mesh.nnode, -2.0)
    _, _, q = _getq(mesh, u, v)
    assert np.all(q == 0.0)


def test_zero_in_expansion(unit_square_mesh):
    """Viscosity acts only in compression."""
    mesh = unit_square_mesh
    u = mesh.x - 0.5   # outward expansion
    v = mesh.y - 0.5
    _, _, q = _getq(mesh, u, v)
    assert np.all(q == 0.0)


def test_active_in_compression(unit_square_mesh):
    mesh = unit_square_mesh
    u = -(mesh.x - 0.5)
    v = -(mesh.y - 0.5)
    _, _, q = _getq(mesh, u, v, limiter=False)
    assert np.all(q > 0.0)


def test_limiter_switches_off_in_uniform_compression():
    """Uniformly-graded 1-D compression: continuation ratios are 1, so
    interior cells receive no viscosity (ψ = 1)."""
    mesh = rect_mesh(10, 3)
    u = -mesh.x          # du/dx = const < 0
    v = np.zeros(mesh.nnode)
    _, _, q = _getq(mesh, u, v, limiter=True)
    xc, _ = mesh.cell_centroids()
    interior = (xc > 0.15) & (xc < 0.85)
    assert np.all(q[interior] < 1e-12)


def test_limiter_keeps_q_at_velocity_jump():
    """A sharp 1-D velocity jump (shock-like) keeps full viscosity."""
    mesh = rect_mesh(10, 3)
    u = np.where(mesh.x < 0.5, 1.0, -1.0)
    v = np.zeros(mesh.nnode)
    _, _, q = _getq(mesh, u, v, limiter=True)
    xc, _ = mesh.cell_centroids()
    at_jump = np.abs(xc - 0.5) < 0.1
    assert q[at_jump].max() > 0.1


def test_forces_conserve_momentum(unit_square_mesh):
    mesh = unit_square_mesh
    rng = np.random.default_rng(3)
    u = rng.standard_normal(mesh.nnode)
    v = rng.standard_normal(mesh.nnode)
    fqx, fqy, _ = _getq(mesh, u, v)
    # edge forces are equal-and-opposite pairs within each cell
    np.testing.assert_allclose(fqx.sum(axis=0), 0.0, atol=1e-13)
    np.testing.assert_allclose(fqy.sum(axis=0), 0.0, atol=1e-13)


def test_forces_dissipate_kinetic_energy(unit_square_mesh):
    """−Σ F·u ≥ 0: viscous corner forces can only heat the cell."""
    mesh = unit_square_mesh
    rng = np.random.default_rng(7)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(mesh.nnode)
        v = rng.standard_normal(mesh.nnode)
        fqx, fqy, _ = _getq(mesh, u, v, limiter=False)
        cu = u[mesh.cell_nodes].T
        cv = v[mesh.cell_nodes].T
        work = (fqx * cu + fqy * cv).sum(axis=0)
        assert np.all(work <= 1e-12)


def test_quadratic_scaling_without_linear_term(unit_square_mesh):
    """With cq1 = 0 the edge q scales quadratically in the jump."""
    mesh = unit_square_mesh
    u1 = -(mesh.x - 0.5)
    z = np.zeros(mesh.nnode)
    _, _, q1 = _getq(mesh, u1, z, cq1=0.0, limiter=False)
    _, _, q2 = _getq(mesh, 2 * u1, z, cq1=0.0, limiter=False)
    np.testing.assert_allclose(q2, 4.0 * q1, rtol=1e-12)


def test_linear_scaling_without_quadratic_term(unit_square_mesh):
    mesh = unit_square_mesh
    u1 = -(mesh.x - 0.5)
    z = np.zeros(mesh.nnode)
    _, _, q1 = _getq(mesh, u1, z, cq2=0.0, limiter=False)
    _, _, q2 = _getq(mesh, 2 * u1, z, cq2=0.0, limiter=False)
    np.testing.assert_allclose(q2, 2.0 * q1, rtol=1e-12)


def test_q_proportional_to_density(unit_square_mesh):
    mesh = unit_square_mesh
    u = -(mesh.x - 0.5)
    z = np.zeros(mesh.nnode)
    _, _, q1 = _getq(mesh, u, z, rho=np.ones(mesh.ncell), limiter=False)
    _, _, q2 = _getq(mesh, u, z, rho=np.full(mesh.ncell, 3.0), limiter=False)
    np.testing.assert_allclose(q2, 3.0 * q1, rtol=1e-12)


def test_christiansen_limiter_bounds(unit_square_mesh):
    mesh = unit_square_mesh
    rng = np.random.default_rng(11)
    u = rng.standard_normal(mesh.nnode)
    v = rng.standard_normal(mesh.nnode)
    dux, duy = _jumps(mesh, u, v)
    psi = viscosity.christiansen_limiter(
        mesh, dux, duy, dux ** 2 + duy ** 2
    )
    assert np.all(psi >= 0.0)
    assert np.all(psi <= 1.0)


def test_boundary_edges_take_full_viscosity(unit_square_mesh):
    """Missing continuations (mesh boundary) force ψ = 0."""
    mesh = unit_square_mesh
    u = np.full(mesh.nnode, 0.1)
    v = np.zeros(mesh.nnode)
    dux, duy = _jumps(mesh, u, v)
    psi = viscosity.christiansen_limiter(
        mesh, dux, duy, dux ** 2 + duy ** 2
    )
    nb = mesh.cell_neighbours
    missing = (np.roll(nb, 1, axis=1) < 0) | (np.roll(nb, -1, axis=1) < 0)
    assert np.all(psi.T[missing] == 0.0)


def test_limiter_reads_the_continuation_jumps_of_the_neighbours():
    """ψ from the edge-indexed jumps equals the textbook evaluation from
    eight nodal lookups, bit for bit."""
    mesh = rect_mesh(7, 5)
    rng = np.random.default_rng(13)
    u = rng.standard_normal(mesh.nnode)
    v = rng.standard_normal(mesh.nnode)
    dux, duy = _jumps(mesh, u, v)
    dumag_sq = dux ** 2 + duy ** 2
    psi = viscosity.christiansen_limiter(mesh, dux, duy, dumag_sq)
    n_b1, n_b0, n_f1, n_f0, off = mesh.plans.limiter_nodes
    bx, by = (u[n_b1] - u[n_b0]).T, (v[n_b1] - v[n_b0]).T
    fx, fy = (u[n_f1] - u[n_f0]).T, (v[n_f1] - v[n_f0]).T
    denom = np.maximum(dumag_sq, viscosity.DU_CUT ** 2)
    rb = (bx * dux + by * duy) / denom
    rf = (fx * dux + fy * duy) / denom
    ref = np.minimum(0.5 * (rb + rf), np.minimum(2.0 * rb, 2.0 * rf))
    ref = np.clip(np.minimum(ref, 1.0), 0.0, 1.0)
    ref[off.T] = 0.0
    assert np.array_equal(psi, ref)


# ----------------------------------------------------------------------
# active-edge set: the subset is bitwise the whole-array kernel
# ----------------------------------------------------------------------
@contextmanager
def _cutoff(fraction):
    """Run ``getq`` with the subset cutoff at ``fraction``: -1 puts every
    call on the whole edge array, 1 every call on the active subset."""
    saved = viscosity.SUBSET_MAX_FRACTION
    viscosity.SUBSET_MAX_FRACTION = fraction
    try:
        yield
    finally:
        viscosity.SUBSET_MAX_FRACTION = saved


def _whole_and_subset(mesh, u, v, rho=None, cs2=None, gamma=None,
                      cq1=0.5, cq2=0.75, limiter=True):
    """``(fqx, fqy, q_cell)`` bytes on the whole edge array and on the
    active subset — the latter twice through one arena, so the second
    call runs on recycled blocks holding the first call's values."""
    ncell = mesh.ncell
    rho = np.ones(ncell) if rho is None else rho
    cs2 = np.ones(ncell) if cs2 is None else cs2
    gamma = np.full(ncell, 5.0 / 3.0) if gamma is None else gamma
    args = (rho, cs2, gamma, cq1, cq2, limiter)

    def as_bytes(result):
        return [a.tobytes() for a in result]

    with _cutoff(-1.0):
        corners = StepCorners(mesh, mesh.x, mesh.y, u, v)
        whole = as_bytes(viscosity.getq(mesh, corners, *args))
    ws = Workspace()
    with _cutoff(1.0):
        for _ in range(2):
            corners = StepCorners(mesh, mesh.x, mesh.y, u, v, ws)
            fqx, fqy, q = viscosity.getq(mesh, corners, *args, ws=ws)
            subset = as_bytes((fqx, fqy, q))
            ws.release(fqx, fqy)
            corners.close()
    return whole, subset


def _signed_zeros(rng, values, share):
    """``values`` with a random ``share`` of its entries set to ±0.0."""
    out = values.copy()
    hit = rng.random(out.size) < share
    out[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, -0.0)
    return out


MESHES = {
    "perturbed": lambda seed: perturbed_mesh(7, 5, amplitude=0.2, seed=seed),
    "permuted": lambda seed: renumbered_mesh(rect_mesh(6, 5), seed),
    "pinwheel": lambda seed: pinwheel_mesh(nquads=5),
}


@given(kind=st.sampled_from(sorted(MESHES)), seed=st.integers(0, 10_000),
       zeros=st.floats(0.0, 0.6), limiter=st.booleans())
@settings(max_examples=60, deadline=None)
def test_subset_is_bitwise_the_whole_array(kind, seed, zeros, limiter):
    """Random velocities with injected ±0.0 jumps, random cell data:
    forces (signed zeros included) and q_cell agree to the byte."""
    mesh = MESHES[kind](seed)
    rng = np.random.default_rng(seed)
    u = _signed_zeros(rng, rng.standard_normal(mesh.nnode), zeros)
    v = _signed_zeros(rng, rng.standard_normal(mesh.nnode), zeros)
    whole, subset = _whole_and_subset(
        mesh, u, v, rho=rng.uniform(0.5, 2.0, mesh.ncell),
        cs2=rng.uniform(0.1, 3.0, mesh.ncell),
        gamma=rng.uniform(1.2, 2.0, mesh.ncell), limiter=limiter)
    assert subset == whole


@pytest.mark.parametrize("motion", ["rest", "translation"])
def test_subset_with_no_active_edge(motion):
    """|E| = 0: the subset path runs on empty slots and still returns
    the whole array's (all-zero, signed) results."""
    mesh = perturbed_mesh(6, 6, amplitude=0.2, seed=1)
    u = np.full(mesh.nnode, 0.0 if motion == "rest" else 3.0)
    v = np.full(mesh.nnode, -0.0 if motion == "rest" else -2.0)
    whole, subset = _whole_and_subset(mesh, u, v)
    assert subset == whole
    assert not np.frombuffer(whole[2]).any()


def test_subset_on_boundary_edges(unit_square_mesh):
    """A wall-ward compression activates edges with no continuation
    (limiter ψ = 0 there): the subset reads ``off`` at those edges."""
    mesh = unit_square_mesh
    u = -(mesh.x - 0.5) ** 3
    v = -(mesh.y - 0.5)
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    dux, duy = _jumps(mesh, u, v)
    dxx = np.roll(cx, -1, axis=0) - cx
    dxy = np.roll(cy, -1, axis=0) - cy
    active = (dux * dxx + duy * dxy) < 0.0
    off = mesh.plans.limiter_edges[2]
    assert (active & off).any() and (active & ~off).any()
    for limiter in (True, False):
        whole, subset = _whole_and_subset(mesh, u, v, limiter=limiter)
        assert subset == whole


def test_subset_with_per_cell_coefficients_on_a_union_mesh():
    """Two lanes as one disjoint-union mesh, each with its own cq1/cq2 as
    per-cell vectors (how an ensemble steps): read at each edge's cell."""
    base = perturbed_mesh(5, 4, amplitude=0.2, seed=5)
    union = UnionMesh(base, 2)
    rng = np.random.default_rng(9)
    union.x = np.tile(base.x, 2)
    union.y = np.tile(base.y, 2)
    u = rng.standard_normal(union.nnode)
    v = rng.standard_normal(union.nnode)
    cq1 = np.repeat([0.3, 0.7], base.ncell)
    cq2 = np.repeat([0.5, 1.0], base.ncell)
    whole, subset = _whole_and_subset(union, u, v, cq1=cq1, cq2=cq2)
    assert subset == whole


def test_the_chooser_at_both_ends():
    """A pure function of (|E|, edge count): the subset up to the cutoff
    fraction, the whole array above it — and no edges is a subset."""
    cutoff = viscosity.SUBSET_MAX_FRACTION
    assert 0.0 < cutoff < 1.0
    nedge = 4 * 128 * 128
    at = int(cutoff * nedge)
    assert viscosity.uses_subset(0, nedge)
    assert viscosity.uses_subset(at, nedge)
    assert not viscosity.uses_subset(at + 1, nedge)
    assert not viscosity.uses_subset(nedge, nedge)
    assert viscosity.uses_subset(0, 0)
