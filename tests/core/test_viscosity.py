"""Unit tests for the artificial viscosity kernel (getq).

Corner arrays are corner-major, (4, ncell).
"""

import numpy as np
import pytest

from repro.core import geometry, viscosity
from repro.mesh.generator import rect_mesh


def _getq(mesh, u, v, rho=None, cs2=None, cq1=0.5, cq2=0.75, limiter=True):
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    ncell = mesh.ncell
    rho = np.ones(ncell) if rho is None else rho
    cs2 = np.ones(ncell) if cs2 is None else cs2
    gamma = np.full(ncell, 5.0 / 3.0)
    return viscosity.getq(mesh, cx, cy, u, v, rho, cs2, gamma,
                          cq1, cq2, limiter)


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
