"""Unit tests for the cell-centred remap advection."""

import numpy as np
import pytest

from repro.ale.advect_cell import (advect_cells, cell_gradients,
                                   least_squares_stencil)
from repro.ale.fluxvol import face_flux_volumes, median_points
from repro.mesh.generator import perturbed_mesh, pinwheel_mesh, rect_mesh
from repro.perf.plans import corner_reduce
from tests.conftest import renumbered_mesh


def _move(mesh, scale=0.02, seed=0):
    rng = np.random.default_rng(seed)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    interior = np.ones(mesh.nnode, bool)
    interior[mesh.boundary_nodes()] = False
    x1[interior] += scale * rng.standard_normal(interior.sum())
    y1[interior] += scale * rng.standard_normal(interior.sum())
    return x1, y1


def _advect(mesh, rho, e, x1, y1):
    v0 = mesh.cell_areas()
    mass = rho * v0
    fv, _, swept = face_flux_volumes(mesh, mesh.x, mesh.y, x1, y1)
    centroids = median_points(mesh, mesh.x, mesh.y)[2:]
    return advect_cells(mesh, centroids, swept, fv, mass, rho, e)


def test_gradient_exact_for_linear_field():
    mesh = rect_mesh(6, 6)
    xc, yc = mesh.cell_centroids()
    phi = 2.0 * xc - 3.0 * yc + 1.0
    gx, gy = cell_gradients(mesh, xc, yc, phi, limit=False)
    interior = np.all(mesh.cell_neighbours >= 0, axis=1)
    np.testing.assert_allclose(gx[interior], 2.0, rtol=1e-10)
    np.testing.assert_allclose(gy[interior], -3.0, rtol=1e-10)


def test_gradient_limited_for_linear_field_unchanged():
    """BJ limiting must not clip a smooth linear reconstruction."""
    mesh = rect_mesh(6, 6)
    xc, yc = mesh.cell_centroids()
    phi = 0.5 * xc + 0.25 * yc
    gx_l, gy_l = cell_gradients(mesh, xc, yc, phi, limit=True)
    interior = np.all(mesh.cell_neighbours >= 0, axis=1)
    np.testing.assert_allclose(gx_l[interior], 0.5, rtol=1e-9)


def test_gradient_degenerate_tube_mesh():
    """A 1-cell-high tube has no vertical neighbours: the x gradient
    still comes out and the y gradient is zero."""
    mesh = rect_mesh(8, 1, (0.0, 1.0, 0.0, 0.1))
    xc, yc = mesh.cell_centroids()
    phi = 3.0 * xc
    gx, gy = cell_gradients(mesh, xc, yc, phi, limit=False)
    np.testing.assert_allclose(gx[1:-1], 3.0, rtol=1e-10)
    np.testing.assert_allclose(gy, 0.0, atol=1e-12)


def test_uniform_state_is_fixed_point(wonky_mesh):
    mesh = wonky_mesh
    x1, y1 = _move(mesh, seed=1)
    rho = np.full(mesh.ncell, 2.5)
    e = np.full(mesh.ncell, 0.75)
    mass_new, energy_new = _advect(mesh, rho, e, x1, y1)
    v1 = mesh.cell_areas(x1, y1)
    np.testing.assert_allclose(mass_new / v1, 2.5, rtol=1e-12)
    np.testing.assert_allclose(energy_new / mass_new, 0.75, rtol=1e-12)


def test_mass_and_energy_exactly_conserved(wonky_mesh):
    mesh = wonky_mesh
    rng = np.random.default_rng(9)
    rho = rng.uniform(0.5, 2.0, mesh.ncell)
    e = rng.uniform(0.1, 1.0, mesh.ncell)
    x1, y1 = _move(mesh, seed=2)
    mass_new, energy_new = _advect(mesh, rho, e, x1, y1)
    v0 = mesh.cell_areas()
    np.testing.assert_allclose(mass_new.sum(), (rho * v0).sum(), rtol=1e-13)
    np.testing.assert_allclose(energy_new.sum(), (rho * v0 * e).sum(),
                               rtol=1e-13)


def test_densities_stay_positive_and_bounded(wonky_mesh):
    mesh = wonky_mesh
    rng = np.random.default_rng(10)
    rho = rng.uniform(0.5, 2.0, mesh.ncell)
    e = rng.uniform(0.1, 1.0, mesh.ncell)
    x1, y1 = _move(mesh, scale=0.02, seed=5)
    mass_new, energy_new = _advect(mesh, rho, e, x1, y1)
    rho_new = mass_new / mesh.cell_areas(x1, y1)
    assert rho_new.min() > 0.0
    # small remap step: values stay within a whisker of the old bounds
    assert rho_new.max() <= rho.max() * (1 + 5e-2)
    assert rho_new.min() >= rho.min() * (1 - 5e-2)


def test_step_profile_monotone_after_remap():
    """Advecting a step with limited reconstruction adds no new
    extrema (the Van Leer monotonicity requirement)."""
    mesh = rect_mesh(20, 2, (0.0, 1.0, 0.0, 0.1))
    xc, _ = mesh.cell_centroids()
    rho = np.where(xc < 0.5, 2.0, 1.0)
    e = np.ones(mesh.ncell)
    # shift interior nodes right: mesh slides under the step
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    movable = (mesh.x > 1e-9) & (mesh.x < 1 - 1e-9)
    x1[movable] += 0.01
    mass_new, _ = _advect(mesh, rho, e, x1, y1)
    rho_new = mass_new / mesh.cell_areas(x1, y1)
    assert rho_new.max() <= 2.0 + 1e-12
    assert rho_new.min() >= 1.0 - 1e-12


def test_linear_profile_advected_second_order():
    """With limited linear reconstruction, remapping a linear density
    through a uniform shift is near-exact away from the walls."""
    mesh = rect_mesh(20, 2, (0.0, 1.0, 0.0, 0.1))
    xc, _ = mesh.cell_centroids()
    rho = 1.0 + xc
    e = np.ones(mesh.ncell)
    x1 = mesh.x.copy()
    y1 = mesh.y.copy()
    movable = (mesh.x > 1e-9) & (mesh.x < 1 - 1e-9)
    shift = 0.01
    x1[movable] += shift
    mass_new, _ = _advect(mesh, rho, e, x1, y1)
    rho_new = mass_new / mesh.cell_areas(x1, y1)
    xc_new = mesh.cell_centroids(x1, y1)[0]
    inner = (xc_new > 0.15) & (xc_new < 0.85)
    np.testing.assert_allclose(rho_new[inner], 1.0 + xc_new[inner],
                               rtol=2e-3)


# ----------------------------------------------------------------------
# The shared-stencil gradients against the two-pass formula
# ----------------------------------------------------------------------
_TINY = 1.0e-300


def _two_pass_barth_jespersen(phi_c, phi_min, phi_max, d):
    """The cell-major limiter the corner-major one replaced, verbatim."""
    phi_c = phi_c[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha_pos = (phi_max[:, None] - phi_c) / d
        alpha_neg = (phi_min[:, None] - phi_c) / d
    alpha = np.where(d > 0.0, alpha_pos, np.where(d < 0.0, alpha_neg, 1.0))
    alpha = np.minimum(alpha, 1.0)
    alpha = np.where(np.isfinite(alpha), alpha, 1.0)
    return np.clip(alpha.min(axis=1), 0.0, 1.0)


def _two_pass_gradients(mesh, xc, yc, phi, limit=True):
    """The per-field (ncell, 4) body the shared stencil replaced,
    verbatim: it rebuilds the geometry for every field."""
    nb = mesh.cell_neighbours
    valid = nb >= 0
    nbc = np.where(valid, nb, 0)
    dx = np.where(valid, xc[nbc] - xc[:, None], 0.0)
    dy = np.where(valid, yc[nbc] - yc[:, None], 0.0)
    dphi = np.where(valid, phi[nbc] - phi[:, None], 0.0)

    a11 = corner_reduce(np.add, dx * dx)
    a12 = corner_reduce(np.add, dx * dy)
    a22 = corner_reduce(np.add, dy * dy)
    b1 = corner_reduce(np.add, dx * dphi)
    b2 = corner_reduce(np.add, dy * dphi)
    det = a11 * a22 - a12 * a12
    scale = np.maximum(a11 * a22, a12 * a12)
    ok = det > 1e-12 * np.maximum(scale, _TINY)
    safe_det = np.where(ok, det, 1.0)
    gx = np.where(ok, (a22 * b1 - a12 * b2) / safe_det,
                  np.where(a11 > _TINY, b1 / np.maximum(a11, _TINY), 0.0))
    gy = np.where(ok, (a11 * b2 - a12 * b1) / safe_det,
                  np.where(a22 > _TINY, b2 / np.maximum(a22, _TINY), 0.0))

    if limit:
        nb_phi = np.where(valid, phi[nbc], phi[:, None])
        phi_min = np.minimum(phi, corner_reduce(np.minimum, nb_phi))
        phi_max = np.maximum(phi, corner_reduce(np.maximum, nb_phi))
        d = gx[:, None] * dx + gy[:, None] * dy
        alpha = _two_pass_barth_jespersen(phi, phi_min, phi_max, d)
        gx = gx * alpha
        gy = gy * alpha
    return gx, gy


def _fields(mesh, seed):
    """ρ, e and p with a step (cells equal to their bounds, so the
    limiter meets ±0 ratios), a flat region and noise."""
    rng = np.random.default_rng(seed)
    xc, yc = mesh.cell_centroids()
    step = xc + 0.3 * yc < np.median(xc + 0.3 * yc)
    rho = np.where(step, 1.0, 0.125) + 0.05 * rng.random(mesh.ncell) * ~step
    e = np.where(step, 2.5, 2.0 + rng.random(mesh.ncell))
    p = 0.4 * rho * e
    return {"rho": rho, "e": e, "p": p}


_BITWISE_MESHES = {
    "rect24": lambda: rect_mesh(24, 24),
    "wonky": lambda: perturbed_mesh(6, 5, amplitude=0.25, seed=42),
    "pinwheel": lambda: pinwheel_mesh(nquads=5),
    "permuted": lambda: renumbered_mesh(perturbed_mesh(9, 7, amplitude=0.2,
                                                       seed=1), seed=3),
    "tube8x1": lambda: rect_mesh(8, 1, (0.0, 1.0, 0.0, 0.1)),
    "tube1x8": lambda: rect_mesh(1, 8, (0.0, 0.1, 0.0, 1.0)),
}


def _assert_bitwise(mesh, seed):
    xc, yc = median_points(mesh, mesh.x, mesh.y)[2:]
    for name, phi in _fields(mesh, seed).items():
        for limit in (True, False):
            got = cell_gradients(mesh, xc, yc, phi, limit=limit)
            want = _two_pass_gradients(mesh, xc, yc, phi, limit=limit)
            for g, w in zip(got, want):
                assert np.array_equal(g.view(np.int64), w.view(np.int64)), (
                    f"{name} limit={limit}: gradients differ in "
                    f"{np.count_nonzero(g.view(np.int64) != w.view(np.int64))}"
                    " cells")


@pytest.mark.parametrize("kind", sorted(_BITWISE_MESHES))
def test_gradients_bitwise_equal_the_two_pass_formula(kind):
    mesh = _BITWISE_MESHES[kind]()
    _assert_bitwise(mesh, seed=len(kind))
    if kind.startswith("tube"):
        # every cell of a tube takes the degenerate-stencil fallback
        xc, yc = median_points(mesh, mesh.x, mesh.y)[2:]
        assert least_squares_stencil(mesh, xc, yc).degenerate.size == (
            mesh.ncell)


def test_gradients_bitwise_on_two_meshes_back_to_back():
    """Nothing per mesh is cached outside the mesh: a second mesh in
    the same process (and the first again) gets its own stencil."""
    for kind in ("rect24", "wonky", "rect24", "tube8x1", "wonky"):
        _assert_bitwise(_BITWISE_MESHES[kind](), seed=7)
