"""Unit tests for the hourglass-control forces.

Corner arrays are corner-major, (4, ncell); the subzone gradients are
``[subzone, node, cell]``.
"""

import numpy as np
import pytest

from repro.core import geometry, hourglass
from repro.mesh.generator import rect_mesh, single_cell_mesh


def _geom(mesh):
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    return cx, cy, geometry.cell_volumes(cx, cy), geometry.corner_volumes(cx, cy)


def test_subzonal_zero_for_uniform_subzonal_density():
    mesh = rect_mesh(3, 3)
    cx, cy, vol, cvol = _geom(mesh)
    corner_mass = cvol * 1.7        # uniform density 1.7
    fx, fy = hourglass.subzonal_pressure_forces(
        cx, cy, corner_mass, cvol, np.full(mesh.ncell, 1.7),
        np.ones(mesh.ncell), kappa=1.0,
    )
    np.testing.assert_allclose(fx, 0.0, atol=1e-13)
    np.testing.assert_allclose(fy, 0.0, atol=1e-13)


def test_subzonal_forces_conserve_momentum():
    mesh = rect_mesh(3, 3)
    cx, cy, vol, cvol = _geom(mesh)
    rng = np.random.default_rng(1)
    corner_mass = cvol * rng.uniform(0.5, 2.0, size=cvol.shape)
    fx, fy = hourglass.subzonal_pressure_forces(
        cx, cy, corner_mass, cvol, np.ones(mesh.ncell),
        np.ones(mesh.ncell), kappa=1.0,
    )
    np.testing.assert_allclose(fx.sum(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(fy.sum(axis=0), 0.0, atol=1e-12)


def test_subzonal_scales_linearly_with_kappa():
    mesh = single_cell_mesh()
    cx, cy, vol, cvol = _geom(mesh)
    corner_mass = cvol * np.array([[2.0], [0.5], [2.0], [0.5]])
    args = (cx, cy, corner_mass, cvol, np.ones(1), np.ones(1))
    f1x, _ = hourglass.subzonal_pressure_forces(*args, kappa=1.0)
    f2x, _ = hourglass.subzonal_pressure_forces(*args, kappa=2.0)
    np.testing.assert_allclose(f2x, 2.0 * f1x)


def test_subzonal_restores_hourglassed_corner_volumes():
    """Over-dense corners are pushed to expand (force along the
    subzone volume gradient)."""
    mesh = single_cell_mesh()
    cx, cy, vol, cvol = _geom(mesh)
    corner_mass = cvol.copy()
    corner_mass[0, 0] *= 2.0       # corner 0 over-dense
    fx, fy = hourglass.subzonal_pressure_forces(
        cx, cy, corner_mass, cvol, np.ones(1), np.ones(1), kappa=1.0,
    )
    gx, gy = geometry.subzone_volume_gradients(cx, cy)
    # the force component from subzone 0 pushes node 0 along +grad V_0
    assert fx[0, 0] * gx[0, 0, 0] + fy[0, 0] * gy[0, 0, 0] > 0.0
    # and every other node j feels subzone 0 along its own ∂V_0/∂x_j
    for j in range(1, 4):
        assert fx[j, 0] == pytest.approx(gx[0, j, 0])
        assert fy[j, 0] == pytest.approx(gy[0, j, 0])


def test_filter_zero_for_rigid_motion():
    mesh = rect_mesh(2, 2)
    cu = np.ones((4, mesh.ncell)) * 2.0
    cv = np.ones((4, mesh.ncell)) * -1.0
    fx, fy = hourglass.hourglass_filter_forces(
        cu, cv, np.ones(mesh.ncell), np.ones(mesh.ncell),
        np.ones(mesh.ncell), kappa=1.0,
    )
    np.testing.assert_allclose(fx, 0.0)
    np.testing.assert_allclose(fy, 0.0)


def test_filter_zero_for_linear_stretching():
    """Γ is orthogonal to linear deformation modes on the unit square."""
    mesh = single_cell_mesh()
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    cu = cx.copy()      # u = x: uniform stretch
    cv = cy.copy()
    fx, fy = hourglass.hourglass_filter_forces(
        cu, cv, np.ones(1), np.ones(1), np.ones(1), kappa=1.0,
    )
    np.testing.assert_allclose(fx, 0.0, atol=1e-14)
    np.testing.assert_allclose(fy, 0.0, atol=1e-14)


def test_filter_damps_hourglass_mode_and_dissipates():
    cu = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    cv = np.zeros((4, 1))
    fx, fy = hourglass.hourglass_filter_forces(
        cu, cv, np.ones(1), np.ones(1), np.ones(1), kappa=0.3,
    )
    work = (fx * cu + fy * cv).sum()
    assert work < 0.0                       # strictly dissipative
    assert fx.sum() == pytest.approx(0.0)   # momentum free
    assert np.all(fx[:, 0] * cu[:, 0] < 0.0)  # opposes the pattern


def test_hourglass_amplitude_diagnostic():
    cu = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, 1.0, 1.0]])
    cv = np.zeros((2, 4))
    amp = hourglass.hourglass_amplitude(cu, cv)
    assert amp[0] == pytest.approx(1.0)
    assert amp[1] == pytest.approx(0.0)


@pytest.mark.parametrize("kind", ["grid", "permuted", "pinwheel"])
def test_spelled_out_associations_are_numpys_own(kind):
    """The filter amplitude is the ``(n, 4) @ Γ`` matvec and the
    subzonal contraction is ``einsum("ci,cij->cj")`` — bit for bit, on
    operands wild enough to tell, whatever the mesh."""
    from repro.mesh.generator import pinwheel_mesh
    from tests.conftest import renumbered_mesh
    from tests.core.test_geometry import wide_operands

    mesh = {"grid": lambda: rect_mesh(9, 7),
            "permuted": lambda: renumbered_mesh(rect_mesh(9, 7), seed=3),
            "pinwheel": lambda: pinwheel_mesh(nquads=5)}[kind]()
    n = mesh.ncell
    rng = np.random.default_rng(23)
    a, b = wide_operands(rng, (n, 4)), wide_operands(rng, (n, 4))
    ones = np.ones(n)

    fx, fy = hourglass.hourglass_filter_forces(
        np.ascontiguousarray(a.T), np.ascontiguousarray(b.T),
        ones, ones, ones, 1.0)
    for f, c in ((fx, a), (fy, b)):
        amplitude = 0.25 * (c @ hourglass.GAMMA)
        assert np.array_equal(f.T, -amplitude[:, None] * hourglass.GAMMA)

    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    cmass, cvol = np.abs(a) + 1e-9, np.abs(b) + 1e-9
    sx, sy = hourglass.subzonal_pressure_forces(
        cx, cy, cmass.T, cvol.T, ones, ones, 1.0)
    dp = cmass / cvol - 1.0
    for f, grad in zip((sx, sy),
                       geometry.subzone_volume_gradients(cx, cy)):
        # [subzone i, node j, cell] -> [cell, i, j]
        assert np.array_equal(
            f.T, np.einsum("ci,cij->cj", dp, grad.transpose(2, 0, 1)))
