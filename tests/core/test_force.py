"""Unit tests for the corner-force assembly (getforce).

Corner arrays are corner-major: ``f[k, c]`` is corner ``k`` of cell ``c``.
"""

import numpy as np
import pytest

from repro.core import geometry
from repro.core.controls import HydroControls
from repro.core.corners import StepCorners
from repro.core.force import getforce, pressure_forces
from repro.mesh.generator import rect_mesh, single_cell_mesh


def _pressure(cx, cy, p):
    """Pressure corner forces of gathered corner coordinates."""
    return pressure_forces(*geometry.volume_gradients(cx, cy), p)


def test_pressure_force_direction_square():
    """Positive pressure pushes every corner outward."""
    mesh = single_cell_mesh()
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    fx, fy = _pressure(cx, cy, np.array([2.0]))
    centre = np.array([0.5, 0.5])
    for k in range(4):
        corner = np.array([cx[k, 0], cy[k, 0]])
        outward = corner - centre
        assert fx[k, 0] * outward[0] + fy[k, 0] * outward[1] > 0.0


def test_pressure_force_magnitude_square():
    """Unit square, p=1: each corner gets (±1/2, ±1/2)."""
    mesh = single_cell_mesh()
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    fx, fy = _pressure(cx, cy, np.array([1.0]))
    np.testing.assert_allclose(np.abs(fx), 0.5)
    np.testing.assert_allclose(np.abs(fy), 0.5)


def test_pressure_force_momentum_free(wonky_mesh):
    cx, cy = geometry.gather(wonky_mesh, wonky_mesh.x, wonky_mesh.y)
    p = np.linspace(1.0, 2.0, wonky_mesh.ncell)
    fx, fy = _pressure(cx, cy, p)
    np.testing.assert_allclose(fx.sum(axis=0), 0.0, atol=1e-13)
    np.testing.assert_allclose(fy.sum(axis=0), 0.0, atol=1e-13)


def test_uniform_pressure_assembles_to_zero_on_interior_nodes():
    """Constant pressure exerts no net force on interior nodes."""
    mesh = rect_mesh(4, 4)
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    fx, fy = _pressure(cx, cy, np.ones(mesh.ncell))
    node_fx = np.bincount(mesh.cell_nodes.ravel(), weights=fx.T.ravel(),
                          minlength=mesh.nnode)
    node_fy = np.bincount(mesh.cell_nodes.ravel(), weights=fy.T.ravel(),
                          minlength=mesh.nnode)
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    np.testing.assert_allclose(node_fx[interior], 0.0, atol=1e-13)
    np.testing.assert_allclose(node_fy[interior], 0.0, atol=1e-13)


def test_pressure_gradient_accelerates_towards_low_pressure():
    mesh = rect_mesh(4, 1, (0.0, 4.0, 0.0, 1.0))
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    xc, _ = mesh.cell_centroids()
    p = 4.0 - xc            # decreasing to the right
    fx, fy = _pressure(cx, cy, p)
    node_fx = np.bincount(mesh.cell_nodes.ravel(), weights=fx.T.ravel(),
                          minlength=mesh.nnode)
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    # actually all nodes of this single-row mesh are boundary; use nodes
    # strictly inside in x instead
    inner_x = (mesh.x > 0.5) & (mesh.x < 3.5)
    assert np.all(node_fx[inner_x] > 0.0)


def _corners(mesh, s):
    return StepCorners(mesh, s["x"], s["y"], s["u"], s["v"])


def _full_force(mesh, state_like, controls):
    return getforce(
        mesh, _corners(mesh, state_like), state_like["p"],
        state_like["rho"], state_like["cs2"],
        np.zeros((4, mesh.ncell)), np.zeros((4, mesh.ncell)),
        state_like["corner_mass"], state_like["corner_volume"],
        state_like["volume"], controls,
    )


def _state_dict(mesh, u=None, v=None):
    cx, cy = geometry.gather(mesh, mesh.x, mesh.y)
    vol = geometry.cell_volumes(cx, cy)
    cvol = geometry.corner_volumes(cx, cy)
    return {
        "x": mesh.x, "y": mesh.y,
        "u": np.zeros(mesh.nnode) if u is None else u,
        "v": np.zeros(mesh.nnode) if v is None else v,
        "p": np.ones(mesh.ncell),
        "rho": np.ones(mesh.ncell),
        "cs2": np.ones(mesh.ncell),
        "volume": vol,
        "corner_volume": cvol,
        "corner_mass": cvol.copy(),
    }


def test_getforce_sums_viscous_input(wonky_mesh):
    """The viscous corner forces pass through additively."""
    mesh = wonky_mesh
    s = _state_dict(mesh)
    controls = HydroControls()
    fq = np.ones((4, mesh.ncell))
    fx0, fy0 = getforce(mesh, _corners(mesh, s), s["p"], s["rho"],
                        s["cs2"], np.zeros_like(fq), np.zeros_like(fq),
                        s["corner_mass"], s["corner_volume"], s["volume"],
                        controls)
    fx1, fy1 = getforce(mesh, _corners(mesh, s), s["p"], s["rho"],
                        s["cs2"], fq, 2 * fq,
                        s["corner_mass"], s["corner_volume"], s["volume"],
                        controls)
    np.testing.assert_allclose(fx1 - fx0, 1.0)
    np.testing.assert_allclose(fy1 - fy0, 2.0)


def test_getforce_hourglass_terms_off_by_default(wonky_mesh):
    """κ = 0 controls add nothing even with distorted corner masses."""
    mesh = wonky_mesh
    s = _state_dict(mesh)
    s["corner_mass"] = (s["corner_mass"]
                        * np.array([2.0, 0.5, 2.0, 0.5])[:, None])
    controls = HydroControls()   # kappas default to 0
    fx, fy = _full_force(mesh, s, controls)
    cx, cy = geometry.gather(mesh, s["x"], s["y"])
    px, py = _pressure(cx, cy, s["p"])
    np.testing.assert_array_equal(fx, px)
    np.testing.assert_array_equal(fy, py)


def test_getforce_subzonal_resists_corner_compression(wonky_mesh):
    mesh = wonky_mesh
    s = _state_dict(mesh)
    # over-massed corners -> positive subzonal dp -> extra outward force
    s["corner_mass"] = s["corner_volume"] * 2.0
    controls = HydroControls(subzonal_kappa=1.0)
    fx, fy = _full_force(mesh, s, controls)
    cx, cy = geometry.gather(mesh, s["x"], s["y"])
    px, py = _pressure(cx, cy, s["p"])
    assert np.abs(fx - px).max() > 0.0
    # and momentum is still conserved per cell
    np.testing.assert_allclose((fx - px).sum(axis=0), 0.0, atol=1e-13)


def test_getforce_filter_damps_hourglass_velocity(unit_square_mesh):
    mesh = unit_square_mesh
    s = _state_dict(mesh)
    controls = HydroControls(filter_kappa=0.5)
    # paint an hourglass pattern on one cell's corners
    u = np.zeros(mesh.nnode)
    u[mesh.cell_nodes[0]] = [1.0, -1.0, 1.0, -1.0]
    s["u"] = u
    fx, fy = _full_force(mesh, s, controls)
    cx, cy = geometry.gather(mesh, s["x"], s["y"])
    px, py = _pressure(cx, cy, s["p"])
    extra = fx[:, 0] - px[:, 0]
    # damping force opposes the pattern
    assert np.all(extra * np.array([1.0, -1.0, 1.0, -1.0]) < 0.0)
