"""Tests for the bulk (von Neumann-Richtmyer) viscosity option."""

import numpy as np
import pytest

from repro.core import geometry, viscosity
from repro.core.controls import HydroControls
from repro.core.corners import StepCorners
from repro.mesh.generator import rect_mesh, single_cell_mesh
from repro.problems import load_problem
from repro.utils.errors import DeckError


def _bulk(mesh, u, v, cq1=0.5, cq2=0.75):
    corners = StepCorners(mesh, mesh.x, mesh.y, u, v)
    volume = geometry.cell_volumes(*corners.positions)
    return viscosity.bulk_q(
        mesh, corners,
        np.ones(mesh.ncell), np.ones(mesh.ncell), volume, cq1, cq2,
    )


def test_zero_at_rest(unit_square_mesh):
    mesh = unit_square_mesh
    q = _bulk(mesh, np.zeros(mesh.nnode), np.zeros(mesh.nnode))
    assert np.all(q == 0.0)


def test_zero_in_expansion(unit_square_mesh):
    mesh = unit_square_mesh
    q = _bulk(mesh, mesh.x - 0.5, mesh.y - 0.5)
    assert np.all(q == 0.0)


def test_zero_in_pure_shear(unit_square_mesh):
    """div u = 0 shear flow produces no bulk q (its blind spot)."""
    mesh = unit_square_mesh
    q = _bulk(mesh, mesh.y.copy(), np.zeros(mesh.nnode))
    np.testing.assert_allclose(q, 0.0, atol=1e-14)


def test_known_uniform_compression_value():
    """u = -x on a unit cell: div u = -1, Δ = 1, so
    q = cq2 ρ + cq1 ρ c_s exactly."""
    mesh = single_cell_mesh()
    q = _bulk(mesh, -mesh.x, np.zeros(4), cq1=0.5, cq2=0.75)
    assert q[0] == pytest.approx(0.75 + 0.5)


def test_length_scale_uses_short_dimension():
    """On a 4:1 cell compressed along the short axis, Δ must be the
    short side (the stability fix for anisotropic cells)."""
    coords = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [0.0, 1.0]])
    mesh = single_cell_mesh(coords)
    # compress along y: div u = -1, short side 1 -> du = 1
    q = _bulk(mesh, np.zeros(4), -mesh.y, cq1=0.0, cq2=1.0)
    assert q[0] == pytest.approx(1.0)


def test_quadratic_scaling(unit_square_mesh):
    mesh = unit_square_mesh
    q1 = _bulk(mesh, -(mesh.x - 0.5), np.zeros(mesh.nnode), cq1=0.0)
    q2 = _bulk(mesh, -2 * (mesh.x - 0.5), np.zeros(mesh.nnode), cq1=0.0)
    np.testing.assert_allclose(q2, 4.0 * q1, rtol=1e-12)


def test_unknown_form_rejected():
    with pytest.raises(DeckError, match="viscosity_form"):
        HydroControls(viscosity_form="tensor").validated()


@pytest.mark.parametrize("form", ["edge", "bulk"])
def test_sod_runs_with_both_forms(form):
    hydro = load_problem("sod", nx=50, ny=2, time_end=0.1,
                         viscosity_form=form).run()
    assert hydro.done()
    assert hydro.state.rho.min() > 0.1


def test_edge_form_beats_bulk_on_sod():
    """The design-choice result: the CSW edge form is at least as
    accurate as the bulk scalar on the standard shock tube."""
    from repro.analytic import sod_solution

    errors = {}
    for form in ("edge", "bulk"):
        hydro = load_problem("sod", nx=100, ny=2, time_end=0.2,
                             viscosity_form=form).run()
        state = hydro.state
        xc, _ = state.mesh.cell_centroids(state.x, state.y)
        rho_ex, _, _ = sod_solution().sample((xc - 0.5) / hydro.time)
        errors[form] = np.abs(state.rho - rho_ex).mean()
    assert errors["edge"] <= errors["bulk"] * 1.05


def test_bulk_form_energy_conserved():
    hydro = load_problem("sod", nx=40, ny=2, time_end=0.05,
                         viscosity_form="bulk").make_hydro()
    e0 = hydro.state.total_energy()
    hydro.run()
    assert hydro.state.total_energy() == pytest.approx(e0, rel=1e-12)
