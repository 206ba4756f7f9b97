"""Per-kernel lane identity: a ``repro.core`` kernel on the union mesh
against the same kernel on each lane alone.

The whole-run contract (``test_bit_identity.py``) says a lane and its
solo run end in the same bytes; when it breaks it does not say *where*.
This is the same comparison one kernel at a time: two different lanes
laid side by side on a :class:`~repro.ensemble.state.UnionMesh`, the
kernel called once on the union with the lanes' own step sizes and
viscosity coefficients as per-node / per-cell vectors, and every
lane's segment of every output equal, to the last bit, to the kernel
called on that lane's own mesh with scalars — on a rectangular grid
(where the solo nodal sums are window adds and the union's are
``bincount``'s), on the same grid with its nodes permuted, and on the
pinwheel mesh (irregular valence).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import geometry, viscosity
from repro.core.acceleration import getacc
from repro.core.controls import HydroControls
from repro.core.corners import StepCorners
from repro.core.energy import getein
from repro.core.force import getforce
from repro.core.state import HydroState
from repro.core.timestep import (dt_candidates, dt_fields,
                                 local_dt_candidates)
from repro.ensemble.state import EnsembleState
from repro.eos import IdealGas, MaterialTable
from repro.mesh.boundary import classify_box_boundary
from repro.mesh.generator import pinwheel_mesh, rect_mesh
from tests.conftest import renumbered_mesh

MESHES = {
    "grid": lambda: rect_mesh(9, 7),
    "permuted": lambda: renumbered_mesh(rect_mesh(9, 7), seed=3),
    "pinwheel": lambda: pinwheel_mesh(nquads=5),
}

CONTROLS = HydroControls(subzonal_kappa=0.3, filter_kappa=0.2)
#: per lane: non-dyadic, so a reassociated product would show
CQ1, CQ2, DT = (0.3, 0.45), (0.7, 0.9), (0.5, 0.3)


def _lane_state(mesh, table, seed):
    """A gas blob compressing on the left and expanding on the right,
    with noise, distorted corner masses and a non-zero q — active and
    inactive edges, and generic operands in every kernel."""
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell)
    e = table.eos[0].energy_from_pressure(rho, 1.0 + rng.random(mesh.ncell))
    xm, ym = mesh.x.mean(), mesh.y.mean()
    u = (-0.5 * np.sign(xm - mesh.x) * (mesh.x - xm)
         + 0.02 * rng.standard_normal(mesh.nnode))
    v = -0.1 * (mesh.y - ym) + 0.02 * rng.standard_normal(mesh.nnode)
    bc = classify_box_boundary(
        mesh, (mesh.x.min(), mesh.x.max(), mesh.y.min(), mesh.y.max()))
    state = HydroState.from_initial(mesh, table, rho, e, u=u, v=v, bc=bc)
    state.corner_mass *= 1.0 + 0.2 * rng.random((mesh.ncell, 4))
    state.q[:] = 0.1 * rng.random(mesh.ncell)
    return state


@pytest.fixture(params=sorted(MESHES))
def case(request):
    mesh = MESHES[request.param]()
    table = MaterialTable()
    table.add(IdealGas(1.4))
    lanes = [_lane_state(mesh, table, seed) for seed in (17, 18)]
    union = EnsembleState(lanes).union
    assert union.mesh.plans.grid_shape is None
    return SimpleNamespace(
        lanes=lanes, union=union, ncell=mesh.ncell, nnode=mesh.nnode,
        gamma=table.gamma_like(lanes[0].mat),
        cq1=np.repeat(CQ1, mesh.ncell), cq2=np.repeat(CQ2, mesh.ncell))


def _forces(state, gamma, cq1, cq2):
    """getgeom + getq + getforce (both hourglass remedies on)."""
    mesh = state.mesh
    cx, cy, volume, cvol = geometry.getgeom(mesh, state.x, state.y)
    corners = StepCorners.of(state)
    fqx, fqy, q_cell = viscosity.getq(
        mesh, corners, state.rho, state.cs2, gamma, cq1, cq2, True)
    fx, fy = getforce(mesh, corners, state.p, state.rho,
                      state.cs2, fqx, fqy, state.corner_mass.T, cvol,
                      volume, CONTROLS)
    return SimpleNamespace(cx=cx, cy=cy, volume=volume, cvol=cvol,
                           fqx=fqx, fqy=fqy, q_cell=q_cell, fx=fx, fy=fy)


def _both(c):
    """The force chain on the union and on each lane alone."""
    on_union = _forces(c.union, np.tile(c.gamma, 2), c.cq1, c.cq2)
    alone = [_forces(lane, c.gamma, CQ1[i], CQ2[i])
             for i, lane in enumerate(c.lanes)]
    return on_union, alone


def _assert_segments_equal(c, on_union, alone, names):
    """Lane i's segment of each named union output is lane i's own."""
    for i, solo in enumerate(alone):
        for name in names:
            whole = getattr(on_union, name)
            n = c.nnode if whole.shape[-1] == 2 * c.nnode else c.ncell
            segment = whole[..., i * n:(i + 1) * n]
            assert np.array_equal(segment, getattr(solo, name)), (i, name)


def test_getgeom(case):
    on_union, alone = _both(case)
    _assert_segments_equal(case, on_union, alone,
                           ("cx", "cy", "volume", "cvol"))


def test_getq(case):
    on_union, alone = _both(case)
    for solo in alone:                          # both kinds of edge
        assert solo.q_cell.max() > 0.0 and (solo.fqx == 0.0).any()
    _assert_segments_equal(case, on_union, alone, ("fqx", "fqy", "q_cell"))


def test_getforce_with_both_hourglass_remedies(case):
    on_union, alone = _both(case)
    _assert_segments_equal(case, on_union, alone, ("fx", "fy"))


def test_getein(case):
    on_union, alone = _both(case)
    u = case.union
    # work comparable to e: its last bits reach the result
    on_union.e = getein(u, on_union.fx, on_union.fy,
                        *StepCorners.of(u).velocities,
                        np.repeat(DT, case.ncell))
    for i, (lane, solo) in enumerate(zip(case.lanes, alone)):
        solo.e = getein(lane, solo.fx, solo.fy,
                        *StepCorners.of(lane).velocities, DT[i])
        assert not np.array_equal(solo.e, lane.e)
    _assert_segments_equal(case, on_union, alone, ("e",))


def test_getacc(case):
    """The nodal sums (``bincount`` on the union), the tiled boundary
    conditions and the per-node step size."""
    on_union, alone = _both(case)
    names = ("u_new", "v_new", "u_bar", "v_bar")
    for name, value in zip(names, getacc(case.union, on_union.fx,
                                         on_union.fy,
                                         np.repeat(DT, case.nnode))):
        setattr(on_union, name, value)
    for i, (lane, solo) in enumerate(zip(case.lanes, alone)):
        for name, value in zip(names, getacc(lane, solo.fx, solo.fy, DT[i])):
            setattr(solo, name, value)
    _assert_segments_equal(case, on_union, alone, names)


@pytest.mark.parametrize("controls", [
    HydroControls(),                            # cfl
    HydroControls(div_safety=1e-3),             # div
], ids=["cfl", "div"])
def test_dt_candidates(case, controls):
    ratio, rate = dt_fields(case.union, controls)
    for i, lane in enumerate(case.lanes):
        seg = slice(i * case.ncell, (i + 1) * case.ncell)
        mine = dt_candidates(ratio[seg], rate[seg], controls)
        assert mine == local_dt_candidates(lane, controls)
        reason = min(mine, key=lambda c: c[0])[1]
        assert reason == ("div" if controls.div_safety < 0.1 else "cfl")
