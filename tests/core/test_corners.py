"""The per-step corner bundle (``repro.core.corners.StepCorners``).

One bundle per step feeds ``getdt`` and both halves of ``lagstep``:
each quantity is computed once (only the velocity jumps and |Δu|²,
which the predictor's ``getq`` consumes, are rebuilt for the
corrector), nothing outlives the step, and in a decomposed run the
stale-strip refresh after the kinematic halo leaves every column equal
to a fresh fill — compared as int64 views, so a sign of zero or a NaN
payload counts.
"""

import numpy as np
import pytest

from repro.core import corners as corners_mod
from repro.core.corners import SPECS, StepCorners
from repro.core.hydro import Hydro
from repro.parallel.distributed import DistributedHydro
from repro.perf.workspace import Workspace
from repro.problems import load_problem


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int8 if a.dtype == np.bool_ else np.int64)


def test_refresh_equals_a_fresh_fill_on_every_column(monkeypatch):
    """Threads x2 Sod 16²: after ``complete_kinematics``, every
    quantity ``getdt`` filled before the halo equals, on every column,
    the same quantity filled from the post-halo nodal arrays."""
    checked = []
    refresh = StepCorners.refresh

    def checked_refresh(self, cells, cell_nodes):
        refresh(self, cells, cell_nodes)
        x, y = self._nodal["xy"]
        u, v = self._nodal["uv"]
        fresh = StepCorners(self.mesh, x, y, u, v)
        for name in SPECS:
            held = vars(self).get(name)
            if held is None:
                continue
            for mine, ref in zip(held, getattr(fresh, name)):
                assert np.array_equal(_bits(mine), _bits(ref)), name
            checked.append((len(cells), name))

    monkeypatch.setattr(StepCorners, "refresh", checked_refresh)
    setup = load_problem("sod", nx=16, ny=16)
    DistributedHydro(setup, 2, backend="threads").run(max_steps=4)
    names = {name for _, name in checked}
    assert {"positions", "velocities", "edges", "grad_v"} <= names
    assert all(ncells > 0 for ncells, _ in checked)


@pytest.mark.parametrize("problem", ["sod", "saltzmann"])
def test_each_quantity_is_computed_once_per_step(monkeypatch, problem):
    """One warm step computes every quantity of the bundle once, and the
    half-step view its own geometry once; the velocity jumps and |Δu|²
    twice (``getq`` consumes them).  Saltzmann has both hourglass
    remedies on."""
    made = []

    def counting(name, fill):
        def counted(inputs, out, ws):
            made.append(name)
            return fill(inputs, out, ws)
        return counted

    gathers = []
    gather = corners_mod.gather

    def counting_gather(mesh, x, y, out):
        gathers.append("positions" if x is mesh_x[0] else "velocities")
        return gather(mesh, x, y, out=out)

    setup = load_problem(problem, nx=12, ny=12)
    mesh_x = [setup.state.x]
    hydro = Hydro(setup.state, setup.table, setup.controls)
    hydro.step()
    for name, spec in SPECS.items():
        if spec[-1] is not None:
            monkeypatch.setitem(SPECS, name,
                                spec[:-1] + (counting(name, spec[-1]),))
    monkeypatch.setattr(corners_mod, "gather", counting_gather)
    hydro.step()
    assert sorted(gathers) == ["positions", "velocities"]
    assert sorted(made) == sorted([
        "edges", "edges",                  # x^n, then the half step
        "grad_v", "grad_v",
        "centroids",                       # x^n's; getgeom makes x_h's
        "jumps", "jumps", "jump_sq", "jump_sq", "jump", "rigid"])


def _outstanding(ws: Workspace) -> int:
    """Borrowed blocks not back on the free-lists."""
    return ws._borrowed_count - sum(len(v) for v in ws._free.values())


@pytest.mark.parametrize("kwargs", [{}, {"viscosity_form": "bulk"},
                                    {"ale_on": True}])
def test_nothing_outlives_the_step(kwargs):
    setup = load_problem("sod", nx=10, ny=10, **kwargs)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(3):
        hydro.step()
        assert _outstanding(hydro.workspace) == 0


def test_a_standalone_lagstep_builds_and_closes_its_own_bundle():
    from repro.core.lagstep import lagstep

    setup = load_problem("sod", nx=10, ny=10)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    ws = Workspace()
    for _ in range(2):
        lagstep(setup.state, setup.table, setup.controls, 1e-4,
                hydro.timers, hydro.gamma, ws=ws)
        assert _outstanding(ws) == 0


def test_a_taken_quantity_is_rebuilt_and_a_view_shares_velocities():
    setup = load_problem("sod", nx=6, ny=6)
    c = StepCorners.of(setup.state, Workspace())
    dux, duy = c.take("jumps")
    again = c.jumps
    assert again[0] is not dux
    assert np.array_equal(_bits(again[0]), _bits(dux))
    cx, cy = c.positions
    view = c.moved(cx + 1.0, cy, c.centroids)
    assert view.velocities is c.velocities
    assert view.jumps is c.jumps
    assert np.array_equal(_bits(view.edges[1]), _bits(c.edges[1]))
    c.close()
    c.ws.release(dux, duy)
    assert _outstanding(c.ws) == 0
