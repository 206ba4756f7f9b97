"""Unit tests for the Hydro driver."""

import numpy as np
import pytest

from repro.core.controls import HydroControls
from repro.core.hydro import Hydro
from repro.metrics import DiagnosticsProbe
from repro.problems import load_problem
from repro.utils.timers import TimerRegistry


def _sod(**kw):
    return load_problem("sod", nx=20, ny=2, **kw)


def test_first_step_uses_dt_initial():
    hydro = _sod(time_end=1.0).make_hydro()
    dt = hydro.step()
    assert dt == hydro.controls.dt_initial
    assert hydro.dt_reason == "initial"


def test_first_step_clamped_to_time_end():
    setup = _sod(time_end=1.0)
    setup.controls = setup.controls.with_(time_end=5e-5, dt_initial=1e-3)
    hydro = setup.make_hydro()
    dt = hydro.step()
    assert dt == pytest.approx(5e-5)
    assert hydro.done()


def test_run_reaches_time_end_exactly():
    hydro = _sod(time_end=0.01).make_hydro()
    hydro.run()
    assert hydro.time == pytest.approx(0.01, rel=1e-12)
    assert hydro.done()


def test_run_respects_max_steps():
    hydro = _sod(time_end=1.0).make_hydro()
    taken = hydro.run(max_steps=5)
    assert taken == 5
    assert hydro.nstep == 5
    assert not hydro.done()


def test_run_resumable():
    hydro = _sod(time_end=0.02).make_hydro()
    hydro.run(max_steps=3)
    t_mid = hydro.time
    hydro.run()
    assert hydro.time > t_mid
    assert hydro.done()


def test_observers_called_each_step():
    hydro = _sod(time_end=1.0).make_hydro()
    seen = []
    hydro.observers.append(lambda h: seen.append(h.nstep))
    hydro.run(max_steps=4)
    assert seen == [1, 2, 3, 4]


def test_diagnostics_keys():
    """A Hydro's diagnostics are its probe's record."""
    hydro = _sod(time_end=1.0).make_hydro()
    hydro.probe = DiagnosticsProbe(every=1)
    hydro.step()
    diag = hydro.probe.last_sample
    assert diag["nstep"] == 1
    for key in ("time", "nstep", "dt", "mass", "total_energy",
                "momentum_x", "rho_max"):
        assert key in diag


def test_dt_growth_limits_ramp():
    hydro = _sod(time_end=1.0).make_hydro()
    hydro.step()
    dt_prev = hydro.dt
    hydro.step()
    assert hydro.dt <= hydro.controls.dt_growth * dt_prev * (1 + 1e-12)


def test_timers_populated():
    timers = TimerRegistry()
    hydro = _sod(time_end=1.0).make_hydro(timers=timers)
    hydro.run(max_steps=3)
    assert timers.calls("getq") == 6
    assert timers.calls("getdt") == 2   # not on the first step


def test_ale_remapper_constructed_from_controls():
    setup = _sod(time_end=1.0, ale_on=True)
    hydro = setup.make_hydro()
    assert hydro.remapper is not None
    hydro.run(max_steps=2)
    # Eulerian remap: the mesh returns to its initial coordinates
    np.testing.assert_allclose(hydro.state.x, setup.state.mesh.x, atol=1e-12)


def test_lagrangian_has_no_remapper():
    hydro = _sod(time_end=1.0).make_hydro()
    assert hydro.remapper is None


def test_ale_every_cadence():
    setup = _sod(time_end=1.0, ale_on=True)
    setup.controls = setup.controls.with_(ale_every=3)
    hydro = setup.make_hydro()
    timers = hydro.timers
    hydro.run(max_steps=6)
    assert timers.calls("alestep") == 2
