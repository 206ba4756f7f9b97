"""Health sentinels: NaN/negativity trips, forensics, decomposed ids.

The invariant-domain contract: poisoned state must never flow silently
through the run — the probe raises a structured
:class:`~repro.utils.errors.HealthError` naming the offending cells
and leaves a snapshot of the full state behind that can be read
without the deck and overlaid into a fresh driver.
"""

import json

import numpy as np
import pytest

from repro.api import run
from repro.core.state import HydroState
from repro.eos import IdealGas
from repro.metrics import DiagnosticsProbe
from repro.output.restart import read_restart, thaw
from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.errors import BookLeafError, HealthError


def _hydro(steps=3, probe=None):
    setup = load_problem("noh", nx=8, ny=8)
    hydro = setup.make_hydro()
    hydro.probe = probe
    hydro.run(max_steps=steps)
    return hydro


def test_nan_injection_names_cell_and_dumps_snapshot(tmp_path):
    snap = tmp_path / "snap.state"
    hydro = _hydro(steps=3)
    hydro.state.rho[7] = np.nan
    probe = DiagnosticsProbe(every=1, snapshot_path=str(snap))
    with pytest.raises(HealthError) as exc:
        probe.sample(hydro)
    err = exc.value
    assert err.violations == {"nonfinite:rho": [7]}
    assert err.cells() == [7]
    assert err.nstep == 3
    assert err.rank is None  # serial: no rank noise in the message
    assert "nonfinite:rho" in str(err)
    assert str(snap) in str(err)

    snap = read_restart(err.snapshot)
    for field in HydroState.field_names() + ("cell_nodes", "mesh_x0"):
        assert field in snap.arrays, field
    assert np.isnan(snap.arrays["rho"][7])
    assert snap.nstep == 3
    assert snap.extra == {"rank": 0,
                          "violations": {"nonfinite:rho": [7]}}


def test_snapshot_overlays_into_a_fresh_hydro(tmp_path):
    """The forensic dump is an ordinary snapshot: thawed into a freshly
    built driver it reproduces the offending arrays bit for bit, with
    the clocks, so the sick step can be re-run under a debugger."""
    hydro = _hydro(steps=3)
    hydro.state.e[5] = -2.0
    probe = DiagnosticsProbe(every=1,
                             snapshot_path=str(tmp_path / "snap"))
    with pytest.raises(HealthError) as exc:
        probe.sample(hydro)
    assert exc.value.snapshot == str(tmp_path / "snap")

    fresh = load_problem("noh", nx=8, ny=8).make_hydro()
    thaw(fresh, read_restart(exc.value.snapshot))
    for name, stored in hydro.state.arrays().items():
        assert fresh.state.arrays()[name].tobytes() == stored.tobytes(), name
    assert (fresh.nstep, fresh.time, fresh.dt) == \
        (hydro.nstep, hydro.time, hydro.dt)
    assert fresh.state.sentinel_scan() != {}


@pytest.mark.parametrize("poison, expect", [
    (lambda s: s.e.__setitem__(4, -1.0), "negative:e"),
    (lambda s: s.rho.__setitem__(4, 0.0), "nonpositive:rho"),
    (lambda s: s.volume.__setitem__(4, -1e-9), "nonpositive:volume"),
    (lambda s: s.cell_mass.__setitem__(4, 0.0), "nonpositive:cell_mass"),
    (lambda s: s.p.__setitem__(4, np.inf), "nonfinite:p"),
])
def test_each_sentinel_class_trips(tmp_path, poison, expect):
    hydro = _hydro(steps=3)
    poison(hydro.state)
    probe = DiagnosticsProbe(every=1,
                             snapshot_path=str(tmp_path / "s.state"))
    with pytest.raises(HealthError) as exc:
        probe.sample(hydro)
    assert expect in exc.value.violations
    assert 4 in exc.value.violations[expect]


def test_cell_ids_globalised_but_node_ids_stay_local(tmp_path):
    """With a local→global map, cell-field ids are reported globally;
    node-field ids stay local (the rank disambiguates them)."""
    hydro = _hydro(steps=2)
    ncell = hydro.state.rho.size
    cell_global = np.arange(ncell) + 1000
    hydro.state.rho[7] = np.nan
    hydro.state.u[5] = np.inf
    probe = DiagnosticsProbe(every=1, cell_global=cell_global,
                             snapshot_path=str(tmp_path / "s.state"))
    with pytest.raises(HealthError) as exc:
        probe.sample(hydro)
    assert exc.value.violations["nonfinite:rho"] == [1007]
    assert exc.value.violations["nonfinite:u"] == [5]


def test_probe_closes_sink_on_trip_and_keeps_stream(tmp_path):
    """A trip mid-run must not lose what was already streamed."""
    def poisoner(hydro):
        if hydro.nstep == 3:
            hydro.state.rho[0] = np.nan

    setup = load_problem("noh", nx=8, ny=8)
    hydro = setup.make_hydro()
    path = tmp_path / "m.ndjson"
    probe = DiagnosticsProbe(every=1, sink_path=str(path),
                             snapshot_path=str(tmp_path / "s.state"))
    hydro.probe = probe
    # step observers run before the probe's sample, so the poison is
    # seen by the very step that plants it
    hydro.observers.append(poisoner)
    with pytest.raises(HealthError):
        hydro.run(max_steps=10)
    probe.close()
    assert probe._sink is None
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["nstep"] for r in rows] == [0, 1, 2]


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_decomposed_trip_aborts_run_and_names_rank(
        tmp_path, monkeypatch, backend):
    """A rank-local NaN must abort the whole run (no hung peers) with
    the sick rank named and a global cell id in the snapshot."""
    orig = DiagnosticsProbe.on_step

    def on_step(self, hydro):
        if hydro.comms.rank == 1 and hydro.nstep == 3:
            mask = hydro.comms.owned_cell_mask(hydro.state)
            hydro.state.rho[int(np.flatnonzero(mask)[0])] = np.nan
        return orig(self, hydro)

    monkeypatch.setattr(DiagnosticsProbe, "on_step", on_step)
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(
        setup, 2, backend=backend, metrics_every=1,
        snapshot_dir=str(tmp_path),
    )
    with pytest.raises(BookLeafError, match="rank 1 failed") as exc:
        driver.run(max_steps=10)
    message = str(exc.value) + str(exc.value.__cause__)
    assert "health sentinel tripped" in message
    assert "nonfinite:rho" in message
    assert "rank 1" in message

    snap = tmp_path / "HEALTH_snapshot_rank1.state"
    assert snap.exists()
    loaded = read_restart(snap)
    assert loaded.extra["rank"] == 1 and loaded.nstep == 3
    (cell_id,) = loaded.extra["violations"]["nonfinite:rho"]
    # the id is global: rank 1's snapshot holds only its subdomain,
    # yet the reported cell indexes the full 16x16 mesh
    assert 0 <= cell_id < 256
    assert np.isnan(loaded.arrays["rho"]).any()


def test_negative_e_rule_follows_the_eos():
    """e >= 0 is admissible-set membership only for an ideal gas: the
    Tait water of water_air reaches e < 0 on healthy states and is not
    scanned, the air is."""
    setup = load_problem("water_air")
    cells = setup.table.nonnegative_e_cells(setup.state.mat)
    air = [i for i, eos in enumerate(setup.table.eos)
           if isinstance(eos, IdealGas)]
    assert np.array_equal(cells, np.isin(setup.state.mat, air))
    single = load_problem("noh", nx=4, ny=4)
    assert single.table.nonnegative_e_cells(single.state.mat) is None


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_water_air_completes_with_the_probe_every_step(backend):
    nranks = 2 if backend == "processes" else 1
    result = run(problem="water_air", metrics_every=1, nranks=nranks,
                 backend=backend)
    assert result.nstep == 331
    assert [r["nstep"] for r in result.metrics_rows] == list(range(332))


def test_negative_ideal_gas_e_still_trips_at_step_1(tmp_path):
    """The rule narrows by material, not away: a negative e in an air
    cell of the same run trips at the step that planted it, and names
    only that cell."""
    setup = load_problem("water_air")
    hydro = setup.make_hydro()
    air = int(np.flatnonzero(setup.table.nonnegative_e_cells(
        hydro.state.mat))[0])

    def poisoner(h):
        if h.nstep == 1:
            h.state.e[air] = -1.0

    hydro.observers.append(poisoner)
    hydro.probe = DiagnosticsProbe(
        every=1, snapshot_path=str(tmp_path / "s.state"))
    with pytest.raises(HealthError) as exc:
        hydro.run(max_steps=5)
    assert exc.value.nstep == 1
    assert exc.value.violations == {"negative:e": [air]}
