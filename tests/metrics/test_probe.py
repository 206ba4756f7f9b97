"""DiagnosticsProbe: cadence, conservation, streams, backend identity.

The acceptance contract of the live-metrics subsystem: sampling is
read-only (metrics on/off cannot change a single bit of the physics),
the NDJSON stream and the run report embed the *same* final record,
and the decomposed backends produce metrics streams identical to each
other and matching the serial totals to round-off.
"""

import json
import math

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.metrics import METRICS_SCHEMA_VERSION, DiagnosticsProbe
from repro.metrics.prometheus import exposition, run_samples
from repro.problems import load_problem

REQUIRED_KEYS = {
    "schema_version", "nstep", "time", "dt", "dt_reason", "dt_cell",
    "nranks", "mass", "internal_energy", "kinetic_energy",
    "total_energy", "mass_drift", "energy_drift", "momentum_x",
    "momentum_y", "hourglass_energy", "vol_min", "rho_min", "rho_max",
    "p_min", "p_max", "sentinel_trips",
}


def _config(**over):
    base = dict(problem="noh", nx=12, ny=12, max_steps=12)
    base.update(over)
    return RunConfig(**base)


def test_cadence_validation():
    with pytest.raises(ValueError, match="cadence"):
        DiagnosticsProbe(every=0)


def test_resolved_metrics_every():
    assert RunConfig(problem="noh").resolved_metrics_every() == 0
    assert RunConfig(problem="noh", metrics="m.ndjson") \
        .resolved_metrics_every() == RunConfig.DEFAULT_METRICS_EVERY
    assert RunConfig(problem="noh", metrics_every=3) \
        .resolved_metrics_every() == 3
    # explicit 0 force-disables even with a path set
    assert RunConfig(problem="noh", metrics="m.ndjson",
                     metrics_every=0).resolved_metrics_every() == 0


def test_sampling_cadence_and_record_shape():
    result = run(_config(metrics_every=5))
    rows = result.metrics_rows
    # baseline, every 5th, and the forced final sample
    assert [r["nstep"] for r in rows] == [0, 5, 10, 12]
    for row in rows:
        assert set(row) == REQUIRED_KEYS
        assert row["schema_version"] == METRICS_SCHEMA_VERSION
        assert row["sentinel_trips"] == 0
        assert math.isfinite(row["total_energy"])


def test_energy_and_mass_conservation():
    """Compatible hydro: drift is round-off, not physics (paper III)."""
    result = run(_config(metrics_every=5))
    final = result.metrics_rows[-1]
    assert abs(final["energy_drift"]) < 1e-10
    assert abs(final["mass_drift"]) < 1e-12
    assert final["vol_min"] > 0
    assert final["rho_min"] > 0


def test_metrics_off_is_bit_identical():
    """metrics_every=0 leaves the hot loop untouched — and because the
    probe is read-only, metrics *on* must not change the physics
    either."""
    off = run(_config(metrics_every=0))
    on = run(_config(metrics_every=1))
    assert off.metrics_rows is None
    assert off.nstep == on.nstep and off.time == on.time
    for name in ("x", "y", "u", "v", "rho", "e", "p"):
        assert np.array_equal(getattr(off.state, name),
                              getattr(on.state, name)), name


def test_ndjson_stream_matches_report(tmp_path):
    path = tmp_path / "m.ndjson"
    result = run(_config(metrics=str(path), metrics_every=5))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert rows == result.metrics_rows
    report = result.report()
    assert report["diagnostics"] == rows[-1]


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_distributed_stream_matches_serial(tmp_path, backend):
    serial = run(_config(metrics_every=5))
    dist = run(_config(metrics=str(tmp_path / "m.ndjson"),
                       metrics_every=5, nranks=2, backend=backend))
    rows = [json.loads(line)
            for line in (tmp_path / "m.ndjson").read_text().splitlines()]
    assert rows == dist.metrics_rows
    assert [r["nstep"] for r in rows] == \
        [r["nstep"] for r in serial.metrics_rows]
    for s, d in zip(serial.metrics_rows, rows):
        assert d["nranks"] == 2
        assert d["mass"] == pytest.approx(s["mass"], rel=1e-12)
        assert d["total_energy"] == pytest.approx(s["total_energy"],
                                                  rel=1e-12)
        assert d["vol_min"] == pytest.approx(s["vol_min"], rel=1e-12)
        # the maxima ride the min collective negated: exact
        assert (d["rho_max"], d["p_max"]) == (s["rho_max"], s["p_max"])
        for name in ("momentum_x", "momentum_y"):
            assert d[name] == pytest.approx(s[name], rel=1e-12, abs=1e-14)


def test_threads_processes_metrics_bit_identical(tmp_path):
    """Same collective fold order → byte-identical streams."""
    a = run(_config(metrics=str(tmp_path / "a.ndjson"),
                    metrics_every=5, nranks=2, backend="threads"))
    b = run(_config(metrics=str(tmp_path / "b.ndjson"),
                    metrics_every=5, nranks=2, backend="processes"))
    assert a.metrics_rows == b.metrics_rows
    assert (tmp_path / "a.ndjson").read_text() == \
        (tmp_path / "b.ndjson").read_text()


def test_registry_carries_physics_timers_and_comm():
    """The exposition is a view of the finished run: the last
    diagnostics row, the merged timers and every rank's counters."""
    result = run(_config(metrics_every=5, nranks=2, backend="threads"))
    prom = exposition(run_samples(result.timers, result.comm_per_rank,
                                  result.metrics_rows))
    final = result.metrics_rows[-1]
    assert "# TYPE bookleaf_energy_drift gauge" in prom
    assert f'bookleaf_total_energy{{rank="0"}} {final["total_energy"]!r}' \
        in prom
    assert (f'bookleaf_diagnostics_samples_total{{rank="0"}} '
            f'{len(result.metrics_rows)}') in prom
    calls = result.timers.timers["getq"].calls
    assert f'bookleaf_kernel_calls_total{{kernel="getq"}} {calls}' in prom
    for rank, entry in enumerate(result.comm_per_rank):
        for name, value in entry.items():
            assert f'bookleaf_comm_{name}_total{{rank="{rank}"}} {value}' \
                in prom


def test_step_driven_probe_baselines_on_first_observation():
    """step() without run(): the first observed state is the drift
    reference."""
    setup = load_problem("noh", nx=8, ny=8)
    probe = DiagnosticsProbe(every=2)
    hydro = setup.make_hydro()
    hydro.probe = probe
    for _ in range(4):
        hydro.step()
    assert probe.rows[0]["nstep"] == 1
    assert probe.rows[0]["energy_drift"] == 0.0
    assert probe.last_sample["nstep"] == 4


def test_record_carries_the_nodal_mass_totals():
    """The corner-mass partition reproduces the nodal-mass kinetic
    energy and momentum to round-off, and the extrema are the state's."""
    setup = load_problem("sod", nx=20, ny=2, time_end=1.0)
    probe = DiagnosticsProbe(every=1)
    hydro = setup.make_hydro()
    hydro.probe = probe
    hydro.run(max_steps=6)
    state, row = hydro.state, probe.last_sample
    mass = state.node_mass()
    assert row["nstep"] == 6
    assert row["kinetic_energy"] == pytest.approx(
        state.kinetic_energy(), rel=1e-14)
    assert row["momentum_x"] == pytest.approx(
        float(np.sum(mass * state.u)), rel=1e-14)
    assert row["momentum_y"] == pytest.approx(
        float(np.sum(mass * state.v)), abs=1e-18)
    assert (row["rho_max"], row["p_max"]) == \
        (float(state.rho.max()), float(state.p.max()))
