"""The fleet engine: submission surface, routing, caching, telemetry."""

import json

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import FleetHandle, state_digest
from repro.utils.errors import BookLeafError, FleetError
from tests.conftest import ensemble_lanes


def _cfg(**kw):
    base = dict(problem="sod", nx=16, ny=8, max_steps=6)
    base.update(kw)
    return RunConfig(**base)


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


# ----------------------------------------------------------------------
# the submission surface
# ----------------------------------------------------------------------
def test_submit_returns_handle_in_order():
    configs = [_cfg(max_steps=3 + i) for i in range(3)]
    handle = submit(configs)
    assert isinstance(handle, FleetHandle)
    assert len(handle) == 3
    results = handle.results()
    assert [r.nstep for r in results] == [3, 4, 5]
    assert [r.config for r in results] == configs
    # memoised: same objects on a second call
    assert handle.results() is results


def test_run_is_a_thin_wrapper():
    config = _cfg()
    result = run(config)
    assert result.config is config
    assert result.lane is None
    assert result.cache_hit is False
    assert result.backend == "serial"


def test_unknown_fleet_option_errors():
    with pytest.raises(BookLeafError, match="unknown fleet option"):
        submit([_cfg()], bogus=1)
    for mode in ("sometimes", "require"):
        with pytest.raises(BookLeafError,
                           match="ensemble must be 'auto' or 'off'"):
            submit([_cfg()], ensemble=mode)
    with pytest.raises(BookLeafError, match="at least one"):
        submit([])


@pytest.mark.parametrize("option, value", [
    ("checkpoint_every", 0), ("batch_width", 0), ("batch_width", -3),
    ("max_attempts", 0),
])
def test_non_positive_counts_are_refused_before_anything_runs(
        tmp_path, monkeypatch, option, value):
    """A cadence, width or attempt budget below 1 used to surface from
    inside job 0 (after the pool had forked) or be clamped to 1 without
    a word; it is one line from ``submit`` now, with nothing built."""
    import repro.fleet.engine as engine

    def built(*args, **kwargs):
        raise AssertionError("the sweep was built before being refused")

    monkeypatch.setattr(engine, "Fleet", built)
    with pytest.raises(BookLeafError) as refused:
        submit([_cfg(), _cfg(max_steps=4)], workers=1, ensemble="off",
               checkpoint_dir=str(tmp_path), **{option: value})
    assert str(refused.value) == f"{option} must be >= 1"
    assert not isinstance(refused.value, FleetError)


def test_overrides_cannot_ride_ensemble_off():
    with pytest.raises(BookLeafError, match="ensemble"):
        submit([_cfg()], control_overrides=[{"cq1": 0.5}],
               ensemble="off")


def test_fault_injection_needs_workers():
    with pytest.raises(FleetError, match="workers"):
        submit([_cfg()], fault_steps={0: 3})


# ----------------------------------------------------------------------
# routing: the same-mesh fast path and the per-job path
# ----------------------------------------------------------------------
def test_auto_coalesces_same_mesh_jobs():
    configs = [_cfg(max_steps=4 + i) for i in range(4)]
    handle = submit(configs, ensemble="auto")
    results = handle.results()
    assert all(r.backend == "ensemble" for r in results)
    events = [e["event"] for e in handle.schedule_log]
    assert "ensemble_batch" in events
    batch = next(e for e in handle.schedule_log
                 if e["event"] == "ensemble_batch")
    assert batch["jobs"] == [0, 1, 2, 3]


def test_coalesced_jobs_build_one_setup_each(monkeypatch):
    """The coalescer builds a setup per bucket to read its boundary
    driver; the lane that owns it runs on it — N jobs, N builds, and
    the probed lane still gets its own overrides."""
    builds = []
    build_setup = RunConfig.build_setup

    def counted(self):
        builds.append(self)
        return build_setup(self)

    monkeypatch.setattr(RunConfig, "build_setup", counted)
    configs = [_cfg(max_steps=4 + i) for i in range(3)]
    overrides = [{"cq1": 0.3}, None, {"cq1": 0.4}]
    results = submit(configs, control_overrides=overrides).results()
    assert len(builds) == 3
    assert [r.setup.controls.cq1 for r in results] == [0.3, 0.5, 0.4]
    monkeypatch.undo()
    for config, override, batched in zip(configs, overrides, results):
        (alone,) = ensemble_lanes([config], [override])
        assert _digest(batched) == _digest(alone)


def test_auto_fast_path_is_bit_identical_to_serial():
    configs = [_cfg(max_steps=4 + 2 * i) for i in range(3)]
    serial = [run(c) for c in configs]
    batched = submit(configs, ensemble="auto").results()
    for s, b in zip(serial, batched):
        assert b.backend == "ensemble"
        assert _digest(b) == _digest(s)


def test_auto_splits_mixed_meshes():
    """Different mesh specs cannot share a batch; each group batches
    separately and singletons run per-job."""
    configs = [_cfg(max_steps=4), _cfg(max_steps=5),
               _cfg(nx=24, max_steps=4), _cfg(nx=24, max_steps=5),
               _cfg(nx=32, max_steps=4)]
    handle = submit(configs, ensemble="auto")
    results = handle.results()
    assert [r.backend for r in results] == \
        ["ensemble", "ensemble", "ensemble", "ensemble", "serial"]
    batches = [e["jobs"] for e in handle.schedule_log
               if e["event"] == "ensemble_batch"]
    assert sorted(map(sorted, batches)) == [[0, 1], [2, 3]]


def test_auto_keeps_distributed_jobs_per_job():
    configs = [_cfg(max_steps=3), _cfg(max_steps=3, nranks=2)]
    handle = submit(configs, ensemble="auto")
    results = handle.results()
    assert results[0].backend == "serial"  # singleton, no batch
    assert results[1].nranks == 2


def test_ensemble_off_forces_per_job():
    configs = [_cfg(max_steps=4), _cfg(max_steps=5)]
    handle = submit(configs, ensemble="off")
    results = handle.results()
    assert all(r.backend == "serial" for r in results)
    assert all(e["event"] != "ensemble_batch"
               for e in handle.schedule_log)


def test_refill_drains_queue_bit_identically():
    """More jobs than batch width: lanes retire and refill from the
    queue; every result still bit-identical to its serial run."""
    configs = [_cfg(max_steps=3 + 2 * i) for i in range(5)]
    serial = [run(c) for c in configs]
    handle = submit(configs, batch_width=2)
    results = handle.results()
    for s, b in zip(serial, results):
        assert b.backend == "ensemble"
        assert _digest(b) == _digest(s)
    events = [e["event"] for e in handle.schedule_log]
    assert events.count("lane_refill") >= 1
    assert events.count("lane_retired") == 5


def test_overrides_across_meshes_batch_per_mesh():
    """Control overrides over two meshes: one batch per mesh, and each
    job lands where it lands submitted alone with its override."""
    configs = [_cfg(nx=n, ny=n) for n in (8, 16) for _ in range(2)]
    overrides = [{"cq1": 0.3}, {"cq1": 0.5}] * 2
    handle = submit(configs, control_overrides=overrides)
    results = handle.results()
    assert [e["jobs"] for e in handle.schedule_log
            if e["event"] == "ensemble_batch"] == [[0, 1], [2, 3]]
    assert all(r.backend == "ensemble" for r in results)
    assert handle._fleet.options.ensemble == "auto"
    for config, override, batched in zip(configs, overrides, results):
        (alone,) = ensemble_lanes([config], [override])
        assert _digest(batched) == _digest(alone)


def test_failing_lane_of_a_refilled_batch_names_its_job():
    """After a refill the failing lane's row is not its submission
    index; the error names both."""
    from repro.utils.errors import TangledMeshError

    configs = [_cfg(max_steps=3 + 2 * i) for i in range(4)]
    overrides = [None, None, None, {"dt_initial": 0.9, "dt_max": 1.0}]
    handle = submit(configs, control_overrides=overrides, batch_width=2)
    with pytest.raises(TangledMeshError, match="job 3, ensemble lane 1"
                       ) as raised:
        handle.results()
    assert (raised.value.job, raised.value.lane) == (3, 1)


# ----------------------------------------------------------------------
# the result cache in the loop
# ----------------------------------------------------------------------
def test_cache_serves_repeats(tmp_path):
    config = _cfg(max_steps=8)
    cold = submit([config], cache_dir=str(tmp_path),
                  ensemble="off").results()[0]
    assert cold.cache_hit is False
    handle = submit([config], cache_dir=str(tmp_path), ensemble="off")
    warm = handle.results()[0]
    assert warm.cache_hit is True
    assert _digest(warm) == _digest(cold)
    assert handle.schedule_log[0]["event"] == "cache_hit"


def test_cache_hit_recorded_in_summary(tmp_path):
    configs = [_cfg(max_steps=4), _cfg(max_steps=5)]
    submit(configs, cache_dir=str(tmp_path)).results()
    handle = submit(configs + [_cfg(max_steps=6)],
                    cache_dir=str(tmp_path))
    handle.results()
    summary = handle.summary()
    assert summary["fleet_sweep"] == 1
    assert summary["counts"]["cache_hits"] == 2
    assert [j["cache_hit"] for j in summary["jobs"]] == \
        [True, True, False]
    assert all(len(j["digest"]) == 64 for j in summary["jobs"])


def test_fleet_results_keep_their_kernel_timers(tmp_path):
    """A pooled job and a cache hit carry the run's kernel timers: the
    registry is the report's kernel table, with the live run's calls,
    and the summary's kernel seconds are its total."""
    config = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                       metrics_every=5)
    live = run(config)
    calls = {name: t.calls for name, t in live.timers.timers.items()}
    pooled = submit([config], cache_dir=str(tmp_path), ensemble="off",
                    workers=1)
    warm = submit([config], cache_dir=str(tmp_path), ensemble="off")
    for handle in (pooled, warm):
        result = handle.results()[0]
        timers = {name: (t.seconds, t.calls, t.alloc_bytes, t.alloc_peak)
                  for name, t in result.timers.timers.items()}
        kernels = {name: (e["seconds"], e["calls"], e["alloc_bytes"],
                          e["alloc_peak"])
                   for name, e in result.report()["kernels"].items()}
        assert timers == kernels
        assert {name: t[1] for name, t in timers.items()} == calls
        assert handle.summary()["jobs"][0]["kernel_seconds"] == \
            round(result.timers.total(), 6) > 0
    assert warm.results()[0].cache_hit


def test_observers_bypass_cache(tmp_path):
    """A submission carrying observers must execute (the observer is a
    side effect the cache cannot replay)."""
    config = _cfg(max_steps=4)
    submit([config], cache_dir=str(tmp_path),
           ensemble="off").results()
    seen = []
    result = submit([config], cache_dir=str(tmp_path), ensemble="off",
                    observers=[lambda h: seen.append(h.nstep)]
                    ).results()[0]
    assert result.cache_hit is False
    assert seen == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# merged telemetry
# ----------------------------------------------------------------------
def test_merged_metrics_and_prometheus(tmp_path):
    ndjson = tmp_path / "fleet.ndjson"
    prom = tmp_path / "fleet.prom"
    configs = [_cfg(max_steps=4, metrics_every=2),
               _cfg(max_steps=6, metrics_every=2)]
    submit(configs, metrics_path=str(ndjson),
           prom_path=str(prom)).results()
    rows = [json.loads(line) for line in
            ndjson.read_text().splitlines()]
    assert {r["job"] for r in rows} == {0, 1}
    assert [r["nstep"] for r in rows if r["job"] == 0] == [0, 2, 4]
    assert [r["nstep"] for r in rows if r["job"] == 1] == [0, 2, 4, 6]
    text = prom.read_text()
    assert "bookleaf_fleet_jobs_total 2" in text
    assert 'bookleaf_fleet_job_steps{' in text


def test_summary_compares_clean_against_itself(tmp_path):
    from repro.metrics.compare import compare_files

    configs = [_cfg(max_steps=4), _cfg(max_steps=6)]
    a = submit(configs)
    a.results()
    b = submit(configs)
    b.results()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.summary()))
    pb.write_text(json.dumps(b.summary()))
    result = compare_files(str(pa), str(pb))
    assert result.kind == "fleet"
    assert result.exit_code == 0
    gated = [r for r in result.rows if r.gated]
    assert len(gated) == 2 and all(r.status == "ok" for r in gated)


def test_summary_compare_catches_digest_drift(tmp_path):
    from repro.metrics.compare import compare_files

    handle = submit([_cfg(max_steps=4)])
    handle.results()
    doc_a = handle.summary()
    doc_b = json.loads(json.dumps(doc_a))
    doc_b["jobs"][0]["digest"] = "0" * 64
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(doc_a))
    pb.write_text(json.dumps(doc_b))
    result = compare_files(str(pa), str(pb))
    assert result.exit_code == 1
    assert len(result.regressions) == 1
