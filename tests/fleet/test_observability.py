"""The sweep observability plane end-to-end: merged traces, live
events, stall detection, profiler aggregation, dashboard."""

import json
import warnings

import pytest

from repro.api import RunConfig, submit
from repro.telemetry.live import read_events, validate_live_stream
from repro.telemetry.sweep_trace import strip_nondeterminism
from repro.telemetry.trace import validate_trace
from repro.utils.errors import EnsembleDowngradeWarning, \
    StalledRankWarning


def _cfg(**kw):
    base = dict(problem="sod", nx=24, ny=8, max_steps=8)
    base.update(kw)
    return RunConfig(**base)


def _sweep_trace(tmp_path, tag, **options):
    path = tmp_path / f"{tag}.trace.json"
    configs = [_cfg(max_steps=6 + i) for i in range(8)]
    handle = submit(configs, trace_path=str(path), **options)
    handle.results()
    trace = json.loads(path.read_text())
    validate_trace(trace)
    return trace


# ----------------------------------------------------------------------
# the merged sweep trace
# ----------------------------------------------------------------------
def test_pool_sweep_merges_worker_shards(tmp_path):
    trace = _sweep_trace(tmp_path, "pool", workers=2, ensemble="off")
    events = trace["traceEvents"]
    process_rows = {e["args"]["name"] for e in events
                    if e.get("ph") == "M"
                    and e["name"] == "process_name"}
    assert "fleet scheduler" in process_rows
    assert {"worker 0", "worker 1"} <= process_rows
    # every job contributed its span shard from inside a worker
    run_spans = [e for e in events
                 if e.get("cat") == "run" and e["ph"] == "X"]
    assert len(run_spans) == 8
    assert {e["pid"] for e in run_spans} <= {1, 2}
    assert all(e["pid"] != 0 for e in run_spans)


def test_trace_identical_across_pool_widths(tmp_path):
    """workers=1 and workers=4 sweeps of the same configs produce
    event-identical traces modulo timestamps and worker assignment."""
    narrow = strip_nondeterminism(
        _sweep_trace(tmp_path, "w1", workers=1, ensemble="off"))
    wide = strip_nondeterminism(
        _sweep_trace(tmp_path, "w4", workers=4, ensemble="off"))
    assert narrow == wide


def test_cache_hits_render_as_instants(tmp_path):
    configs = [_cfg(max_steps=6 + i) for i in range(4)]
    submit(configs, cache_dir=str(tmp_path / "cache"),
           ensemble="off").results()
    path = tmp_path / "warm.trace.json"
    handle = submit(configs, cache_dir=str(tmp_path / "cache"),
                    ensemble="off", trace_path=str(path))
    results = handle.results()
    # first sweep ran untraced, so keys match and everything is served
    assert all(r.cache_hit for r in results)
    trace = json.loads(path.read_text())
    validate_trace(trace)
    hits = [e for e in trace["traceEvents"]
            if e.get("name") == "cache_hit" and e["ph"] == "i"]
    assert len(hits) == 4


def test_kill_resume_renders_flow_event(tmp_path):
    path = tmp_path / "sweep.trace.json"
    config = _cfg(max_steps=24, metrics_every=4)
    handle = submit([config], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=5, fault_steps={0: 17},
                    trace_path=str(path))
    result = handle.results()[0]
    assert result.nstep == 24
    trace = json.loads(path.read_text())
    validate_trace(trace)
    flows = [e for e in trace["traceEvents"]
             if e.get("cat") == "flow"]
    start = [e for e in flows if e["ph"] == "s"]
    finish = [e for e in flows if e["ph"] == "f"]
    assert len(start) == 1 and len(finish) == 1
    assert finish[0]["bp"] == "e"
    assert start[0]["id"] == finish[0]["id"]
    # killed attempt on worker 0's row, resumed retry on the respawn's
    assert start[0]["pid"] == 1
    assert finish[0]["pid"] == 2
    # checkpoints made it into the trace as instants
    ckpts = [e for e in trace["traceEvents"]
             if e.get("name") == "checkpoint" and e["ph"] == "i"]
    assert len(ckpts) >= 3
    events = [e["event"] for e in handle.events]
    assert "worker_died" in events
    assert "job_retried" in events


# ----------------------------------------------------------------------
# live events through the pool and the watchdog
# ----------------------------------------------------------------------
def test_pool_streams_progress_and_checkpoints(tmp_path):
    path = tmp_path / "events.ndjson"
    handle = submit([_cfg(max_steps=20)], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=5, events_path=str(path),
                    progress_every=5)
    handle.results()
    stream = read_events(str(path))
    validate_live_stream(stream)
    kinds = [r["event"] for r in stream]
    assert kinds.count("job_checkpointed") == 4  # steps 5,10,15,20
    progress = [r for r in stream if r["event"] == "job_progress"]
    assert [p["step"] for p in progress] == [5, 10, 15, 20]


def test_stalled_worker_is_killed_flagged_and_retried(tmp_path):
    handle = submit([_cfg(max_steps=10)], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=3, stall_steps={0: 5},
                    heartbeat_timeout=0.4,
                    events_path=str(tmp_path / "events.ndjson"))
    with pytest.warns(StalledRankWarning, match="no heartbeat"):
        result = handle.results()[0]
    assert result.nstep == 10
    stream = read_events(str(tmp_path / "events.ndjson"))
    validate_live_stream(stream)
    kinds = [r["event"] for r in stream]
    assert "worker_stalled" in kinds
    assert "worker_died" in kinds  # the SIGKILL after the flag
    assert "job_retried" in kinds
    stalled = next(r for r in stream if r["event"] == "worker_stalled")
    assert stalled["age_seconds"] >= 0.4


def test_stall_injection_requires_watchdog():
    from repro.utils.errors import FleetError

    with pytest.raises(FleetError, match="heartbeat_timeout"):
        submit([_cfg()], workers=1, stall_steps={0: 2})
    with pytest.raises(FleetError, match="workers"):
        submit([_cfg()], stall_steps={0: 2}, heartbeat_timeout=1.0)


# ----------------------------------------------------------------------
# fast-path eligibility is announced, not silent
# ----------------------------------------------------------------------
def test_traced_jobs_downgrade_with_warning():
    configs = [_cfg(max_steps=6, trace=True),
               _cfg(max_steps=7, trace=True)]
    with pytest.warns(EnsembleDowngradeWarning, match="fast path"):
        handle = submit(configs, ensemble="auto")
        results = handle.results()
    assert all(r.backend == "serial" for r in results)
    downgrades = [e for e in handle.schedule_log
                  if e["event"] == "fast_path_downgrade"]
    assert [(d["job"], d["reason"]) for d in downgrades] == \
        [(0, "trace"), (1, "trace")]


def test_engine_forced_tracing_does_not_warn(tmp_path):
    """trace_path forces per-job tracing; the resulting downgrade is
    the engine's own doing and must not warn at the user."""
    configs = [_cfg(max_steps=6), _cfg(max_steps=7)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", EnsembleDowngradeWarning)
        handle = submit(configs, ensemble="auto",
                        trace_path=str(tmp_path / "t.json"))
        handle.results()
    assert any(e["event"] == "fast_path_downgrade"
               for e in handle.schedule_log)


def test_profile_jobs_downgrade_too(tmp_path):
    configs = [_cfg(max_steps=6, profile=str(tmp_path / "x.folded")),
               _cfg(max_steps=7)]
    with pytest.warns(EnsembleDowngradeWarning, match="profile"):
        handle = submit(configs, ensemble="auto")
        # job 1 has no partner left -> runs serial as a single
        results = handle.results()
    assert all(r.backend == "serial" for r in results)


# ----------------------------------------------------------------------
# profiler aggregation and the dashboard
# ----------------------------------------------------------------------
def test_profile_dir_aggregates_per_job_stacks(tmp_path):
    prof = tmp_path / "prof"
    configs = [_cfg(max_steps=30), _cfg(max_steps=35)]
    handle = submit(configs, ensemble="off", profile_dir=str(prof))
    handle.results()
    assert (prof / "job0.folded").exists()
    assert (prof / "job1.folded").exists()
    assert (prof / "sweep.folded").exists()
    doc = handle.summary()["profile"]
    assert doc["jobs_profiled"] == 2
    assert doc["samples"] >= 0
    for row in doc["top_stacks"]:
        assert set(row) == {"stack", "samples", "fraction"}


def test_dashboard_written_and_self_contained(tmp_path):
    dash = tmp_path / "sweep.html"
    configs = [_cfg(max_steps=6 + i) for i in range(3)]
    handle = submit(configs, ensemble="off", dashboard_path=str(dash),
                    events_path=str(tmp_path / "e.ndjson"))
    handle.results()
    html = dash.read_text()
    assert html.lstrip().lower().startswith("<!doctype html")
    assert "<script" not in html.lower()  # self-contained, no JS
    for job in range(3):
        assert f"job {job}" in html
    assert "done" in html


# ----------------------------------------------------------------------
# anomalies surface in the summary
# ----------------------------------------------------------------------
def test_summary_flags_injected_outlier(tmp_path):
    configs = [_cfg(max_steps=10) for _ in range(5)]
    handle = submit(configs, ensemble="off")
    handle.results()
    summary = handle.summary()
    doc = json.loads(json.dumps(summary))
    # inject a 100x-slow job and recompute the flags the way
    # `compare --gate-outliers` does on documents without them
    from repro.metrics.anomaly import detect_anomalies

    doc["jobs"][2]["wall_seconds"] *= 100
    doc["jobs"][2]["steps_per_sec"] /= 100
    flags = detect_anomalies(doc["jobs"])
    assert any(f["job"] == 2 and f["harmful"] for f in flags)
    assert summary["counts"]["anomalies"] == len(summary["anomalies"])
