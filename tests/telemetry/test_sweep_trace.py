"""The merged sweep trace: layout, flow events, determinism."""

import json

from repro.telemetry import Span
from repro.telemetry.sweep_trace import (RANK_STRIDE, SweepTraceBuilder,
                                         strip_nondeterminism,
                                         write_sweep_trace)
from repro.telemetry.trace import validate_trace


def _span(name, t0=0, dur=1000, rank=0, cat="kernel"):
    return Span(name=name, cat=cat, rank=rank, t0_ns=t0, dur_ns=dur)


def test_builder_layout_and_validation(tmp_path):
    builder = SweepTraceBuilder()
    builder.add_job(0, pid=1, start_ns=100,
                    spans=[_span("run", dur=5000)], label="sod 24x8")
    builder.add_job(1, pid=2, start_ns=200,
                    spans=[_span("run", dur=4000)])
    builder.add_instant(0, "cache_hit", 50, args={"key": "abc"})
    trace = builder.build()
    validate_trace(trace)
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    names = {(e["name"], e["pid"]): e["args"]["name"] for e in meta}
    assert names[("process_name", 0)] == "fleet scheduler"
    assert names[("process_name", 1)] == "worker 0"
    assert names[("process_name", 2)] == "worker 1"
    assert names[("thread_name", 1)] == "job 0 (sod 24x8)"
    spans = [e for e in events if e["ph"] == "X"]
    assert {e["tid"] for e in spans} == {1, 1 + RANK_STRIDE}
    path = write_sweep_trace(builder, tmp_path / "sweep.json")
    validate_trace(json.loads(path.read_text()))


def test_span_dicts_accepted_as_shards():
    """Workers ship spans as dicts through the spool; the builder
    rehydrates them."""
    builder = SweepTraceBuilder()
    builder.add_job(0, spans=[_span("run").as_dict()])
    (span,) = [e for e in builder.build()["traceEvents"]
               if e["ph"] == "X"]
    assert span["name"] == "run"


def test_flow_events_link_kill_to_resume():
    builder = SweepTraceBuilder()
    builder.add_job(3, pid=1, spans=[_span("run")])
    builder.add_flow(3, from_pid=1, from_ns=10_000, to_pid=2,
                     to_ns=20_000)
    trace = builder.build()
    validate_trace(trace)
    flows = [e for e in trace["traceEvents"] if e["ph"] in ("s", "f")]
    start, finish = flows
    assert start["ph"] == "s" and finish["ph"] == "f"
    assert finish["bp"] == "e"
    assert start["id"] == finish["id"]
    assert start["pid"] == 1 and finish["pid"] == 2
    assert start["tid"] == finish["tid"] == 1 + 3 * RANK_STRIDE
    # the flow's target worker appears as a process row even though no
    # job record carries pid=2
    meta_pids = {e["pid"] for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "process_name"}
    assert 2 in meta_pids


def test_instants_sorted_by_job_then_time():
    builder = SweepTraceBuilder()
    builder.add_job(0, spans=[])
    builder.add_job(1, spans=[])
    builder.add_instant(1, "checkpoint", 500)
    builder.add_instant(0, "checkpoint", 900)
    builder.add_instant(0, "cache_hit", 100)
    instants = [e for e in builder.build()["traceEvents"]
                if e["ph"] == "i" and e["cat"] == "fleet"]
    assert [(e["tid"], e["name"]) for e in instants] == [
        (1, "cache_hit"), (1, "checkpoint"),
        (1 + RANK_STRIDE, "checkpoint")]


def test_multi_rank_jobs_get_rank_rows():
    builder = SweepTraceBuilder()
    builder.add_job(0, spans=[_span("run", rank=0),
                              _span("run", rank=1)])
    meta = [e for e in builder.build()["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"]
    assert [e["args"]["name"] for e in meta] == \
        ["job 0 rank 0", "job 0 rank 1"]
    assert [e["tid"] for e in meta] == [1, 2]


def test_strip_nondeterminism_drops_clocks_and_assignment():
    builder = SweepTraceBuilder()
    builder.add_job(0, pid=2, start_ns=12345,
                    spans=[_span("run", t0=777)])
    stripped = strip_nondeterminism(builder.build())
    assert all(e.get("ph") != "M" for e in stripped)
    for event in stripped:
        assert "ts" not in event
        assert "dur" not in event
        assert "pid" not in event
    (span,) = [e for e in stripped if e["name"] == "run"]
    assert span["tid"] == 1  # job identity survives
