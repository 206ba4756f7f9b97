"""Chrome trace-event output: validity, rank rows, nesting."""

import json

from repro.core.hydro import Hydro
from repro.problems import load_problem
from repro.telemetry import (
    trace_events,
    validate_trace,
    write_trace,
)
from repro.utils.timers import TimerRegistry


def traced_run(nx=12, steps=4):
    setup = load_problem("noh", nx=nx, ny=nx)
    timers = TimerRegistry.traced()
    hydro = Hydro(setup.state, setup.table, setup.controls, timers=timers)
    hydro.run(max_steps=steps)
    return timers.spans


def test_trace_from_real_run_is_valid(tmp_path):
    spans = traced_run()
    trace = trace_events(spans)
    validate_trace(trace)
    path = write_trace(spans, tmp_path / "t.trace.json")
    validate_trace(json.loads(path.read_text()))


def test_trace_has_expected_event_structure():
    trace = trace_events(traced_run(steps=3))
    events = trace["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    assert {e["name"] for e in meta} == {"process_name", "thread_name"}
    names = [e["name"] for e in events if e["ph"] == "X"]
    assert "run" in names
    assert "step 0" in names and "step 2" in names
    assert "lagstep" in names
    assert names.count("getq") == 6      # predictor + corrector, 3 steps
    cats = {e["cat"] for e in events if e["ph"] == "X"}
    assert {"run", "step", "phase", "kernel"} <= cats


def test_steps_nest_inside_run():
    trace = trace_events(traced_run(steps=3))
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    run = next(e for e in events if e["cat"] == "run")
    for step in (e for e in events if e["cat"] == "step"):
        assert run["ts"] <= step["ts"]
        assert step["ts"] + step["dur"] <= run["ts"] + run["dur"] + 1e-6


def test_instant_events_render_as_markers():
    timers = TimerRegistry.traced()
    with timers.span("step 0", cat="step"):
        timers.instant("ale.skip")
    trace = trace_events(timers.spans)
    validate_trace(trace)
    marker = next(e for e in trace["traceEvents"] if e["name"] == "ale.skip")
    assert marker["ph"] == "i" and marker["s"] == "t"


def test_multi_rank_trace_has_one_row_per_rank():
    from repro.parallel import DistributedHydro

    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, trace=True)
    driver.run(max_steps=3)
    trace = trace_events(driver.merged_spans())
    validate_trace(trace)
    tids = {e["tid"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert tids == {0, 1}
    thread_names = {e["args"]["name"] for e in trace["traceEvents"]
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert thread_names == {"rank 0", "rank 1"}
    comm = [e for e in trace["traceEvents"] if e.get("cat") == "comm"]
    assert comm and {e["name"] for e in comm} >= {
        "typhon.post_kinematics", "typhon.complete_kinematics",
        "typhon.reduce_dt"}
