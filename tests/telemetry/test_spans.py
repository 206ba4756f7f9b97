"""Span mechanics on the timer registry: nesting, clocks, regions."""

import tracemalloc

from repro.telemetry import Span
from repro.utils.timers import TimerRegistry


def test_span_nesting_depth_and_clocks():
    timers = TimerRegistry.traced()
    with timers.span("run", cat="run"):
        with timers.span("step 0", cat="step"):
            with timers.region("getq"):
                pass
    names = [(s.name, s.cat, s.depth) for s in timers.spans]
    assert names == [("run", "run", 0), ("step 0", "step", 1),
                     ("getq", "kernel", 2)]
    run, step, getq = timers.spans
    for span in timers.spans:
        assert span.t0_ns >= 0 and span.dur_ns >= 0
    # children lie within their parents' intervals
    assert run.t0_ns <= step.t0_ns <= getq.t0_ns
    assert step.t0_ns + step.dur_ns <= run.t0_ns + run.dur_ns
    assert getq.t0_ns + getq.dur_ns <= step.t0_ns + step.dur_ns
    assert timers.stack == []


def test_region_is_on_the_stack_while_open():
    timers = TimerRegistry.traced()
    with timers.region("getacc"):
        with timers.span("typhon.post_node_sums", cat="comm"):
            assert [s.name for s in timers.stack] == [
                "getacc", "typhon.post_node_sums"]
    # the region is recorded before the comm span nested inside it
    assert [(s.name, s.depth) for s in timers.spans] == [
        ("getacc", 0), ("typhon.post_node_sums", 1)]


def test_span_args_filled_inside_block():
    timers = TimerRegistry.traced()
    with timers.span("step 3", cat="step") as span:
        span.args["dt"] = 0.5
    assert timers.spans[0].args == {"dt": 0.5}
    assert "args" in timers.spans[0].as_dict()


def test_instant_marker_has_zero_duration():
    timers = TimerRegistry.traced()
    timers.instant("ale.skip", args={"moved": 0.0})
    (span,) = timers.spans
    assert span.dur_ns == 0 and span.args == {"moved": 0.0}


def test_timer_region_records_spans_when_traced():
    timers = TimerRegistry.traced()
    with timers.region("getq"):
        pass
    with timers.region("alestep", cat="phase"):
        pass
    spans = timers.spans
    assert [(s.name, s.cat) for s in spans] == [
        ("getq", "kernel"), ("alestep", "phase")]
    # the span and the accumulator read the same clock pair
    assert abs(timers.seconds("getq") - spans[0].dur_ns * 1e-9) < 1e-12


def test_timer_region_without_tracer_unchanged():
    timers = TimerRegistry()
    with timers.region("getq"):
        pass
    assert timers.calls("getq") == 1
    assert timers.spans is None and timers.stack == []


def test_span_and_instant_noop_when_untraced():
    timers = TimerRegistry()
    with timers.span("lagstep") as span:
        assert span is None
    timers.instant("marker")   # must not raise
    assert timers.spans is None


def test_region_span_carries_alloc_bytes():
    timers = TimerRegistry.traced(trace_allocations=True)
    with timers.region("alloc"):
        blob = bytearray(256 * 1024)  # noqa: F841
        del blob
    (span,) = timers.spans
    assert span.alloc_bytes is not None
    tracemalloc.stop()


def test_span_as_dict_roundtrips_fields():
    span = Span("getq", "kernel", 2, 10, 5, depth=3, alloc_bytes=64)
    d = span.as_dict()
    assert d == {"name": "getq", "cat": "kernel", "rank": 2,
                 "t0_ns": 10, "dur_ns": 5, "depth": 3, "alloc_bytes": 64}
