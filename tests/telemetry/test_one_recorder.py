"""One recorder per rank, checked on whole runs.

A rank's timer registry records its kernel regions, the structural
spans around them and the Typhon comm spans inside them on one stack,
so each rank's stream is a properly bracketed tree in opening order;
with ``trace_allocations`` every span of a serial run carries its net
bytes; and the run that starts ``tracemalloc`` stops it again.
"""

import tracemalloc

import pytest

from repro.api import run


def _streams(spans):
    by_rank = {}
    for span in spans:
        by_rank.setdefault(span.rank, []).append(span)
    return by_rank


def _end(span):
    return span.t0_ns + span.dur_ns


def _assert_tree(stream):
    """Opening order, and every span of depth d > 0 inside the nearest
    preceding span of depth d - 1."""
    t0s = [s.t0_ns for s in stream]
    assert t0s == sorted(t0s)
    open_at = []          # the nearest preceding span of each depth
    for span in stream:
        assert span.depth <= len(open_at), span
        del open_at[span.depth:]
        if span.depth:
            parent = open_at[-1]
            assert parent.t0_ns <= span.t0_ns, (parent, span)
            assert _end(span) <= _end(parent), (parent, span)
        open_at.append(span)


def _assert_comm_nests_in_kernels(stream):
    kernels = [s for s in stream if s.cat == "kernel"]
    comm = [s for s in stream if s.name.startswith("typhon.")]
    assert comm
    for span in comm:
        around = [k for k in kernels
                  if k.t0_ns <= span.t0_ns and _end(span) <= _end(k)]
        assert around, span
        region = max(around, key=lambda k: k.depth)
        assert span.depth == region.depth + 1, (region, span)


@pytest.mark.parametrize("comm_plan", ["overlap", "packed"])
def test_two_rank_streams_are_trees(comm_plan):
    result = run(problem="sod", nx=24, ny=24, max_steps=4, trace=True,
                 nranks=2, backend="threads", comm_plan=comm_plan)
    streams = _streams(result.spans)
    assert sorted(streams) == [0, 1]
    for stream in streams.values():
        _assert_tree(stream)
        _assert_comm_nests_in_kernels(stream)


def test_serial_stream_is_a_tree_with_allocations_on_every_span():
    result = run(problem="sod", nx=16, ny=16, max_steps=3, trace=True,
                 trace_allocations=True)
    (stream,) = _streams(result.spans).values()
    _assert_tree(stream)
    assert {"run", "step", "phase", "kernel"} <= {s.cat for s in stream}
    missing = [(s.name, s.cat) for s in stream if s.alloc_bytes is None]
    assert missing == []


def test_step_span_args_are_the_step_row():
    result = run(problem="sod", nx=16, ny=16, max_steps=3, trace=True)
    steps = [s for s in result.spans if s.cat == "step"]
    assert [s.args for s in steps] == result.step_rows


def test_allocation_tracing_ends_with_its_run():
    if tracemalloc.is_tracing():     # a clean slate for this check
        tracemalloc.stop()
    result = run(problem="sod", nx=16, ny=16, max_steps=2,
                 trace_allocations=True)
    assert not tracemalloc.is_tracing()
    assert result.timers.alloc_peak("getq") > 0


def test_allocation_tracing_started_by_the_caller_keeps_running():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        result = run(problem="sod", nx=16, ny=16, max_steps=2,
                     trace_allocations=True)
        assert tracemalloc.is_tracing()
        assert result.timers.alloc_peak("getq") > 0
    finally:
        if started:
            tracemalloc.stop()
