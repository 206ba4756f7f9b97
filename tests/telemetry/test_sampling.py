"""The sampling profiler: span-stack snapshots, collapsed-stack files."""

from repro.telemetry.sampling import (IDLE_FRAME, SamplingProfiler,
                                      merge_folded, read_collapsed,
                                      top_stacks, write_collapsed)
from repro.utils.timers import TimerRegistry


def test_samples_open_span_stack():
    timers = TimerRegistry.traced(rank=0)
    profiler = SamplingProfiler([timers])
    with timers.span("run", cat="run"):
        with timers.span("step 17", cat="step"):
            with timers.span("lagstep", cat="phase"):
                profiler.sample_once()
    assert profiler.folded() == {"run;step;lagstep": 1}
    assert profiler.samples == 1


def test_samples_kernel_region_frames():
    """A kernel region is on the sampled stack: the profile's leaves
    are kernels, not the phase around them."""
    timers = TimerRegistry.traced(rank=0)
    profiler = SamplingProfiler([timers])
    with timers.span("run", cat="run"):
        with timers.span("step 3", cat="step"):
            with timers.span("lagstep", cat="phase"):
                with timers.region("getq"):
                    profiler.sample_once()
    assert profiler.folded() == {"run;step;lagstep;getq": 1}


def test_idle_tracer_samples_idle_frame():
    profiler = SamplingProfiler([TimerRegistry.traced(rank=0)])
    profiler.sample_once()
    assert profiler.folded() == {IDLE_FRAME: 1}


def test_multi_rank_stacks_get_rank_prefix():
    ranks = [TimerRegistry.traced(rank=0), TimerRegistry.traced(rank=1)]
    profiler = SamplingProfiler(ranks)
    with ranks[0].span("run", cat="run"):
        profiler.sample_once()
    folded = profiler.folded()
    assert folded == {"rank 0;run": 1, f"rank 1;{IDLE_FRAME}": 1}


def test_thread_sampler_accumulates(tmp_path):
    timers = TimerRegistry.traced(rank=0)
    profiler = SamplingProfiler([timers], interval=0.001)
    import time

    with profiler:
        with timers.span("run", cat="run"):
            with timers.region("getacc"):
                time.sleep(0.05)
    assert profiler.samples > 0
    assert profiler.wall_seconds > 0
    assert any("getacc" in stack for stack in profiler.folded())


def test_collapsed_file_roundtrip(tmp_path):
    folded = {"run;step;getacc": 42, "run;step;getdt": 7}
    path = tmp_path / "job0.folded"
    write_collapsed(folded, str(path))
    text = path.read_text()
    # flamegraph.pl format: "stack count" per line, sorted
    assert text.splitlines() == ["run;step;getacc 42",
                                 "run;step;getdt 7"]
    assert read_collapsed(str(path)) == folded


def test_merge_and_top_stacks():
    merged = merge_folded([{"a;b": 3, "a;c": 1}, {"a;b": 2, "d": 4}])
    assert merged == {"a;b": 5, "a;c": 1, "d": 4}
    ranked = top_stacks(merged, 2)
    assert ranked[0] == ("a;b", 5, 0.5)
    assert ranked[1][0] == "d"


def test_run_profile_writes_collapsed_stacks(tmp_path):
    """`run(profile=...)` attaches the sampler and writes the file;
    the canonical cache key must not change (profiling is telemetry,
    not physics)."""
    from repro.api import RunConfig, run

    path = tmp_path / "noh.folded"
    config = RunConfig(problem="sod", nx=24, ny=8, max_steps=40,
                       profile=str(path))
    plain = RunConfig(problem="sod", nx=24, ny=8, max_steps=40)
    assert config.canonical_key() == plain.canonical_key()
    result = run(config)
    assert result.nstep == 40
    assert path.exists()
    folded = read_collapsed(str(path))
    assert sum(folded.values()) >= 0  # short run may catch few samples
    for stack in folded:
        assert stack  # no empty lines
