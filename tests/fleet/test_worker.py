"""The crash-tolerant worker pool: SIGKILLed jobs resume, not restart."""

import tempfile

import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import state_digest
from repro.utils.errors import FleetError


def _cfg(**kw):
    base = dict(problem="sod", nx=24, ny=8, max_steps=24)
    base.update(kw)
    return RunConfig(**base)


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


def test_pool_runs_jobs(tmp_path):
    configs = [_cfg(max_steps=6), _cfg(max_steps=8)]
    serial = [run(c) for c in configs]
    results = submit(configs, workers=2, ensemble="off").results()
    assert [r.nstep for r in results] == [6, 8]
    for s, r in zip(serial, results):
        assert _digest(r) == _digest(s)


def test_sigkill_resumes_bit_identical(tmp_path):
    """The headline gate: SIGKILL a worker mid-job; the retry resumes
    from the last checkpoint and finishes bit-identical to an
    uninterrupted run — including the metrics stream."""
    config = _cfg(metrics_every=4)
    uninterrupted = run(config)
    handle = submit(
        [config], workers=1, ensemble="off",
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=5,
        fault_steps={0: 17},
        cache_dir=str(tmp_path / "cache"))
    result = handle.results()[0]
    assert result.nstep == uninterrupted.nstep
    assert _digest(result) == _digest(uninterrupted)
    assert result.metrics_rows == uninterrupted.metrics_rows
    events = [e["event"] for e in handle.schedule_log]
    assert "worker_died" in events
    assert events.count("job_started") == 2  # original + retry
    # the retry resumed: it started from the step-15 checkpoint, so the
    # resumed run must reach the end, not die again (fault is
    # first-attempt only)
    assert "job_done" in events


def test_sigkill_without_checkpoints_restarts(tmp_path):
    """No checkpoint_dir: the retry restarts from step 0 and still
    lands bit-identical (determinism, the hard way)."""
    config = _cfg(max_steps=12)
    uninterrupted = run(config)
    handle = submit([config], workers=1, ensemble="off",
                    fault_steps={0: 6})
    result = handle.results()[0]
    assert _digest(result) == _digest(uninterrupted)
    assert "worker_died" in [e["event"] for e in handle.schedule_log]


def test_repeat_crasher_exhausts_attempts(tmp_path):
    """A job that dies on every attempt eventually fails the fleet
    with a structured error instead of looping forever."""
    import repro.fleet.worker as worker_mod

    original = worker_mod._run_job

    def always_die(doc, store, checkpoint_dir, checkpoint_every, **kw):
        doc = dict(doc, fault_step=1)
        return original(doc, store, checkpoint_dir, checkpoint_every,
                        **kw)

    worker_mod._run_job = always_die
    try:
        with pytest.raises(FleetError, match="giving up"):
            submit([_cfg(max_steps=6)], workers=1, ensemble="off",
                   max_attempts=2, fault_steps={0: 1}).results()
    finally:
        worker_mod._run_job = original


def test_pool_parallel_fan_out(tmp_path):
    """Multiple workers drain a queue wider than the pool."""
    configs = [_cfg(max_steps=3 + i) for i in range(5)]
    handle = submit(configs, workers=2, ensemble="off",
                    cache_dir=str(tmp_path))
    results = handle.results()
    assert [r.nstep for r in results] == [3, 4, 5, 6, 7]
    # every outcome went through the spool/cache
    assert handle.summary()["cache"]["stores"] == 0  # workers stored
    warm = submit(configs, workers=2, ensemble="off",
                  cache_dir=str(tmp_path)).results()
    assert all(r.cache_hit for r in warm)


@pytest.mark.parametrize("failing", [False, True])
def test_pooled_sweep_leaves_no_spool(tmp_path, monkeypatch, failing):
    """Without a cache_dir the pool stores outcomes in a temporary
    spool; it is removed once every result is loaded, and also when the
    pool gives up on a job."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    configs = [_cfg(max_steps=4), _cfg(max_steps=5)]
    if failing:
        with pytest.raises(FleetError, match="giving up"):
            submit(configs, workers=1, ensemble="off", max_attempts=1,
                   fault_steps={0: 1}).results()
    else:
        results = submit(configs, workers=1, ensemble="off").results()
        assert [r.nstep for r in results] == [4, 5]
    assert list(tmp_path.glob("bookleaf-fleet-spool-*")) == []
