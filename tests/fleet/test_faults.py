"""The fleet's fault table: what a damaged file or a killed worker does
to a sweep — an event and the right answer, never a traceback.

Rows (ROADMAP "single differential-correctness harness", (e)):

* a truncated ``<key>.npz`` or a corrupt ``<key>.json`` in the result
  cache is a *miss* — ``cache_corrupt``, the job re-runs, its store
  overwrites the entry;
* a garbage ``<key>.ckpt.npz`` is an *absent* checkpoint —
  ``checkpoint_unreadable``, the job runs from step 0;
* a worker SIGKILLed mid-job resumes from its last checkpoint and lands
  bit-identical to an uninterrupted run — on the time-driven-boundary
  case (Kidder) and the ALE case (a remapper with a reference mesh)
  too, the two a rebuild-from-file resume gets wrong.

Each damaged-file row runs inline and through a one-worker pool.
"""

import os

import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import job_key, state_digest
from repro.telemetry.live import validate_live_stream


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


CONFIG = RunConfig(problem="sod", nx=16, ny=4, max_steps=12,
                   metrics_every=4)


def _events(handle):
    return [e["event"] for e in handle.schedule_log]


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("victim", ["npz", "json"])
def test_damaged_cache_entry_is_a_miss(tmp_path, workers, victim):
    cold = submit([CONFIG], ensemble="off",
                  cache_dir=str(tmp_path)).results()[0]
    path = tmp_path / f"{job_key(CONFIG)}.{victim}"
    if victim == "npz":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    else:
        path.write_text('{"backend": "serial", "nst')

    handle = submit([CONFIG], ensemble="off", workers=workers,
                    cache_dir=str(tmp_path))
    result = handle.results()[0]
    assert not result.cache_hit
    assert _digest(result) == _digest(cold)
    (entry,) = [e for e in handle.schedule_log
                if e["event"] == "cache_corrupt"]
    assert entry["key"] == job_key(CONFIG) and path.name in entry["reason"]
    assert "cache_corrupt" in [e["event"] for e in handle.events]
    validate_live_stream(handle.events)
    assert handle.summary()["cache"]["corrupt"] == 1
    assert handle.summary()["cache"]["hits"] == 0

    # the re-run's store replaced the entry: warm again
    warm = submit([CONFIG], ensemble="off",
                  cache_dir=str(tmp_path)).results()[0]
    assert warm.cache_hit and _digest(warm) == _digest(cold)


@pytest.mark.parametrize("workers", [0, 1])
def test_garbage_checkpoint_is_an_absent_checkpoint(tmp_path, workers):
    cold = run(CONFIG)
    ckpt = tmp_path / f"{job_key(CONFIG)}.ckpt.npz"
    ckpt.write_bytes(b"\x00garbage, not a zip\x00" * 50)

    handle = submit([CONFIG], ensemble="off", workers=workers,
                    checkpoint_dir=str(tmp_path), checkpoint_every=5)
    result = handle.results()[0]
    assert result.nstep == cold.nstep
    assert _digest(result) == _digest(cold)
    assert result.metrics_rows == cold.metrics_rows
    (entry,) = [e for e in handle.schedule_log
                if e["event"] == "checkpoint_unreadable"]
    assert entry["job"] == 0 and entry["path"] == str(ckpt)
    assert "checkpoint_resume" not in _events(handle)
    validate_live_stream(handle.events)
    # the run's own checkpoints replaced the garbage
    assert ckpt.stat().st_size > 2000


KILLED = {
    "kidder": RunConfig(problem="kidder", nx=8, ny=8, max_steps=20,
                        metrics_every=4),
    "sod-ale": RunConfig(problem="sod", nx=16, ny=4, max_steps=20,
                         metrics_every=4,
                         problem_kwargs={"ale_on": True}),
    "noh": RunConfig(problem="noh", nx=16, ny=16, max_steps=20,
                     metrics_every=4),
}


@pytest.mark.parametrize("case", sorted(KILLED))
def test_killed_job_resumes_bit_identical(tmp_path, case):
    """SIGKILL at step 10 of 20, checkpoints every 5: the retry
    overlays the step-10 checkpoint into a freshly built driver — so
    Kidder's boundary driver and the remapper's reference mesh are the
    pristine ones — and finishes on the uninterrupted run's bits."""
    config = KILLED[case]
    uninterrupted = run(config)
    handle = submit([config], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path), checkpoint_every=5,
                    fault_steps={0: 10})
    result = handle.results()[0]
    assert result.nstep == uninterrupted.nstep == 20
    assert _digest(result) == _digest(uninterrupted)
    assert result.metrics_rows == uninterrupted.metrics_rows
    events = _events(handle)
    assert "worker_died" in events
    (resume,) = [e for e in handle.schedule_log
                 if e["event"] == "checkpoint_resume"]
    assert os.path.basename(resume["path"]) == \
        f"{job_key(config)}.ckpt.npz"
    # resumed, not restarted: the retry wrote steps 15 and 20 only
    steps = [e["step"] for e in handle.events
             if e["event"] == "job_checkpointed"]
    assert steps == [5, 10, 15, 20]


def _step_keys(rows):
    return [(r["nstep"], r["time"], r["dt"], r["dt_reason"]) for r in rows]


def test_killed_job_returns_every_step_row(tmp_path):
    """The step rows ride the checkpoint: a job SIGKILLed at step 10
    and resumed from its step-10 checkpoint returns all 20 rows, as
    does its report — not only the 10 the retry stepped."""
    config = RunConfig(problem="noh", nx=12, ny=12, max_steps=20)
    uninterrupted = run(config)
    handle = submit([config], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path), checkpoint_every=5,
                    fault_steps={0: 10})
    result = handle.results()[0]
    assert "checkpoint_resume" in _events(handle)
    expected = _step_keys(uninterrupted.step_rows)
    assert [row[0] for row in expected] == list(range(1, 21))
    assert _step_keys(result.step_rows) == expected
    assert _step_keys(result.report()["steps"]) == expected
