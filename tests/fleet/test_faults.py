"""The fleet's fault table: what a damaged file or a killed worker does
to a sweep — an event and the right answer, never a traceback.

Rows (ROADMAP "single differential-correctness harness", (e)):

* a truncated ``<key>.entry`` in the result cache, one with a garbage
  header, one with a flipped byte in its array region (the digest
  catches it), one stored under another format version or one whose
  diagnostics rows are of another probe schema is a *miss* —
  ``cache_corrupt``, the job re-runs, its store overwrites the entry;
* a garbage ``<key>.ckpt``, or a checkpoint truncated, with a garbage
  header or with a flipped byte, is an *absent* checkpoint —
  ``checkpoint_unreadable``, the job runs from step 0;
* every kind of state file — cache entry, checkpoint, HEALTH dump —
  damaged any of those ways is one ``SnapshotError`` from its reader;
* a worker SIGKILLed mid-job resumes from its last checkpoint and lands
  bit-identical to an uninterrupted run — on the time-driven-boundary
  case (Kidder) and the ALE case (a remapper with a reference mesh)
  too, the two a rebuild-from-file resume gets wrong.

Each damaged-file row runs inline and through a one-worker pool.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import ResultCache, job_key, state_digest
from repro.metrics import DiagnosticsProbe
from repro.metrics.health import dump_path
from repro.output.restart import read_restart
from repro.problems import load_problem
from repro.telemetry.live import validate_live_stream
from repro.utils.errors import HealthError, SnapshotError
from tests.fleet.conftest import DAMAGES, as_v1, damage_entry, rewrite_header


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


CONFIG = RunConfig(problem="sod", nx=16, ny=4, max_steps=12,
                   metrics_every=4)


def _events(handle):
    return [e["event"] for e in handle.schedule_log]


def _assert_a_miss_then_warm(tmp_path, cold, workers, reason):
    """The damaged entry is ``cache_corrupt`` with ``reason`` in its
    message, the job re-runs bitwise equal to the cold run, and the
    re-run's store makes the next submit a warm hit."""
    handle = submit([CONFIG], ensemble="off", workers=workers,
                    cache_dir=str(tmp_path))
    result = handle.results()[0]
    assert not result.cache_hit
    assert _digest(result) == _digest(cold)
    (entry,) = [e for e in handle.schedule_log
                if e["event"] == "cache_corrupt"]
    assert entry["key"] == job_key(CONFIG)
    assert f"{job_key(CONFIG)}.entry" in entry["reason"]
    assert reason in entry["reason"]
    assert "cache_corrupt" in [e["event"] for e in handle.events]
    validate_live_stream(handle.events)
    assert handle.summary()["cache"]["corrupt"] == 1
    assert handle.summary()["cache"]["hits"] == 0

    # the re-run's store replaced the entry: warm again
    warm = submit([CONFIG], ensemble="off",
                  cache_dir=str(tmp_path)).results()[0]
    assert warm.cache_hit and _digest(warm) == _digest(cold)


def _cold(tmp_path):
    return submit([CONFIG], ensemble="off",
                  cache_dir=str(tmp_path)).results()[0]


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("damage", DAMAGES)
def test_damaged_cache_entry_is_a_miss(tmp_path, workers, damage):
    cold = _cold(tmp_path)
    damage_entry(tmp_path / f"{job_key(CONFIG)}.entry", damage)
    _assert_a_miss_then_warm(tmp_path, cold, workers, "cannot read")


@pytest.mark.parametrize("workers", [0, 1])
def test_stale_layout_entry_is_a_miss(tmp_path, workers):
    """An entry whose header is the v1 layout's (rows beside a report,
    no top-level ``kernels``) is ``cache_corrupt`` naming both versions
    — not a ``KeyError`` out of ``results()``."""
    cold = _cold(tmp_path)
    rewrite_header(tmp_path / f"{job_key(CONFIG)}.entry", as_v1)
    _assert_a_miss_then_warm(tmp_path, cold, workers,
                             "format version 1, expected 3")


@pytest.mark.parametrize("workers", [0, 1])
def test_rows_of_another_schema_are_a_miss(tmp_path, workers):
    """An entry whose diagnostics rows carry another probe schema is
    ``cache_corrupt`` naming both versions: it re-runs under the
    current schema instead of serving the old rows."""
    cold = _cold(tmp_path)

    def as_schema_1(meta):
        for row in meta["metrics_rows"]:
            row["schema_version"] = 1

    rewrite_header(tmp_path / f"{job_key(CONFIG)}.entry", as_schema_1)
    _assert_a_miss_then_warm(tmp_path, cold, workers,
                             "rows of schema 1, expected 2")


def test_two_file_entry_is_never_read(tmp_path):
    """A pre-v3 ``<key>.npz`` + ``<key>.json`` pair is a plain miss:
    nothing reads it, nothing reports it corrupt."""
    key = job_key(CONFIG)
    for suffix in ("npz", "json"):
        (tmp_path / f"{key}.{suffix}").write_bytes(b"an older layout")
    handle = submit([CONFIG], ensemble="off", cache_dir=str(tmp_path))
    assert not handle.results()[0].cache_hit
    assert handle.summary()["cache"]["misses"] == 1
    assert handle.summary()["cache"]["corrupt"] == 0
    assert (tmp_path / f"{key}.entry").exists()


@pytest.mark.parametrize("workers", [0, 1])
def test_garbage_checkpoint_is_an_absent_checkpoint(tmp_path, workers):
    cold = run(CONFIG)
    ckpt = tmp_path / f"{job_key(CONFIG)}.ckpt"
    ckpt.write_bytes(b"\x00garbage, not a state file\x00" * 50)

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


def _health_dump(tmp_path):
    """A ``HealthError`` dump of a poisoned Noh state."""
    hydro = load_problem("noh", nx=8, ny=8).make_hydro()
    hydro.run(max_steps=3)
    hydro.state.rho[7] = np.nan
    probe = DiagnosticsProbe(
        every=1, snapshot_path=dump_path("rank0", str(tmp_path)))
    with pytest.raises(HealthError) as exc:
        probe.sample(hydro)
    return Path(exc.value.snapshot)


def _state_file(tmp_path, kind):
    """``(path, reader)`` of one state file of ``kind``, written by the
    code that writes it in a real run."""
    if kind == "entry":
        _cold(tmp_path)
        return (tmp_path / f"{job_key(CONFIG)}.entry",
                lambda: ResultCache(str(tmp_path)).load(job_key(CONFIG),
                                                        CONFIG))
    if kind == "checkpoint":
        submit([CONFIG], ensemble="off", checkpoint_dir=str(tmp_path),
               checkpoint_every=5).results()
        path = tmp_path / f"{job_key(CONFIG)}.ckpt"
    else:
        path = _health_dump(tmp_path)
    return path, lambda: read_restart(path)


@pytest.mark.parametrize("damage", DAMAGES)
@pytest.mark.parametrize("kind", ["entry", "checkpoint", "health"])
def test_every_damaged_state_file_is_one_error(tmp_path, kind, damage):
    path, read = _state_file(tmp_path, kind)
    read()                              # undamaged, it reads
    damage_entry(path, damage)
    with pytest.raises(SnapshotError, match=f"cannot read {path}"):
        read()


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("damage", DAMAGES)
def test_damaged_checkpoint_is_an_absent_checkpoint(tmp_path, workers,
                                                    damage):
    """The step-10 checkpoint a finished job left, damaged: the rerun
    logs ``checkpoint_unreadable``, runs from step 0 (it writes steps 5
    and 10 again) and lands on the undamaged run's digest."""
    cold = run(CONFIG)
    ckpt, _ = _state_file(tmp_path, "checkpoint")
    damage_entry(ckpt, damage)

    handle = submit([CONFIG], ensemble="off", workers=workers,
                    checkpoint_dir=str(tmp_path), checkpoint_every=5)
    result = handle.results()[0]
    assert result.nstep == cold.nstep
    assert _digest(result) == _digest(cold)
    (entry,) = [e for e in handle.schedule_log
                if e["event"] == "checkpoint_unreadable"]
    assert entry["path"] == str(ckpt)
    assert "checkpoint_resume" not in _events(handle)
    assert [e["step"] for e in handle.events
            if e["event"] == "job_checkpointed"] == [5, 10]
    assert read_restart(ckpt).nstep == 10


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
        f"{job_key(config)}.ckpt"
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
