"""Checkpoint/restart: a resumed job is bit-identical to an
uninterrupted one."""

import json
import os

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.fleet import (CheckpointWriter, restore_into, save_checkpoint,
                         state_digest)
from repro.output.restart import read_restart
from repro.utils.errors import FleetError


def _cfg(**kw):
    base = dict(problem="sod", nx=24, ny=8, max_steps=24)
    base.update(kw)
    return RunConfig(**base)


def test_writer_cadence(tmp_path):
    path = str(tmp_path / "job.ckpt")
    writer = CheckpointWriter(path, every=5)
    run(_cfg(max_steps=12), observers=[writer])
    # steps 5 and 10 checkpointed (observers see nstep post-increment)
    assert writer.saves == 2
    assert read_restart(path).nstep == 10


def test_writer_rejects_bad_cadence(tmp_path):
    with pytest.raises(FleetError, match="cadence"):
        CheckpointWriter(str(tmp_path / "x.ckpt"), every=0)


def test_resume_is_bit_identical(tmp_path):
    """Run 24 steps straight; run 12, checkpoint, rebuild, resume 12
    more — identical state, clocks and metrics rows."""
    config = _cfg(metrics_every=4)
    full = run(config)

    path = str(tmp_path / "job.ckpt")
    half = run(config.replace(max_steps=12))
    # checkpoint the half-way driver state directly
    save_checkpoint(path, half.driver.hydros[0], key="k1")

    from repro.api import _execute_run

    def on_prepared(driver, max_steps):
        return restore_into(driver, path, key="k1",
                            max_steps=max_steps)

    resumed = _execute_run(config, on_prepared=on_prepared)
    assert resumed.nstep == full.nstep
    assert resumed.time == full.time
    for name in ("x", "y", "u", "v", "rho", "e", "p"):
        assert np.array_equal(getattr(resumed.state, name),
                              getattr(full.state, name)), name
    assert resumed.metrics_rows == full.metrics_rows
    assert state_digest(resumed.state, resumed.nstep, resumed.time,
                        resumed.metrics_rows) == \
        state_digest(full.state, full.nstep, full.time,
                     full.metrics_rows)


def test_resume_rewrites_ndjson_stream(tmp_path):
    """The resumed NDJSON metrics file is byte-identical to an
    uninterrupted run's."""
    m_full = str(tmp_path / "full.ndjson")
    m_res = str(tmp_path / "resumed.ndjson")
    config = _cfg(metrics_every=4, metrics=m_full)
    run(config)

    config_res = config.replace(metrics=m_res)
    path = str(tmp_path / "job.ckpt")
    half = run(config_res.replace(max_steps=12))
    save_checkpoint(path, half.driver.hydros[0])

    from repro.api import _execute_run

    _execute_run(config_res, on_prepared=lambda d, m: restore_into(
        d, path, max_steps=m))
    with open(m_full, "rb") as a, open(m_res, "rb") as b:
        assert a.read() == b.read()


def test_key_mismatch_refuses(tmp_path):
    config = _cfg(max_steps=6)
    result = run(config)
    path = str(tmp_path / "job.ckpt")
    save_checkpoint(path, result.driver.hydros[0], key="job-A")
    fresh = run(config.replace(max_steps=1))
    with pytest.raises(FleetError, match="refusing to overlay"):
        restore_into(fresh.driver, path, key="job-B")


def test_checkpoint_meta_is_embedded_json(tmp_path):
    config = _cfg(max_steps=6)
    result = run(config)
    path = str(tmp_path / "job.ckpt")
    save_checkpoint(path, result.driver.hydros[0], key="k")
    snap = read_restart(path)
    assert snap.extra["key"] == "k"
    assert snap.nstep == 6
    assert "x" in snap.arrays and "bc_flags" in snap.arrays
    # keyed: the config rebuilds the mesh, so no mesh block rides along
    assert "cell_nodes" not in snap.arrays
    # atomic write: no temp files left behind
    assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []
