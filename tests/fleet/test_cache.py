"""Result-cache round trips: a cached result is the run, bit for bit."""

import hashlib
import json

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.core.state import HydroState
from repro.fleet import ResultCache, job_key, state_digest
from repro.output.restart import FORMAT_VERSION, read_state
from repro.telemetry.report import decode_steps, encode_steps
from repro.utils.errors import FleetError, SnapshotError
from tests.fleet.conftest import (DAMAGES, as_report_layout, as_v1,
                                  damage_entry, rewrite_header)


def _cfg(**kw):
    base = dict(problem="sod", nx=16, ny=8, max_steps=8)
    base.update(kw)
    return RunConfig(**base)


def test_store_load_round_trip(tmp_path):
    config = _cfg()
    result = run(config)
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    assert not cache.has(key)
    cache.store(key, result)
    assert cache.has(key)
    loaded = cache.load(key, config)
    assert loaded.cache_hit is True
    assert loaded.nstep == result.nstep
    assert loaded.time == result.time
    assert loaded.backend == result.backend
    for name in HydroState.field_names():
        assert np.array_equal(getattr(loaded.state, name),
                              getattr(result.state, name)), name
    assert state_digest(loaded.state, loaded.nstep, loaded.time,
                        loaded.metrics_rows) == \
        state_digest(result.state, result.nstep, result.time,
                     result.metrics_rows)
    assert cache.stats()["stores"] == 1
    assert cache.stats()["hits"] == 1


def test_entry_stores_the_result_fields_not_a_report(tmp_path):
    """The entry holds the fields every report is rendered from — the
    timers as kernel entries, the per-rank comm counters in the meta
    document, the step rows as columns beside the state — and no
    rendered report, derived comm total or step rows in JSON."""
    config = _cfg(nranks=2)
    result = run(config)
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, result)
    meta = cache.meta(key)
    assert meta["kernels"] == result.timers.entries()
    assert meta["comm_per_rank"] == result.comm_per_rank
    assert not {"report", "comm_total", "step_rows"} & set(meta)
    stored, arrays = read_state(tmp_path / f"{key}.entry")
    assert decode_steps(arrays, stored["step_reasons"]) == result.step_rows
    assert arrays["step_nstep"].dtype == np.int64
    for name in ("time", "dt", "wall_seconds"):
        assert arrays[f"step_{name}"].dtype == np.float64
    assert stored["step_reasons"] == list(dict.fromkeys(
        row["dt_reason"] for row in result.step_rows))


#: one config per way a result reaches the caller: the submit options
#: that take it there
PATHS = {
    "serial": (_cfg(metrics_every=4), dict(ensemble="off")),
    "processes2": (_cfg(nranks=2, backend="processes", metrics_every=4),
                   dict(ensemble="off")),
    "lane": (_cfg(metrics_every=4),
             dict(control_overrides=[{"cq1": 0.75}])),
    "pooled": (RunConfig(problem="sedov", nx=12, ny=12, max_steps=10,
                         metrics_every=5),
               dict(ensemble="off", workers=1)),
}


def _record(result) -> str:
    """What a caller reads off a result, as JSON."""
    return json.dumps({
        "report": result.report(),
        "step_rows": result.step_rows,
        "comm_total": result.comm_total,
        "comm_per_rank": result.comm_per_rank,
        "metrics_rows": result.metrics_rows,
    }, sort_keys=True)


@pytest.mark.parametrize("path", sorted(PATHS))
def test_hit_renders_the_live_run_record(tmp_path, monkeypatch, path):
    """The result a store is handed is the live run's — in this
    process for an inline job or a lane, in the worker for a pooled
    one.  The pooled job's result and a later hit render the same
    record from the entry, and their timers are the report's kernel
    table."""
    config, options = PATHS[path]
    store = ResultCache.store

    def recording_store(self, key, result):
        # the pool forks after this patch, so a worker records too
        store(self, key, result)
        (tmp_path / f"{key}.live").write_text(_record(result))

    monkeypatch.setattr(ResultCache, "store", recording_store)
    cache_dir = str(tmp_path / "cache")
    first = submit([config], cache_dir=cache_dir, **options).results()[0]
    hit = submit([config], cache_dir=cache_dir, **options).results()[0]
    assert hit.cache_hit and not first.cache_hit
    (live,) = [p.read_text() for p in tmp_path.glob("*.live")]
    for result in (first, hit):
        assert _record(result) == live
        assert result.timers.entries() == result.report()["kernels"]


def test_a_zero_step_entry_round_trips(tmp_path):
    """A ``max_steps=0`` result stores empty step columns and an empty
    vocabulary (the bench's zero-step twins store exactly these), and
    its hit renders the live record."""
    config = _cfg(max_steps=0)
    result = run(config)
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, result)
    meta, arrays = read_state(tmp_path / f"{key}.entry")
    assert meta["step_reasons"] == []
    steps = {name: a for name, a in arrays.items()
             if name.startswith("step_")}
    assert sorted(steps) == sorted(encode_steps([])[0])
    assert all(a.shape == (0,) for a in steps.values())
    loaded = cache.load(key, config)
    assert loaded.step_rows == [] and loaded.nstep == 0
    assert _record(loaded) == _record(result)


def test_digest_excludes_wall_time(tmp_path):
    """Two executions of the same config digest identically even
    though their wall seconds differ."""
    config = _cfg()
    a, b = run(config), run(config)
    assert state_digest(a.state, a.nstep, a.time, a.metrics_rows) == \
        state_digest(b.state, b.nstep, b.time, b.metrics_rows)


def test_missing_key_raises(tmp_path):
    cache = ResultCache(str(tmp_path))
    with pytest.raises(FleetError, match="missing"):
        cache.load("deadbeef", _cfg())


def test_overlay_state_round_trip():
    setup_a = _cfg().build_setup()
    result = run(_cfg())
    arrays = result.state.arrays()
    assert sorted(arrays) == sorted(
        HydroState.field_names() + ("bc_flags", "bc_ux", "bc_uy"))
    setup_a.state.overlay(arrays)
    for name in HydroState.field_names():
        assert np.array_equal(getattr(setup_a.state, name),
                              getattr(result.state, name)), name
    # the node-mass cache was invalidated, not stale
    assert setup_a.state.total_mass() == result.state.total_mass()


def test_entry_layout_is_one_atomic_file(tmp_path):
    """``<key>.entry`` is the only file an entry leaves behind, in the
    state file layout: a length prefix, the meta document, exactly the
    bytes of ``HydroState.arrays()`` and of the step columns in
    sorted-name order, each 8-byte aligned, and the sha256 of
    everything before it."""
    config = _cfg()
    result = run(config)
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, result)
    path = tmp_path / f"{key}.entry"
    assert sorted(f.name for f in tmp_path.iterdir()) == [path.name]
    data = path.read_bytes()
    end = 8 + int.from_bytes(data[:8], "little")
    assert end % 8 == 0
    meta = json.loads(data[8:end])
    assert meta == cache.meta(key)
    assert meta["format_version"] == FORMAT_VERSION == 3
    assert meta["key"] == key
    arrays = dict(result.state.arrays(),
                  **encode_steps(result.step_rows)[0])
    names = sorted(arrays)
    assert [doc["name"] for doc in meta["arrays"]] == names
    for doc in meta["arrays"]:
        assert doc["offset"] % 8 == 0
        assert doc["dtype"] == arrays[doc["name"]].dtype.str
        assert doc["shape"] == list(arrays[doc["name"]].shape)
        lo = end + doc["offset"]
        assert data[lo:lo + arrays[doc["name"]].nbytes] == \
            arrays[doc["name"]].tobytes()
    assert data[-32:] == hashlib.sha256(data[:-32]).digest()


REASONS = {"truncated": "truncated", "header": "undecodable header",
           "flipped": "digest check"}


@pytest.mark.parametrize("damage", DAMAGES)
def test_unreadable_entry_is_evicted_and_counted(tmp_path, damage):
    config = _cfg()
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, run(config))
    damage_entry(tmp_path / f"{key}.entry", damage)
    with pytest.raises(SnapshotError, match=f"cannot read .*{REASONS[damage]}"):
        cache.load(key, config)
    assert not cache.has(key)
    assert cache.stats()["corrupt"] == 1
    assert cache.stats()["hits"] == 0


def test_stale_schema_version_is_evicted_and_named(tmp_path):
    config = _cfg()
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, run(config))
    rewrite_header(tmp_path / f"{key}.entry", as_v1)
    with pytest.raises(SnapshotError,
                       match="format version 1, expected 3"):
        cache.meta(key)
    with pytest.raises(SnapshotError,
                       match="format version 1, expected 3"):
        cache.load(key, config)
    assert not cache.has(key)
    assert cache.stats()["corrupt"] == 1


def test_incomplete_meta_document_is_evicted(tmp_path):
    """A current-version header that lacks a field ``load`` reads is a
    ``SnapshotError``, not a ``KeyError``."""
    config = _cfg()
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, run(config))
    rewrite_header(tmp_path / f"{key}.entry",
                   lambda meta: meta.pop("step_reasons"))
    with pytest.raises(SnapshotError, match="incomplete meta document"):
        cache.load(key, config)
    assert not cache.has(key)
    assert cache.stats()["corrupt"] == 1


def test_report_layout_entry_is_evicted(tmp_path):
    """An entry that stored a rendered report in place of the result's
    fields (no ``kernels``) is an incomplete meta document: evicted,
    counted, re-run."""
    config = _cfg()
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, run(config))
    rewrite_header(tmp_path / f"{key}.entry", as_report_layout)
    with pytest.raises(SnapshotError, match="incomplete meta document"):
        cache.load(key, config)
    assert not cache.has(key)
    assert cache.stats()["corrupt"] == 1
