"""Tests for snapshots: freeze a run, thaw it into a fresh driver."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.state import HydroState
from repro.output.restart import (
    FORMAT_VERSION,
    freeze,
    read_restart,
    thaw,
    write_npz,
    write_restart,
)
from repro.problems import load_problem
from repro.utils.errors import BookLeafError, SnapshotError


@pytest.fixture
def mid_run():
    setup = load_problem("sod", nx=30, ny=2, time_end=0.05)
    hydro = setup.make_hydro()
    hydro.run(max_steps=10)
    return setup, hydro


def _rewrite(path, **members):
    """Rewrite a snapshot with some members replaced."""
    data = dict(np.load(path))
    data.update(members)
    write_npz(path, data)


def _meta(path) -> dict:
    return json.loads(bytes(np.load(path)["__meta__"]).decode())


def _as_member(meta: dict) -> np.ndarray:
    return np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def test_roundtrip_bit_exact(tmp_path, mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.npz", hydro)
    snap = read_restart(path)
    assert snap.time == hydro.time
    assert snap.nstep == hydro.nstep
    assert snap.dt == hydro.dt
    assert (snap.dt_reason, snap.dt_cell) == (hydro.dt_reason,
                                              hydro.dt_cell)
    for name in HydroState.field_names():
        np.testing.assert_array_equal(snap.arrays[name],
                                      getattr(hydro.state, name))
    np.testing.assert_array_equal(snap.arrays["bc_flags"],
                                  hydro.state.bc.flags)
    # a stand-alone dump is readable without the deck
    np.testing.assert_array_equal(snap.arrays["cell_nodes"],
                                  hydro.state.mesh.cell_nodes)
    np.testing.assert_array_equal(snap.arrays["mesh_x0"],
                                  hydro.state.mesh.x)
    # atomic write: no temp files left behind
    assert [f.name for f in tmp_path.iterdir()] == ["chk.npz"]


@pytest.mark.parametrize("name", ["dump", "dump.npz", Path("dump")])
def test_writer_returns_the_file_it_wrote(tmp_path, mid_run, name):
    _, hydro = mid_run
    path = write_restart(tmp_path / name, hydro.state, hydro.time,
                         hydro.nstep, hydro.dt)
    assert path == tmp_path / "dump.npz"
    assert path.exists()
    assert read_restart(path).nstep == hydro.nstep


def test_extra_rides_the_embedded_meta(tmp_path, mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.npz", hydro, mesh=False,
                  extra={"key": "k", "rows": [1, 2]})
    snap = read_restart(path)
    assert snap.extra == {"key": "k", "rows": [1, 2]}
    assert "cell_nodes" not in snap.arrays
    meta = _meta(path)
    assert meta["format_version"] == FORMAT_VERSION
    assert meta["fingerprint"] is None


def test_resumed_run_matches_uninterrupted(tmp_path):
    """Snapshot at step 10, overlay into a freshly built driver, run to
    the end: identical to an uninterrupted run (bit-for-bit)."""
    straight = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    straight.run()

    first = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    first.run(max_steps=10)
    path = freeze(tmp_path / "chk.npz", first)

    resumed = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    thaw(resumed, read_restart(path))
    resumed.run()

    assert resumed.nstep == straight.nstep
    assert resumed.time == straight.time
    np.testing.assert_array_equal(resumed.state.rho, straight.state.rho)
    np.testing.assert_array_equal(resumed.state.u, straight.state.u)
    np.testing.assert_array_equal(resumed.state.x, straight.state.x)


def test_restart_preserves_bcs_functionally(tmp_path, mid_run):
    setup, hydro = mid_run
    path = freeze(tmp_path / "chk.npz", hydro)
    resumed = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    resumed.state.bc.flags[:] = 0       # thaw must bring the planes back
    thaw(resumed, read_restart(path))
    np.testing.assert_array_equal(resumed.state.bc.flags,
                                  hydro.state.bc.flags)
    resumed.step()
    mesh = resumed.state.mesh
    left = np.isclose(mesh.x, 0.0)
    assert np.all(resumed.state.u[left] == 0.0)


def test_missing_file_raises(tmp_path):
    with pytest.raises(BookLeafError, match="cannot read"):
        read_restart(tmp_path / "nope.npz")


@pytest.mark.parametrize("content", [b"", b"not a zip " * 20, None])
def test_unreadable_file_is_one_structured_error(tmp_path, mid_run,
                                                 content):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.npz", hydro)
    if content is None:                 # truncated mid-member
        content = path.read_bytes()[:path.stat().st_size // 2]
    path.write_bytes(content)
    with pytest.raises(SnapshotError, match="cannot read"):
        read_restart(path)


def test_wrong_version_rejected(tmp_path, mid_run):
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.npz", hydro.state)
    _rewrite(path, __meta__=_as_member(dict(_meta(path),
                                            format_version=99)))
    with pytest.raises(BookLeafError, match="format version 99"):
        read_restart(path)
    # the v1 layout (bare members, no __meta__) is refused the same way
    data = dict(np.load(path))
    del data["__meta__"]
    write_npz(path, dict(data, version=np.int64(1)))
    with pytest.raises(SnapshotError, match="format version"):
        read_restart(path)


def test_undecodable_meta_rejected(tmp_path, mid_run):
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.npz", hydro.state)
    _rewrite(path, __meta__=np.frombuffer(b"{not json", dtype=np.uint8))
    with pytest.raises(SnapshotError, match="undecodable"):
        read_restart(path)
    # right version, clocks missing
    _rewrite(path, __meta__=_as_member({"format_version": FORMAT_VERSION}))
    with pytest.raises(SnapshotError, match="undecodable"):
        read_restart(path)


def test_tampered_dump_rejected(tmp_path, mid_run):
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.npz", hydro.state)
    mat = np.load(path)["mat"].copy()
    mat[0] = 1 - mat[0]                 # flip a material index
    _rewrite(path, mat=mat)
    with pytest.raises(BookLeafError, match="fingerprint"):
        read_restart(path)


def test_missing_member_refused_before_anything_is_overlaid(tmp_path,
                                                            mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.npz", hydro, mesh=False)
    data = dict(np.load(path))
    del data["corner_mass"]
    write_npz(path, data)
    fresh = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    before = fresh.state.rho.copy()
    with pytest.raises(SnapshotError, match="corner_mass"):
        thaw(fresh, read_restart(path))
    np.testing.assert_array_equal(fresh.state.rho, before)
    assert fresh.nstep == 0


def test_fresh_state_checkpoint(tmp_path):
    setup = load_problem("noh", nx=8, ny=8)
    path = write_restart(tmp_path / "t0.npz", setup.state)
    snap = read_restart(path)
    assert snap.time == 0.0 and snap.nstep == 0
    np.testing.assert_array_equal(snap.arrays["rho"], setup.state.rho)
    # a bare-state dump recorded no dt: thawing keeps the driver's
    hydro = load_problem("noh", nx=8, ny=8).make_hydro()
    dt = hydro.dt
    thaw(hydro, snap)
    assert hydro.dt == dt
