"""Tests for snapshots: freeze a run, thaw it into a fresh driver."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.state import HydroState
from repro.output.restart import (
    FORMAT_VERSION,
    freeze,
    read_meta,
    read_restart,
    read_state,
    thaw,
    write_restart,
    write_state,
)
from repro.problems import load_problem
from repro.utils.errors import BookLeafError, SnapshotError
from tests.fleet.conftest import damage_entry, rewrite_header


@pytest.fixture
def mid_run():
    setup = load_problem("sod", nx=30, ny=2, time_end=0.05)
    hydro = setup.make_hydro()
    hydro.run(max_steps=10)
    return setup, hydro


def test_roundtrip_bit_exact(tmp_path, mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.state", hydro)
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
    assert [f.name for f in tmp_path.iterdir()] == ["chk.state"]


@pytest.mark.parametrize("name", ["dump", "dump.npz", Path("dump")])
def test_writer_returns_the_file_it_wrote(tmp_path, mid_run, name):
    """The writer writes exactly the path it is given: no suffix is
    appended, and a ``.npz`` name holds the one state layout too."""
    _, hydro = mid_run
    path = write_restart(tmp_path / name, hydro.state, hydro.time,
                         hydro.nstep, hydro.dt)
    assert path == tmp_path / name
    assert [f.name for f in tmp_path.iterdir()] == [str(name)]
    assert read_restart(path).nstep == hydro.nstep


def test_extra_rides_the_embedded_meta(tmp_path, mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.state", hydro, mesh=False,
                  extra={"key": "k", "rows": [1, 2]})
    snap = read_restart(path)
    assert snap.extra == {"key": "k", "rows": [1, 2]}
    assert "cell_nodes" not in snap.arrays
    meta = read_meta(path)
    assert meta["format_version"] == FORMAT_VERSION == 3
    assert meta["extra"] == snap.extra
    assert (meta["time"], meta["nstep"]) == (hydro.time, hydro.nstep)


def test_resumed_run_matches_uninterrupted(tmp_path):
    """Snapshot at step 10, overlay into a freshly built driver, run to
    the end: identical to an uninterrupted run (bit-for-bit)."""
    straight = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    straight.run()

    first = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    first.run(max_steps=10)
    path = freeze(tmp_path / "chk.state", first)

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
    path = freeze(tmp_path / "chk.state", hydro)
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
        read_restart(tmp_path / "nope.state")


@pytest.mark.parametrize("content", [b"", b"not a zip " * 20, None])
def test_unreadable_file_is_one_structured_error(tmp_path, mid_run,
                                                 content):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.state", hydro)
    if content is None:                 # truncated mid-member
        content = path.read_bytes()[:path.stat().st_size // 2]
    path.write_bytes(content)
    with pytest.raises(SnapshotError, match="cannot read"):
        read_restart(path)


def test_wrong_version_rejected(tmp_path, mid_run):
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.state", hydro.state)
    rewrite_header(path, lambda meta: meta.update(format_version=99))
    with pytest.raises(BookLeafError, match="format version 99"):
        read_restart(path)
    # the v1 layout (a zip of bare members, no __meta__) is refused too
    state = hydro.state.arrays()
    with open(path, "wb") as fh:
        np.savez(fh, version=np.int64(1), **state)
    with pytest.raises(SnapshotError, match="format version 1"):
        read_restart(path)


def test_format_2_npz_is_refused_by_name(tmp_path, mid_run):
    """A snapshot of the ``.npz`` layout is named as format version 2,
    not misread as a header length."""
    _, hydro = mid_run
    meta = {"format_version": 2, "time": hydro.time, "nstep": hydro.nstep,
            "dt": hydro.dt, "dt_reason": hydro.dt_reason,
            "dt_cell": hydro.dt_cell, "fingerprint": None, "extra": {}}
    path = tmp_path / "old.npz"
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(),
                                            dtype=np.uint8),
                 **hydro.state.arrays())
    with pytest.raises(SnapshotError,
                       match="format version 2, expected format version 3"):
        read_restart(path)


def test_undecodable_meta_rejected(tmp_path, mid_run):
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.state", hydro.state)
    damage_entry(path, "header")
    with pytest.raises(SnapshotError, match="undecodable"):
        read_restart(path)
    # right version, clocks missing
    path = write_restart(tmp_path / "chk.state", hydro.state)
    rewrite_header(path, lambda meta: meta.pop("time"))
    with pytest.raises(SnapshotError, match="undecodable"):
        read_restart(path)


def test_tampered_dump_rejected(tmp_path, mid_run):
    """One flipped material index fails the whole-file digest, which
    covers the mesh block too."""
    _, hydro = mid_run
    path = write_restart(tmp_path / "chk.state", hydro.state)
    meta = read_meta(path)
    start = 8 + int.from_bytes(path.read_bytes()[:8], "little")
    (mat,) = [doc for doc in meta["arrays"] if doc["name"] == "mat"]
    data = bytearray(path.read_bytes())
    data[start + mat["offset"]] ^= 1    # flip a material index
    path.write_bytes(bytes(data))
    with pytest.raises(BookLeafError, match="digest check"):
        read_restart(path)


def test_missing_member_refused_before_anything_is_overlaid(tmp_path,
                                                            mid_run):
    _, hydro = mid_run
    path = freeze(tmp_path / "chk.state", hydro, mesh=False)
    meta, data = read_state(path)
    del data["corner_mass"]
    write_state(path, meta, data)
    fresh = load_problem("sod", nx=30, ny=2, time_end=0.05).make_hydro()
    before = fresh.state.rho.copy()
    with pytest.raises(SnapshotError, match="corner_mass"):
        thaw(fresh, read_restart(path))
    np.testing.assert_array_equal(fresh.state.rho, before)
    assert fresh.nstep == 0


def test_fresh_state_checkpoint(tmp_path):
    setup = load_problem("noh", nx=8, ny=8)
    path = write_restart(tmp_path / "t0.state", setup.state)
    snap = read_restart(path)
    assert snap.time == 0.0 and snap.nstep == 0
    np.testing.assert_array_equal(snap.arrays["rho"], setup.state.rho)
    # a bare-state dump recorded no dt: thawing keeps the driver's
    hydro = load_problem("noh", nx=8, ny=8).make_hydro()
    dt = hydro.dt
    thaw(hydro, snap)
    assert hydro.dt == dt
