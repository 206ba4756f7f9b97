"""Snapshots: the one way a run is frozen to disk and thawed again.

A snapshot is one uncompressed ``.npz``, written tmp-file +
``os.replace``: every :meth:`HydroState.arrays` member (fields, ``mat``,
the three bc planes) plus ``__meta__``, a JSON record of the format
version, the five loop clocks ``time nstep dt dt_reason dt_cell``
(``getdt`` growth-limits against the previous dt, so it is state), a
caller-supplied ``extra`` dict and — for dumps that must be readable
without the deck — the fingerprint of a mesh block ``mesh_x0 mesh_y0
cell_nodes`` stored beside the fields.  Stand-alone and forensic dumps
carry the mesh block; keyed fleet checkpoints do not, their job key
names the config that rebuilds the mesh.

There is one restore path, :func:`thaw`: overlay into a driver the
caller built fresh from its config.  A state is never rebuilt from the
file — the boundary driver, the material table and the ALE remapper's
reference mesh are not in it.  Every way a file can be unusable is one
:class:`~repro.utils.errors.SnapshotError`.  The fleet's result cache
is not a snapshot: it keeps its own one-file entry layout
(:mod:`repro.fleet.cache`) and shares only :func:`atomic_write`.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

import numpy as np

from ..utils.errors import SnapshotError

#: snapshot layout version (v1 was the compressed rebuild-from-file dump)
FORMAT_VERSION = 2

_META = "__meta__"


def atomic_write(path: Union[str, Path], write: Callable) -> None:
    """``write(fh)`` into a temporary file beside ``path``, then move it
    into place: a reader sees the old file or the new one, never a torn
    one, and a killed writer leaves neither."""
    root = os.path.dirname(os.path.abspath(path))
    os.makedirs(root, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_npz(path: Union[str, Path],
              arrays: Dict[str, np.ndarray]) -> Path:
    """Atomically write an uncompressed ``.npz``; returns the path
    written (``.npz`` is appended when missing)."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    atomic_write(path, lambda fh: np.savez(fh, **arrays))
    return path


def read_npz(path: Union[str, Path]) -> Dict[str, np.ndarray]:
    """Every member of an ``.npz``, read eagerly."""
    import zipfile  # np.load imports it for any .npz anyway

    try:
        with np.load(path) as data:
            return {name: data[name] for name in data.files}
    except (OSError, EOFError, ValueError, TypeError,
            zipfile.BadZipFile) as exc:
        # missing, empty, not a zip (np.load then wants a pickle, or
        # hands back a bare array), truncated, bad CRC
        raise SnapshotError(
            f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def _fingerprint(cell_nodes: np.ndarray, mat: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(cell_nodes).tobytes())
    digest.update(np.ascontiguousarray(mat).tobytes())
    return digest.hexdigest()


@dataclass
class Snapshot:
    """A snapshot read back: the stored arrays (fields, bc planes, the
    mesh block when present), the clocks and the writer's ``extra``."""

    arrays: Dict[str, np.ndarray]
    time: float
    nstep: int
    dt: float
    dt_reason: Optional[str]
    dt_cell: int
    extra: Dict[str, Any]


def write_restart(path: Union[str, Path], state,
                  time: float = 0.0, nstep: int = 0, dt: float = 0.0, *,
                  dt_reason: Optional[str] = "initial", dt_cell: int = -1,
                  extra: Optional[Dict[str, Any]] = None,
                  mesh: bool = True) -> Path:
    """Write a snapshot of ``state`` and the given clocks; returns the
    path written.  ``extra`` must be JSON-serialisable."""
    arrays = state.arrays()
    fingerprint = None
    if mesh:
        arrays.update(mesh_x0=state.mesh.x, mesh_y0=state.mesh.y,
                      cell_nodes=state.mesh.cell_nodes)
        fingerprint = _fingerprint(state.mesh.cell_nodes, state.mat)
    meta = dict(format_version=FORMAT_VERSION, time=float(time),
                nstep=int(nstep), dt=float(dt), dt_reason=dt_reason,
                dt_cell=int(dt_cell), fingerprint=fingerprint,
                extra=extra or {})
    arrays[_META] = np.frombuffer(json.dumps(meta).encode("utf-8"),
                                  dtype=np.uint8)
    return write_npz(path, arrays)


def freeze(path: Union[str, Path], hydro, *,
           extra: Optional[Dict[str, Any]] = None,
           mesh: bool = True) -> Path:
    """Snapshot a live driver: its state and its own clocks."""
    return write_restart(path, hydro.state, hydro.time, hydro.nstep,
                         hydro.dt, dt_reason=hydro.dt_reason,
                         dt_cell=hydro.dt_cell, extra=extra, mesh=mesh)


def read_restart(path: Union[str, Path]) -> Snapshot:
    """Read a snapshot back, checking its version and — when it carries
    the mesh block — its fingerprint."""
    arrays = read_npz(path)
    raw = arrays.pop(_META, None)
    try:
        meta = {} if raw is None else json.loads(bytes(raw).decode("utf-8"))
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotError(f"{path} has format version {version}, "
                                f"expected {FORMAT_VERSION}")
        snapshot = Snapshot(arrays, float(meta["time"]), int(meta["nstep"]),
                            float(meta["dt"]), meta["dt_reason"],
                            int(meta["dt_cell"]), dict(meta["extra"]))
        stored = meta["fingerprint"]
        if stored is not None and stored != _fingerprint(
                arrays["cell_nodes"], arrays["mat"]):
            raise SnapshotError(f"{path} failed its fingerprint check")
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise SnapshotError(f"{path} has an undecodable {_META} record "
                            f"({type(exc).__name__}: {exc})") from exc
    return snapshot


def thaw(hydro, snapshot: Snapshot) -> None:
    """The one restore path: overlay ``snapshot`` into ``hydro``, a
    driver built fresh from its config."""
    hydro.state.overlay(snapshot.arrays)
    hydro.time = snapshot.time
    hydro.nstep = snapshot.nstep
    if snapshot.dt > 0.0:       # a bare-state dump recorded no dt
        hydro.dt = snapshot.dt
    hydro.dt_reason = snapshot.dt_reason
    hydro.dt_cell = snapshot.dt_cell
