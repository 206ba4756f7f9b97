"""State files: the one on-disk layout for run state, and snapshots.

Every file that holds run state — a snapshot (:func:`freeze`), a fleet
checkpoint, a ``HealthError`` forensic dump and a result-cache entry
(:mod:`repro.fleet.cache`) — is written by :func:`write_state`, to
exactly the path it is given, in one :func:`atomic_write`::

    8 bytes   header length, little-endian
    header    JSON: the caller's meta document plus ``format_version``
              and an ``arrays`` table of name, dtype, shape and offset,
              space-padded so the planes start 8-byte aligned
    planes    each array's raw bytes, sorted by name, each 8-byte
              aligned (zero padding between them)
    32 bytes  the sha256 of every byte before it

:func:`read_state` is one ``read()``: it checks the version, recomputes
the digest over the header (clocks, meta) and the planes, and hands the
arrays back as read-only views of the bytes read.  :func:`read_meta`
reads the header alone.  Every way a file can be unusable — missing,
truncated, a garbage header, another format version (a ``.npz``
snapshot of the older layouts is named as such), a digest mismatch —
is one :class:`~repro.utils.errors.SnapshotError`.

A snapshot's meta document is the five loop clocks ``time nstep dt
dt_reason dt_cell`` (``getdt`` growth-limits against the previous dt,
so it is state) and a caller-supplied ``extra`` dict; its arrays are
:meth:`HydroState.arrays` (fields, ``mat``, the three bc planes) plus,
for dumps that must be readable without the deck, a mesh block
``mesh_x0 mesh_y0 cell_nodes``.  Stand-alone and forensic dumps carry
the mesh block; keyed fleet checkpoints do not, their job key names the
config that rebuilds the mesh.

There is one restore path, :func:`thaw`: overlay into a driver the
caller built fresh from its config.  A state is never rebuilt from the
file — the boundary driver, the material table and the ALE remapper's
reference mesh are not in it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from ..utils.errors import SnapshotError

#: layout version of every state file (v1 was the compressed
#: rebuild-from-file ``.npz`` dump, v2 the uncompressed ``.npz``
#: snapshot and the cache's own ``<key>.entry``)
FORMAT_VERSION = 3

#: bytes of the header-length prefix, of the digest trailer, and the
#: alignment of the planes
_PREFIX = 8
_DIGEST = 32
_ALIGN = 8


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


def write_state(path: Union[str, Path], meta: Dict[str, Any],
                arrays: Dict[str, np.ndarray]) -> Path:
    """Atomically write ``meta`` and ``arrays`` to ``path`` in the state
    file layout; returns ``Path(path)``."""
    planes = [(name, np.ascontiguousarray(arrays[name]))
              for name in sorted(arrays)]
    table, offset = [], 0
    for name, arr in planes:
        offset += -offset % _ALIGN
        table.append({"name": name, "dtype": arr.dtype.str,
                      "shape": list(arr.shape), "offset": offset})
        offset += arr.nbytes
    header = json.dumps(dict(meta, format_version=FORMAT_VERSION,
                             arrays=table), default=repr).encode("utf-8")
    header += b" " * (-(_PREFIX + len(header)) % _ALIGN)

    def write(fh):
        digest = hashlib.sha256()

        def put(data):
            digest.update(data)
            fh.write(data)

        put(len(header).to_bytes(_PREFIX, "little"))
        put(header)
        end = 0
        for (_, arr), doc in zip(planes, table):
            put(bytes(doc["offset"] - end))
            put(arr.reshape(-1).view(np.uint8))
            end = doc["offset"] + arr.nbytes
        fh.write(digest.digest())

    atomic_write(path, write)
    return Path(path)


def _header(path, raw: bytes, size: int) -> Tuple[dict, int]:
    """``(meta document, offset of the planes)`` of a file of ``size``
    bytes whose first bytes are ``raw`` (at least the prefix and the
    header)."""
    if raw[:4] == b"PK\x03\x04":      # a zip: an older .npz snapshot
        version = 2 if b"__meta__" in raw else 1
        raise SnapshotError(f"cannot read {path}: a .npz snapshot of "
                            f"format version {version}, expected "
                            f"format version {FORMAT_VERSION}")
    if size < _PREFIX + _DIGEST:
        raise SnapshotError(f"cannot read {path}: truncated, {size} bytes")
    end = _PREFIX + int.from_bytes(raw[:_PREFIX], "little")
    if end > size - _DIGEST:
        raise SnapshotError(f"cannot read {path}: truncated, the header "
                            f"runs to byte {end} of {size}")
    try:
        meta = json.loads(raw[_PREFIX:end])
    except ValueError as exc:     # UnicodeDecodeError is one
        raise SnapshotError(f"cannot read {path}: undecodable header "
                            f"({type(exc).__name__}: {exc})") from exc
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != FORMAT_VERSION:
        raise SnapshotError(f"cannot read {path}: format version "
                            f"{version!r}, expected {FORMAT_VERSION}")
    return meta, end


def read_meta(path: Union[str, Path]) -> dict:
    """The meta document of a state file (its header only, so the
    digest is not checked)."""
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            raw = fh.read(_PREFIX)
            if len(raw) == _PREFIX:
                raw += fh.read(min(int.from_bytes(raw, "little"), size))
    except OSError as exc:
        raise SnapshotError(
            f"cannot read {path}: {type(exc).__name__}: {exc}") from exc
    return _header(path, raw, size)[0]


def read_state(path: Union[str, Path]
               ) -> Tuple[dict, Dict[str, np.ndarray]]:
    """``(meta document, arrays)`` of a state file, read in one call and
    checked against its digest; the arrays are read-only views of the
    bytes read."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise SnapshotError(
            f"cannot read {path}: {type(exc).__name__}: {exc}") from exc
    meta, start = _header(path, raw, len(raw))
    end = len(raw) - _DIGEST
    arrays = {}
    try:
        for doc in meta["arrays"]:
            dtype, shape = np.dtype(doc["dtype"]), tuple(doc["shape"])
            count = math.prod(shape)
            lo = start + int(doc["offset"])
            if lo + dtype.itemsize * count > end:
                raise SnapshotError(f"cannot read {path}: truncated, "
                                    f"{doc['name']!r} ends past byte {end}")
            arrays[doc["name"]] = np.frombuffer(
                raw, dtype, count, lo).reshape(shape)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"cannot read {path}: bad array table "
                            f"({type(exc).__name__}: {exc})") from exc
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise SnapshotError(f"cannot read {path}: fails its digest check")
    return meta, arrays


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
    """Write a snapshot of ``state`` and the given clocks to ``path``;
    returns ``Path(path)``.  ``extra`` must be JSON-serialisable."""
    arrays = state.arrays()
    if mesh:
        arrays.update(mesh_x0=state.mesh.x, mesh_y0=state.mesh.y,
                      cell_nodes=state.mesh.cell_nodes)
    return write_state(path, dict(
        time=float(time), nstep=int(nstep), dt=float(dt),
        dt_reason=dt_reason, dt_cell=int(dt_cell), extra=extra or {},
    ), arrays)


def freeze(path: Union[str, Path], hydro, *,
           extra: Optional[Dict[str, Any]] = None,
           mesh: bool = True) -> Path:
    """Snapshot a live driver: its state and its own clocks."""
    return write_restart(path, hydro.state, hydro.time, hydro.nstep,
                         hydro.dt, dt_reason=hydro.dt_reason,
                         dt_cell=hydro.dt_cell, extra=extra, mesh=mesh)


def read_restart(path: Union[str, Path]) -> Snapshot:
    """Read a snapshot back (:func:`read_state` checks its version and
    digest)."""
    meta, arrays = read_state(path)
    try:
        return Snapshot(arrays, float(meta["time"]), int(meta["nstep"]),
                        float(meta["dt"]), meta["dt_reason"],
                        int(meta["dt_cell"]), dict(meta["extra"]))
    except (ValueError, KeyError, TypeError) as exc:
        raise SnapshotError(f"cannot read {path}: undecodable snapshot "
                            f"meta ({type(exc).__name__}: {exc})") from exc


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
