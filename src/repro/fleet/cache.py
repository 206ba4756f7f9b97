"""Content-addressed result cache: canonical config hash → stored run.

The fleet's cache keys every job by
:meth:`repro.api.RunConfig.canonical_key` (extended with the job's
per-lane control overrides, when any — :func:`job_key`), and stores the
run's *outcome*: the final state arrays, the step/time clocks, the
schema-versioned run report — which holds the step rows and the comm
counters, stored once there — and the live-metrics rows.  A resubmitted
config whose key matches is served from disk with ``cache_hit=True``
instead of re-executing — the deck, every resolved control, the rank
count, the backend and the code version all enter the key, so a hit is
exactly "this run already happened".

Storage layout under the cache root, two files per entry, both written
atomically (:func:`repro.output.restart.atomic_write`) so a killed
worker never leaves a half-entry::

    <key>.npz    final-state arrays (``HydroState.arrays()``)
    <key>.json   scalars + report + metrics rows (the meta document)

An entry that cannot be read back (truncated npz, corrupt json) is a
*miss*, not a traceback: :meth:`ResultCache.load` evicts it, counts it
and raises :class:`~repro.utils.errors.SnapshotError` for the engine to
log as ``cache_corrupt`` and re-run the job.

The same store doubles as the worker pool's result spool: workers
persist outcomes here and the parent re-materialises them by key, so a
result survives its worker's death.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional

from ..utils.errors import FleetError, SnapshotError
from ..utils.timers import TimerRegistry

#: on-disk entry layout version (bumped on any stored-shape change)
#: v2: step rows and comm counters live only in the stored report
CACHE_SCHEMA_VERSION = 2


def job_key(config, override: Optional[Dict[str, Any]] = None) -> str:
    """The cache key for one fleet job: the config's canonical dict,
    extended with its per-lane control overrides when the job came in
    through an ensemble sweep.  Override *order* never matters — keys
    are sorted before hashing."""
    doc = config.canonical_dict()
    if override:
        doc["control_overrides"] = {
            str(k): override[k] for k in sorted(override)
        }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def state_digest(state, nstep: int, time: float,
                 metrics_rows=None) -> str:
    """Deterministic digest of a run's *outcome*: the exact final-state
    bytes, the clocks and the diagnostics stream.  Wall seconds and
    kernel timers are deliberately excluded — they are never
    reproducible — so this is the value the kill-and-resume CI gate
    compares bit-for-bit."""
    h = hashlib.sha256()
    arrays = state.arrays()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name].tobytes())
    h.update(f"nstep={int(nstep)};time={float(time)!r}".encode())
    if metrics_rows:
        h.update(json.dumps(metrics_rows, sort_keys=True).encode())
    return h.hexdigest()


class ResultCache:
    """On-disk content-addressed store of run outcomes.

    ``hits``/``misses``/``stores``/``corrupt`` counters feed the fleet
    summary.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    def _paths(self, key: str):
        return (os.path.join(self.root, f"{key}.npz"),
                os.path.join(self.root, f"{key}.json"))

    def has(self, key: str) -> bool:
        npz, meta = self._paths(key)
        return os.path.exists(npz) and os.path.exists(meta)

    # ------------------------------------------------------------------
    def store(self, key: str, result) -> None:
        """Persist one finished :class:`RunResult` under ``key``
        (atomic: a concurrent reader sees the old entry or the new one,
        never a torn one)."""
        from ..output.restart import atomic_write, write_npz

        npz_path, meta_path = self._paths(key)
        meta = {
            "schema_version": CACHE_SCHEMA_VERSION,
            "key": key,
            "backend": result.backend,
            "nranks": int(result.nranks),
            "nstep": int(result.nstep),
            "time": float(result.time),
            "wall_seconds": float(result.wall_seconds),
            "lane": result.lane,
            "report": result.report(),
            "metrics_rows": result.metrics_rows,
            # span shards ride the spool so the fleet parent can merge
            # worker-side traces into the sweep trace (empty when the
            # job ran untraced — the common case costs nothing)
            "spans": ([s.as_dict() for s in result.spans]
                      if result.spans else None),
            "comm_summary": result.comm_summary,
            "digest": state_digest(result.state, result.nstep,
                                   result.time, result.metrics_rows),
        }
        write_npz(npz_path, result.state.arrays())
        atomic_write(meta_path, lambda fh: fh.write(
            json.dumps(meta, default=repr).encode("utf-8")))
        self.stores += 1

    # ------------------------------------------------------------------
    def meta(self, key: str) -> dict:
        """The meta document of a stored entry."""
        meta_path = self._paths(key)[1]
        try:
            with open(meta_path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise SnapshotError(
                f"cannot read {meta_path}: "
                f"{type(exc).__name__}: {exc}") from exc

    def _read(self, key: str):
        """``(meta document, state arrays)`` of a stored entry."""
        from ..output.restart import read_npz

        return self.meta(key), read_npz(self._paths(key)[0])

    def load(self, key: str, config, *,
             override: Optional[Dict[str, Any]] = None,
             hit: bool = True):
        """Re-materialise the stored outcome as a :class:`RunResult`.

        The mesh/topology side of the state is rebuilt deterministically
        from the config (it is not stored); the stored arrays are then
        overlaid.  The result carries the stored report verbatim
        (``report_override``) — kernel-timer *objects* are not
        reconstructable across processes — its step rows and comm
        counters are that report's own lists, and ``cache_hit=hit``.  An
        unreadable entry is evicted and raises
        :class:`~repro.utils.errors.SnapshotError`.
        """
        from ..api import RunResult
        from ..telemetry.spans import Span

        if not self.has(key):
            raise FleetError(f"cache entry {key} missing from {self.root}")
        try:
            meta, arrays = self._read(key)
            setup = config.build_setup()
            if override:
                setup.controls = setup.controls.with_(**override).validated()
            setup.state.overlay(arrays)
        except SnapshotError:
            self.corrupt += 1
            for path in self._paths(key):
                if os.path.exists(path):
                    os.unlink(path)
            raise
        if hit:
            self.hits += 1
        report = meta["report"]
        return RunResult(
            config=config,
            setup=setup,
            backend=meta["backend"],
            nranks=meta["nranks"],
            nstep=meta["nstep"],
            time=meta["time"],
            wall_seconds=meta["wall_seconds"],
            state=setup.state,
            timers=TimerRegistry(),
            spans=[Span(**doc) for doc in (meta.get("spans") or [])],
            comm_total=(report["comm"]["total"] if meta["nranks"] > 1
                        else None),
            comm_per_rank=report["comm"]["per_rank"],
            step_rows=report["steps"],
            comm_summary=meta.get("comm_summary"),
            metrics_rows=meta.get("metrics_rows"),
            driver=None,
            lane=meta.get("lane"),
            cache_hit=hit,
            report_override=report,
        )

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "root": self.root}
