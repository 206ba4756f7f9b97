"""Content-addressed result cache: canonical config hash → stored run.

The fleet's cache keys every job by
:meth:`repro.api.RunConfig.canonical_key` (extended with the job's
per-lane control overrides, when any — :func:`job_key`), and stores the
run's *outcome*: the final state arrays and the
:class:`~repro.api.RunResult` fields its report is rendered from.  A
resubmitted config whose key matches is served from disk with
``cache_hit=True`` instead of re-executing — the deck, every resolved
control, the rank count, the backend and the code version all enter
the key, so a hit is exactly "this run already happened".

Storage layout under the cache root: one ``<key>.entry`` per entry, a
state file (:mod:`repro.output.restart`, the layout snapshots and
checkpoints use too) written in one atomic write, so a killed worker
never leaves a half-entry.  Its meta document is the cache's own: the
key, the result scalars, the timers' ``kernels`` entries, the comm
counters, the metrics and span rows and ``step_reasons``, the
vocabulary of the step rows' ``dt_reason`` — never a rendered report;
its arrays are ``HydroState.arrays()`` plus the step rows as columns
(:func:`repro.telemetry.report.encode_steps`: ``step_nstep`` int64,
``step_time``, ``step_dt`` and ``step_wall_seconds`` float64,
``step_dt_reason`` a code plane), under the same digest.

A load is one :func:`~repro.output.restart.read_state`: the file's
digest is recomputed and compared, the arrays come back as views of
the bytes read, the step columns are decoded into the rows a live run
records, and :meth:`HydroState.from_arrays` makes the hit's state of
private copies of the state arrays.  The config's problem factory runs
once per distinct problem per process, while its mesh lives: a load
takes its setup from ``_PROBLEMS``, a memo keyed by
:func:`problem_key` (the config's ``problem``, ``deck_sha256``,
``nx``, ``ny``, ``time_end`` and ``problem_kwargs``; control overrides
are not in it).  Its template is the factory's
:class:`~repro.problems.base.ProblemSetup` without the fields the
state starts from: the mesh, the material table, the boundary driver
and the metadata.  Every load gets a shallow copy with its own
controls (override applied), its own ``params`` and its own state —
no volume pass, no EoS call — and each template leaves the memo when
its mesh dies.  The immutable :class:`~repro.mesh.topology.QuadMesh`
is built once per distinct generator call per process, while held,
and shared: a factory runs inside
:func:`repro.mesh.generator.shared_meshes` over one module-level
:class:`weakref.WeakValueDictionary`, so a mesh stays shared for as
long as something (a hit's state, say) holds it, and nothing is kept
alive that the caller dropped.  Live runs (inline, pooled, batched)
never read the memo: their boundary driver writes into their own bc
planes, so they call the factory.

An entry that cannot be read back (truncated, a bad header, another
format version, a digest mismatch, rows of another probe schema, no
step columns) is a *miss*, not a traceback:
:meth:`ResultCache.load` evicts it, counts it and raises
:class:`~repro.utils.errors.SnapshotError` for the engine to log as
``cache_corrupt`` and re-run the job.  Entries of the two-file layout
(``<key>.npz`` + ``<key>.json``) are never read: a plain miss.

The same store doubles as the worker pool's result spool: workers
persist outcomes here and the parent re-materialises them by key, so a
result survives its worker's death.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import weakref
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..utils.errors import FleetError, SnapshotError
from ..utils.timers import Span, TimerRegistry

#: the process's shared meshes: generator call → the mesh every hit on
#: it shares, for as long as anything holds that mesh
_MESHES: "weakref.WeakValueDictionary[tuple, Any]" = \
    weakref.WeakValueDictionary()


def canonical_hash(doc: Dict[str, Any]) -> str:
    """The sha256 of ``doc`` as sorted-key compact JSON — the one
    hash under :meth:`repro.api.RunConfig.canonical_key` and
    :func:`job_key`.  A numpy scalar counts as its Python value
    (``np.int64(8)`` keys as ``8``); any other non-JSON value as its
    ``repr``."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         default=_plain)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _plain(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    return repr(value)


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
    return canonical_hash(doc)


def state_digest(state, nstep: int, time: float,
                 metrics_rows=None) -> str:
    """Deterministic digest of a run's *outcome*: the exact final-state
    bytes, the clocks and the diagnostics stream.  Wall seconds and
    kernel timers are deliberately excluded — they are never
    reproducible — so this is the value the kill-and-resume CI gate
    compares bit-for-bit."""
    arrays = state.arrays()
    h = hashlib.sha256()
    for name in sorted(arrays):
        h.update(name.encode())
        h.update(arrays[name].tobytes())
    h.update(f"nstep={int(nstep)};time={float(time)!r}".encode())
    if metrics_rows:
        h.update(json.dumps(metrics_rows, sort_keys=True).encode())
    return h.hexdigest()


#: the :class:`RunResult` fields a meta document stores as they are
_STORED = ("backend", "nranks", "nstep", "time", "wall_seconds", "lane",
           "comm_per_rank", "metrics_rows", "comm_summary")


def _result_fields(path: str, meta: dict,
                   arrays: Dict[str, np.ndarray]) -> Dict[str, Any]:
    """The :class:`RunResult` fields an entry stores."""
    from ..metrics.probe import METRICS_SCHEMA_VERSION
    from ..telemetry.report import decode_steps

    try:
        stored = {name: meta[name] for name in _STORED}
        for version in {row["schema_version"]
                        for row in stored["metrics_rows"] or ()}:
            if version != METRICS_SCHEMA_VERSION:
                raise SnapshotError(f"cannot read {path}: rows of schema "
                                    f"{version}, expected "
                                    f"{METRICS_SCHEMA_VERSION}")
        return dict(stored,
                    step_rows=decode_steps(arrays, meta["step_reasons"]),
                    timers=TimerRegistry.from_entries(meta["kernels"]),
                    spans=[Span(**doc) for doc in meta["spans"] or ()])
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise SnapshotError(f"cannot read {path}: incomplete meta document "
                            f"({type(exc).__name__}: {exc})") from exc


#: the :meth:`RunConfig.canonical_dict` fields a problem factory reads
_PROBLEM_FIELDS = ("problem", "deck_sha256", "nx", "ny", "time_end",
                   "problem_kwargs")

#: the process's problem templates: :func:`problem_key` →
#: ``(weak reference to the mesh, template, boundary driver)``, each
#: entry dropped when its mesh dies
_PROBLEMS: Dict[str, Tuple[Any, Any, Any]] = {}


def problem_key(config) -> str:
    """The key of the problem factory call ``config`` makes: the
    canonical hash of the fields :meth:`RunConfig.build_setup` reads
    (control overrides and the execution plan are not among them)."""
    doc = config.canonical_dict()
    return canonical_hash({name: doc[name] for name in _PROBLEM_FIELDS})


def _forget(key: str, ref) -> None:
    """Drop ``key``'s template once the mesh ``ref`` pointed to dies."""
    if _PROBLEMS.get(key, (None,))[0] is ref:
        del _PROBLEMS[key]


def _hit_setup(config, arrays: Dict[str, np.ndarray],
               override: Optional[Dict[str, Any]]):
    """The :class:`ProblemSetup` of one loaded entry: a shallow copy of
    the config's problem template (the factory runs when no live mesh
    has one) with its own controls, ``params`` and state."""
    from ..core.state import HydroState
    from ..mesh.generator import shared_meshes

    key = problem_key(config)
    ref, template, driver = _PROBLEMS.get(key, (None, None, None))
    mesh = ref() if ref is not None else None
    if mesh is None:
        with shared_meshes(_MESHES):
            built = config.build_setup()
        mesh = built.mesh
        driver = getattr(built.initial.bc, "driver", None)
        # no field arrays: the mesh (weakly), the table, the driver and
        # the metadata
        template = dataclasses.replace(built, initial=None)
        ref = weakref.ref(mesh, functools.partial(_forget, key))
        _PROBLEMS[key] = (ref, template, driver)
    return dataclasses.replace(
        template, initial=HydroState.from_arrays(mesh, arrays, driver),
        controls=template.controls.with_(**(override or {})),
        params=dict(template.params))


class ResultCache:
    """On-disk content-addressed store of run outcomes.

    ``hits``/``misses``/``stores``/``corrupt`` counters feed the fleet
    summary.  Hits share their meshes and problem templates through
    the process-wide ``_MESHES`` and ``_PROBLEMS`` memos, not through
    the cache.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.entry")

    def has(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    # ------------------------------------------------------------------
    def store(self, key: str, result) -> None:
        """Persist one finished :class:`RunResult` under ``key``
        (atomic: a concurrent reader sees the old entry or the new one,
        never a torn one)."""
        from ..output.restart import write_state
        from ..telemetry.report import encode_steps

        steps, reasons = encode_steps(result.step_rows)
        write_state(self._path(key), {
            "key": key,
            "backend": result.backend,
            "nranks": int(result.nranks),
            "nstep": int(result.nstep),
            "time": float(result.time),
            "wall_seconds": float(result.wall_seconds),
            "lane": result.lane,
            "kernels": result.timers.entries(),
            "comm_per_rank": result.comm_per_rank,
            "step_reasons": reasons,
            "metrics_rows": result.metrics_rows,
            # span shards ride the spool so the fleet parent can merge
            # worker-side traces into the sweep trace (empty when the
            # job ran untraced — the common case costs nothing)
            "spans": ([s.as_dict() for s in result.spans]
                      if result.spans else None),
            "comm_summary": result.comm_summary,
        }, dict(result.state.arrays(), **steps))
        self.stores += 1

    # ------------------------------------------------------------------
    def meta(self, key: str) -> dict:
        """The meta document of a stored entry (its header only)."""
        from ..output.restart import read_meta

        return read_meta(self._path(key))

    def load(self, key: str, config, *,
             override: Optional[Dict[str, Any]] = None,
             hit: bool = True):
        """Re-materialise the stored outcome as a :class:`RunResult`.

        The setup is a copy of the config's problem template (the
        factory runs once per distinct problem per process, while its
        mesh lives; the mesh is not stored) with its own controls —
        ``override`` applied — and its own state, made of copies of the
        stored arrays.  Every other field is the stored one (the timers
        rebuilt from their entries, the step rows decoded from their
        columns), and ``cache_hit=hit``.  An unreadable entry is evicted
        and raises :class:`~repro.utils.errors.SnapshotError`.
        """
        from ..api import RunResult
        from ..output.restart import read_state

        if not self.has(key):
            raise FleetError(f"cache entry {key} missing from {self.root}")
        path = self._path(key)
        try:
            meta, arrays = read_state(path)
            stored = _result_fields(path, meta, arrays)
            setup = _hit_setup(config, arrays, override)
        except SnapshotError:
            self.corrupt += 1
            if os.path.exists(path):
                os.unlink(path)
            raise
        if hit:
            self.hits += 1
        return RunResult(config=config, setup=setup, state=setup.state,
                         driver=None, cache_hit=hit, **stored)

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "root": self.root}
