"""Checkpoint/restart: periodic snapshots for resumable fleet jobs.

A fleet job that dies mid-run (preempted worker, SIGKILL, machine
loss) resumes from its last checkpoint instead of restarting.  The
checkpoint is a keyed snapshot (:mod:`repro.output.restart`; no mesh
block — the job key names the config that rebuilds the mesh) whose
``extra`` carries what is the fleet's:

* the job's cache key, so a stale checkpoint from a different config
  can never be overlaid,
* the driver's step rows, so a resumed job returns every step's row,
* the diagnostics probe's internals (rows, drift baseline, last sampled
  step) so the resumed NDJSON stream is byte-identical to an
  uninterrupted run's.

Restore is the snapshot module's: overlay into a driver built fresh
from the config, so the ALE remapper captures the pristine initial
coordinates as its Eulerian target, exactly as in an uninterrupted
run.  Checkpointing is serial-only: a decomposed job would need a
cross-rank commit protocol (rank 0 at step N with rank 1 at N-5 is not
a checkpoint), so it restarts from scratch on failure.
"""

from __future__ import annotations

import json
from typing import Optional

from ..utils.errors import FleetError


def save_checkpoint(path: str, hydro, key: str = "") -> None:
    """Atomically write one checkpoint of a live serial ``Hydro``."""
    from ..output.restart import freeze

    probe = hydro.probe
    freeze(path, hydro, mesh=False, extra={
        "key": key,
        "steps": hydro.step_rows,
        "probe": None if probe is None else {
            "rows": probe.rows,
            "baseline": probe._baseline,
            "last_sampled": probe._last_sampled,
        },
    })


class CheckpointWriter:
    """Step-loop observer that checkpoints every ``every`` steps.

    Attach *before* any fault-injecting observer: the write for step N
    happens ahead of anything that can kill the process at step N.
    """

    def __init__(self, path: str, every: int, key: str = "",
                 on_write=None):
        if every < 1:
            raise FleetError("checkpoint cadence must be >= 1")
        self.path = path
        self.every = int(every)
        self.key = key
        self.saves = 0
        #: optional ``on_write(step)`` hook — the fleet's live event
        #: plane turns each save into a ``job_checkpointed`` event
        self.on_write = on_write

    def __call__(self, hydro) -> None:
        if hydro.nstep % self.every == 0:
            save_checkpoint(self.path, hydro, key=self.key)
            self.saves += 1
            if self.on_write is not None:
                self.on_write(int(hydro.nstep))


def restore_into(driver, path: str, key: str = "",
                 max_steps: Optional[int] = None) -> Optional[int]:
    """Overlay a checkpoint into a freshly-built serial driver.

    This is the :func:`repro.api._execute_run` ``on_prepared`` hook's
    body: the driver's rank-0 hydro gets the stored state, clocks, step
    rows and probe internals; the NDJSON sink (if any) is rewritten
    with the restored rows so subsequent samples continue the stream;
    and a cadence-due sample the crash cut off between checkpoint and
    probe is regenerated from the restored state (bitwise identical —
    the sample is a pure function of state + baseline).  Returns the
    *remaining* step budget (``Hydro.run`` counts steps from its call),
    or None to leave ``max_steps`` untouched.  An unreadable file
    raises :class:`~repro.utils.errors.SnapshotError` before anything
    is overlaid.
    """
    from ..output.restart import read_restart, thaw

    snapshot = read_restart(path)
    stored_key = snapshot.extra.get("key")
    if key and stored_key and stored_key != key:
        raise FleetError(
            f"checkpoint {path} belongs to job {stored_key[:12]}..., "
            f"not {key[:12]}...; refusing to overlay"
        )
    if not driver.hydros:
        raise FleetError(
            "checkpoint restore needs an in-process rank "
            "(serial backend); decomposed jobs restart instead"
        )
    hydro = driver.hydros[0]
    thaw(hydro, snapshot)
    hydro.step_rows = list(snapshot.extra["steps"])
    probe_doc = snapshot.extra.get("probe")
    if hydro.probe is not None and probe_doc is not None:
        probe = hydro.probe
        probe.rows = list(probe_doc["rows"] or [])
        probe._baseline = probe_doc["baseline"]
        probe._last_sampled = probe_doc["last_sampled"]
        if probe.sink_path is not None:
            # Rewrite the stream with the restored rows; _emit appends
            # from here on, so the final file matches an uninterrupted
            # run byte for byte.
            probe._sink = open(probe.sink_path, "w")
            for rec in probe.rows:
                probe._sink.write(json.dumps(rec) + "\n")
            probe._sink.flush()
        # The crash window: a checkpoint at step N is written by an
        # observer that runs *before* the probe samples step N.  If N
        # was cadence-due, regenerate that sample now from the restored
        # state so the stream doesn't skip it.
        if (hydro.nstep % probe.every == 0
                and probe._last_sampled != hydro.nstep):
            probe.sample(hydro)
    if max_steps is not None:
        return max(0, int(max_steps) - hydro.nstep)
    return None
