"""repro.fleet — cached, resumable many-run sweep scheduling.

The fleet engine behind :func:`repro.api.submit`: a work queue over
:class:`~repro.api.RunConfig` jobs with a content-addressed result
cache, a compiled-artifact cache, checkpoint/restart for crashed jobs,
a SIGKILL-safe process pool and a same-mesh batched fast path with
lane refill.  See docs/FLEET.md for the architecture tour.

The engine and its caches are imported with the package — every
``run()`` is a one-job fleet.  The process pool (workers forked and
watched by :class:`~repro.metrics.watchdog.Supervisor`, as ranks are)
serves only ``workers > 0``, so :class:`WorkerPool` resolves on first
use (:mod:`repro.utils.lazy`).
"""

from ..utils.lazy import lazy_exports
from .artifacts import ArtifactCache, mesh_fingerprint
from .batch import BatchJob, make_jobs, run_ensemble_jobs
from .cache import ResultCache, job_key, state_digest
from .checkpoint import CheckpointWriter, restore_into, save_checkpoint
from .engine import (FLEET_SCHEMA_VERSION, Fleet, FleetHandle,
                     FleetOptions, submit)

__all__ = [
    "ArtifactCache",
    "BatchJob",
    "CheckpointWriter",
    "FLEET_SCHEMA_VERSION",
    "Fleet",
    "FleetHandle",
    "FleetOptions",
    "ResultCache",
    "WorkerPool",
    "job_key",
    "make_jobs",
    "mesh_fingerprint",
    "restore_into",
    "run_ensemble_jobs",
    "save_checkpoint",
    "state_digest",
    "submit",
]

__getattr__, __dir__ = lazy_exports(globals(), {"WorkerPool": ".worker"})
