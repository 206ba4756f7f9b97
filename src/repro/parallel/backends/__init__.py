"""Pluggable execution backends behind the unified run API.

A *backend* decides where the ranks of a decomposed run execute —
inline (``serial``), as threads of this process (``threads``), or as
one forked OS process per rank over shared memory (``processes``) —
while the SPMD hydro loop and the communication seam
(:mod:`repro.parallel.interface`) stay identical.  Select one through
``repro.api.RunConfig(backend=...)`` or ``bookleaf run --backend``.

============  =============================  ==========================
backend       rank execution                 true parallelism
============  =============================  ==========================
``serial``    the calling thread             none (1 rank)
``threads``   one thread per rank            numpy kernels only (GIL)
``processes`` one forked process per rank    full (shared-memory halos)
============  =============================  ==========================
"""

from __future__ import annotations

from typing import Dict, Type

from ...utils.errors import BookLeafError
from .processes import ProcessesBackend, RemoteRankError
from .serial import SerialBackend
from .threads import ThreadsBackend

#: the backend registry — every later scaling layer (sharding, async
#: overlap, real MPI) plugs in here
BACKENDS: Dict[str, type] = {
    SerialBackend.name: SerialBackend,
    ThreadsBackend.name: ThreadsBackend,
    ProcessesBackend.name: ProcessesBackend,
}


def available_backends() -> tuple:
    """The registered backend names, in registration order."""
    return tuple(BACKENDS)


def get_backend(name: str):
    """Instantiate a backend by name (raises on unknown names)."""
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise BookLeafError(
            f"unknown comm backend {name!r}; "
            f"available: {', '.join(BACKENDS)}"
        ) from None
    return cls()


__all__ = [
    "BACKENDS",
    "available_backends",
    "get_backend",
    "SerialBackend",
    "ThreadsBackend",
    "ProcessesBackend",
    "RemoteRankError",
]
