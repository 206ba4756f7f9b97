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

Only ``serial`` is imported with the package — every run path goes
through it or past it.  The concurrent backends bring the Typhon
protocol, the comm-plan compiler, the heartbeat board and (for
``processes``) ``multiprocessing`` with them, so the registry imports a
backend's module when its name is first looked up.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module

from ...utils.errors import BookLeafError
from ...utils.lazy import lazy_exports
from .serial import SerialBackend

#: backend name → ``"module:Class"`` in this package, registration order
_BACKEND_PATHS = {
    "serial": "serial:SerialBackend",
    "threads": "threads:ThreadsBackend",
    "processes": "processes:ProcessesBackend",
}


class _Registry(Mapping):
    """Backend name → backend class; the class's module is imported on
    lookup, so naming a backend costs nothing until one is chosen."""

    def __getitem__(self, name: str) -> type:
        module, _, cls = _BACKEND_PATHS[name].partition(":")
        return getattr(import_module(f".{module}", __name__), cls)

    def __iter__(self):
        return iter(_BACKEND_PATHS)

    def __len__(self) -> int:
        return len(_BACKEND_PATHS)


#: the backend registry — every later scaling layer (sharding, async
#: overlap, real MPI) plugs in here
BACKENDS = _Registry()


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

__getattr__, __dir__ = lazy_exports(globals(), {
    "ThreadsBackend": ".threads",
    "ProcessesBackend": ".processes",
    "RemoteRankError": ".processes",
})
