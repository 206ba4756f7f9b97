"""The distributed substrate: decomposition, halos and simulated Typhon.

BookLeaf decomposes its mesh with RCB or METIS, stores ghost layers and
communicates through the Typhon library over MPI (paper Section III-A).
This package reproduces all of that with virtual ranks — threads or
forked processes running one Typhon protocol over two transports; see
DESIGN.md for the substitution rationale.

What every run executes — the driver, the halo builder, the seam, the
partitioners and the backend registry — is imported with the package.
The Typhon protocol runs only on the concurrent backends, so its names
resolve on first use (:mod:`repro.utils.lazy`) and a serial run never
loads it.
"""

from ..utils.lazy import lazy_exports
from .backends import available_backends, get_backend
from .distributed import DistributedHydro
from .halo import Subdomain, build_subdomains, local_state
from .interface import BackendRun, CommBackend, CommEndpoint, CommStats
from .partition import edge_cut, imbalance, partition, rcb_partition, spectral_partition

__all__ = [
    "DistributedHydro",
    "Subdomain",
    "build_subdomains",
    "local_state",
    "partition",
    "rcb_partition",
    "spectral_partition",
    "edge_cut",
    "imbalance",
    "CommStats",
    "TyphonComms",
    "TyphonContext",
    "CommEndpoint",
    "CommBackend",
    "BackendRun",
    "available_backends",
    "get_backend",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "TyphonComms": ".typhon",
    "TyphonContext": ".typhon",
})
