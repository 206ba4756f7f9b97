"""Performance subsystem: precomputed mesh plans and buffer arenas.

The Fortran BookLeaf pays its connectivity-derived costs once, at
setup; a naive numpy port re-pays them every step as hidden
allocations and strided passes: ``np.roll`` temporaries and length-4
corner reductions in the geometry and viscosity kernels, ``.ravel()``
copies feeding ``bincount`` scatters, throwaway work arrays in every
kernel of the predictor/corrector loop.  This package removes those
per-step costs without touching the numerics:

* :class:`~repro.perf.plans.MeshPlans` — per-mesh index structures
  built once, lazily, as ``mesh.plans`` (grid detection behind the
  nodal scatter, the Christiansen limiter's static indices, the
  corner-major connectivity), beside the exact corner reduction;
* :class:`~repro.perf.workspace.Workspace` — a buffer arena the hot
  kernels draw their temporaries from, so the steady-state step loop
  performs no large allocations after the first step.

Every ``Hydro`` owns a ``Workspace`` and every kernel has one body,
written against the workspace API; a standalone kernel call without an
arena gets the allocating stand-in from
:func:`~repro.perf.workspace.scratch` and runs the same code.
"""

from .plans import MeshPlans, corner_reduce
from .workspace import Workspace, scratch

__all__ = ["MeshPlans", "Workspace", "corner_reduce", "scratch"]
