"""Ensemble batching: N same-mesh runs as one disjoint-union mesh.

The hot kernels are memory-bound at mini-app sizes; laying N
independent simulations side by side on one unstructured mesh
amortises every kernel launch, index gather and Python-level step over
N lanes and turns the per-cell arithmetic into larger, better-pipelined
array ops — through :func:`repro.core.lagstep.lagstep` itself.  Every
lane is bit-identical to its serial run — see docs/PERFORMANCE.md
("Ensemble batching") and the CI gate.

Jobs get here one way: the fleet's coalescer batches same-mesh serial
jobs submitted through :func:`repro.api.submit` (``bookleaf fleet
--sweep/--lanes`` on the command line).  :class:`EnsembleHydro` embeds
the batched driver directly.
"""

from .driver import EnsembleHydro
from .state import EnsembleState

__all__ = ["EnsembleHydro", "EnsembleState"]
