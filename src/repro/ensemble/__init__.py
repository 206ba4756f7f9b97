"""Ensemble batching: N same-mesh runs as one disjoint-union mesh.

The hot kernels are memory-bound at mini-app sizes; laying N
independent simulations side by side on one unstructured mesh
amortises every kernel launch, index gather and Python-level step over
N lanes and turns the per-cell arithmetic into larger, better-pipelined
array ops — through :func:`repro.core.lagstep.lagstep` itself.  Every
lane is bit-identical to its serial run — see docs/PERFORMANCE.md
("Ensemble batching") and the CI gate.

Entry points: :func:`repro.api.run_ensemble` (or the ``run-ensemble``
CLI subcommand) for the config-driven surface;
:class:`EnsembleHydro` to embed the batched driver directly.
"""

from .driver import EnsembleHydro, run_ensemble
from .state import EnsembleState

__all__ = ["EnsembleHydro", "EnsembleState", "run_ensemble"]
