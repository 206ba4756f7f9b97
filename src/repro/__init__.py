"""repro — a Python reproduction of BookLeaf.

BookLeaf (Truby et al., IEEE CLUSTER / WRAp 2018) is a 2-D unstructured
Arbitrary Lagrangian–Eulerian shock-hydrodynamics mini-application from
the UK Mini-App Consortium.  This package reimplements the full
mini-app — mesh, staggered compatible Lagrangian scheme, artificial
viscosity, hourglass control, EoS options, ALE remap, domain
decomposition with a simulated Typhon communication layer, the four
bundled test problems — plus the performance-model machinery that
regenerates the paper's evaluation tables and figures.

Quickstart (the supported embedding surface — see docs/PARALLEL.md)::

    from repro.api import RunConfig, run

    result = run(RunConfig(problem="sod", nx=200))
    print(result.nstep, result.diagnostics())

    result = run(RunConfig(problem="noh", nx=64, nranks=4,
                           backend="processes"))
"""

from .api import RunConfig, RunResult, run, submit
from .core import Hydro, HydroControls, HydroState
from .eos import IdealGas, Jwl, MaterialTable, Tait, Void
from .mesh import QuadMesh, rect_mesh, saltzmann_mesh
from .problems import load_problem, problem_names, setup_from_deck
from .version import __version__

__all__ = [
    "RunConfig",
    "RunResult",
    "run",
    "submit",
    "Hydro",
    "HydroControls",
    "HydroState",
    "IdealGas",
    "Tait",
    "Jwl",
    "Void",
    "MaterialTable",
    "QuadMesh",
    "rect_mesh",
    "saltzmann_mesh",
    "load_problem",
    "problem_names",
    "setup_from_deck",
    "__version__",
]
