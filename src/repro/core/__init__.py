"""The Lagrangian hydro core — BookLeaf's primary contribution.

Staggered-mesh compatible finite-element discretisation with
predictor–corrector time integration (paper Section III-A and
Algorithm 1).  Each public kernel corresponds to a named BookLeaf
routine: ``getq``, ``getforce``, ``getacc``, ``getgeom``, ``getrho``,
``getein``, ``getpc`` (on the material table), ``getdt``.
"""

from .acceleration import getacc
from .comms import SerialComms
from .controls import HydroControls, controls_from_deck
from .corners import StepCorners
from .density import getrho
from .energy import getein
from .force import getforce, pressure_forces
from .geometry import (
    cell_volumes,
    cfl_length_sq,
    corner_volumes,
    getgeom,
    subzone_volume_gradients,
    volume_gradients,
)
from .hourglass import (
    hourglass_amplitude,
    hourglass_filter_forces,
    subzonal_pressure_forces,
)
from .hydro import Hydro
from .lagstep import lagstep
from .state import HydroState
from .timestep import getdt, local_dt_candidates
from .viscosity import bulk_q, christiansen_limiter, getq

__all__ = [
    "Hydro",
    "HydroState",
    "HydroControls",
    "controls_from_deck",
    "SerialComms",
    "StepCorners",
    "lagstep",
    "getq",
    "getforce",
    "getacc",
    "getgeom",
    "getrho",
    "getein",
    "getdt",
    "local_dt_candidates",
    "pressure_forces",
    "cell_volumes",
    "corner_volumes",
    "volume_gradients",
    "subzone_volume_gradients",
    "cfl_length_sq",
    "christiansen_limiter",
    "bulk_q",
    "hourglass_amplitude",
    "hourglass_filter_forces",
    "subzonal_pressure_forces",
]
