"""The ALE remap (BookLeaf's optional Eulerian step, paper Section III-A).

Second-order swept-volume-flux advection (Benson 1989) with Van Leer /
Barth-Jespersen monotonicity limiting for cell quantities and a
median-dual momentum remap for the staggered kinematics.
"""

from .advect_cell import advect_cells, cell_gradients
from .advect_node import advect_momentum
from .driver import FLUX_VOLUME_LIMIT, AleStep
from .fluxvol import (dual_flux_volumes, face_flux_volumes, median_points,
                      sweep_quads)
from .getmesh import select_target
from .limiters import barth_jespersen, van_leer
from .update import aleupdate

__all__ = [
    "AleStep",
    "FLUX_VOLUME_LIMIT",
    "advect_cells",
    "advect_momentum",
    "aleupdate",
    "barth_jespersen",
    "cell_gradients",
    "dual_flux_volumes",
    "face_flux_volumes",
    "median_points",
    "select_target",
    "sweep_quads",
    "van_leer",
]
