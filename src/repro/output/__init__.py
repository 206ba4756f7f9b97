"""Output facilities: legacy VTK dumps, ASCII plots, snapshots."""

from .ascii_plot import ascii_plot
from .profiles import (
    Profile,
    front_position,
    linear_profile,
    radial_profile,
)
from .restart import freeze, read_restart, thaw, write_restart
from .vtk import write_vtk

__all__ = [
    "write_vtk",
    "ascii_plot",
    "freeze",
    "thaw",
    "read_restart",
    "write_restart",
    "Profile",
    "linear_profile",
    "radial_profile",
    "front_position",
]
