"""Common scaffolding for the bundled test problems.

Every problem module builds a :class:`ProblemSetup`: the
:class:`Initial` fields its state starts from, the material table and
the controls, bundled with metadata (domain extents, a short
description) and a convenience constructor for the
:class:`~repro.core.hydro.Hydro` driver.  The state itself is built
(:meth:`HydroState.from_initial <repro.core.state.HydroState.from_initial>`:
the volume pass and the EoS call) on the first read of
:attr:`ProblemSetup.state`; a result-cache hit never reads it: it
copies the setup without its :class:`Initial` fields and supplies the
stored state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple, Union

import numpy as np

from ..core.controls import HydroControls
from ..core.hydro import Hydro
from ..core.state import HydroState
from ..eos.multimaterial import MaterialTable
from ..mesh.boundary import BoundaryConditions
from ..mesh.topology import QuadMesh
from ..utils.log import StepLogger
from ..utils.timers import TimerRegistry


class Initial(NamedTuple):
    """What a problem starts from: the arguments of
    :meth:`HydroState.from_initial` other than the material table."""

    mesh: QuadMesh
    rho: np.ndarray
    e: np.ndarray
    mat: Optional[np.ndarray] = None
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None
    bc: Optional[BoundaryConditions] = None


@dataclass
class ProblemSetup:
    """A ready-to-run problem: state + materials + controls + metadata."""

    name: str
    #: the state, or (from a problem factory) the :class:`Initial`
    #: fields it is built from on the first read of :attr:`state`
    initial: Union[HydroState, Initial]
    table: MaterialTable
    controls: HydroControls
    extents: Tuple[float, float, float, float]
    description: str = ""
    #: free-form problem parameters recorded for reproducibility
    params: dict = field(default_factory=dict)

    @property
    def state(self) -> HydroState:
        """The run's state (built from :attr:`initial` on first read)."""
        if isinstance(self.initial, Initial):
            self.initial = HydroState.from_initial(
                table=self.table, **self.initial._asdict())
        return self.initial

    @state.setter
    def state(self, state: HydroState) -> None:
        self.initial = state

    @property
    def mesh(self) -> QuadMesh:
        """The problem's mesh (read without building the state)."""
        return self.initial.mesh

    def describe(self) -> dict:
        """JSON-ready configuration snapshot (the run report's
        ``problem`` section: name, mesh size, params, every control)."""
        from dataclasses import asdict

        return {
            "name": self.name,
            "description": self.description,
            "extents": list(self.extents),
            "ncell": int(self.mesh.ncell),
            "nnode": int(self.mesh.nnode),
            "params": dict(self.params),
            "controls": asdict(self.controls),
        }

    def make_hydro(self, timers: Optional[TimerRegistry] = None,
                   logger: Optional[StepLogger] = None,
                   comms=None) -> Hydro:
        """Build the serial driver for this problem."""
        return Hydro(self.state, self.table, self.controls,
                     timers=timers, logger=logger, comms=comms)

    def run(self, timers: Optional[TimerRegistry] = None,
            max_steps: Optional[int] = None) -> Hydro:
        """Convenience: build the driver, run to completion, return it."""
        hydro = self.make_hydro(timers=timers)
        hydro.run(max_steps=max_steps)
        return hydro
