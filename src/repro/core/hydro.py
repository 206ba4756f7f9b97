"""The hydro driver — BookLeaf's main loop (Algorithm 1).

:class:`Hydro` owns a state, a material table and the controls, and
advances time with the predictor–corrector Lagrangian step plus the
optional ALE remap:

    loop:
        corners <- StepCorners(x^n, u^n)
        dt <- getdt(corners)     (initial dt on the first step)
        lagstep(dt, corners)
        if remap due: alestep()

The step's corner bundle (:mod:`repro.core.corners`) is made at the
top of each step and closed by ``lagstep``: ``getdt`` fills the corner
quantities it reads, and the step's kernels read them from there
instead of gathering and differencing xⁿ and uⁿ again.

Per-kernel timers accumulate across the run so ``timers.breakdown()``
prints the Table II-style summary at the end, and every step appends
one row to ``step_rows`` — the run report's per-step series.  The
registry is also the run's one recorder: traced, it records the
``run`` → ``step N`` → ``lagstep`` spans around the kernel regions,
each ``step N`` span carrying that step's row as its args.
"""

from __future__ import annotations

import time as _time
from typing import Callable, List, Optional

import numpy as np

from ..eos.multimaterial import MaterialTable
from ..perf.workspace import Workspace
from ..utils.log import StepLogger
from ..utils.timers import TimerRegistry
from .comms import SerialComms
from .controls import HydroControls
from .corners import StepCorners
from .lagstep import lagstep
from .state import HydroState
from .timestep import getdt, pick_dt


class Hydro:
    """Time-marches one hydro problem to completion.

    A step is two halves around ``lagstep``: :meth:`choose_dt` (the
    first-step rule or ``getdt``, then the time-driven boundary) and
    :meth:`finish_step` (remap if due, advance the clocks, record the
    step row, logger, observers, probe).  :meth:`step` is the two
    around this state's own ``lagstep`` and is what every caller but
    one uses;
    :class:`~repro.ensemble.driver.EnsembleHydro` calls the halves
    directly, because its lanes' states are segments of one union mesh
    that a single ``lagstep`` advances for all of them.

    Parameters
    ----------
    state:
        The initial :class:`HydroState` (consumed and advanced in place).
    table:
        Material table providing ``getpc``.
    controls:
        Numerical controls, including the ALE options.
    timers, logger, comms:
        Optional instrumentation and the communication seam; defaults
        are serial and quiet.  A traced registry
        (``TimerRegistry.traced()``) additionally records the run →
        step → phase → kernel span hierarchy; a ``step N`` span's args
        are that step's row.
    remapper:
        Optional ALE remap object with an ``apply(state, dt, timers,
        comms=..., ws=...)`` method; constructed automatically from the
        controls when ``ale_on``.
    probe:
        Optional :class:`~repro.metrics.probe.DiagnosticsProbe` sampled
        by the step loop (live conservation/health monitoring).  The
        default (``None``) leaves the hot loop untouched beyond one
        ``is None`` check per step.
    """

    def __init__(self, state: HydroState, table: MaterialTable,
                 controls: HydroControls,
                 timers: Optional[TimerRegistry] = None,
                 logger: Optional[StepLogger] = None,
                 comms=None,
                 remapper=None,
                 probe=None):
        self.state = state
        self.table = table
        self.controls = controls.validated()
        self.timers = timers if timers is not None else TimerRegistry()
        self.logger = logger if logger is not None else StepLogger(every=0)
        self.comms = comms if comms is not None else SerialComms()
        self.time = controls.time_start
        self.nstep = 0
        self.dt = controls.dt_initial
        self.dt_reason = "initial"
        self.dt_cell = -1
        self.gamma = table.gamma_like(state.mat)
        if remapper is None and controls.ale_on:
            # Imported here to avoid a core <-> ale import cycle.
            from ..ale.driver import AleStep

            remapper = AleStep.from_controls(state, controls, table,
                                             every=controls.ale_every)
        self.remapper = remapper
        #: the buffer arena every kernel of the step loop draws from;
        #: warm after the first step, so steady-state steps allocate
        #: nothing mesh-sized
        self.workspace = Workspace()
        self.probe = probe
        #: callbacks invoked after every step with (hydro,) — used by
        #: time-history output and tests
        self.observers: List[Callable[["Hydro"], None]] = []
        #: one row per completed step (``STEP_FIELDS`` of
        #: :mod:`repro.telemetry.report`); ``wall_seconds`` is the wall
        #: clock between this step's end and the previous one's (or
        #: the start of ``run``)
        self.step_rows: List[dict] = []
        self._step_end_ns = _time.perf_counter_ns()

    # ------------------------------------------------------------------
    def done(self) -> bool:
        """True once the simulation reached ``time_end``."""
        eps = 1e-12 * max(1.0, abs(self.controls.time_end))
        return self.time >= self.controls.time_end - eps

    def step(self) -> float:
        """Advance one timestep; returns the dt taken."""
        with self.timers.span(f"step {self.nstep}", cat="step") as span:
            corners = StepCorners.of(self.state, self.workspace)
            self.choose_dt(corners=corners)
            with self.timers.span("lagstep", cat="phase"):
                lagstep(
                    self.state, self.table, self.controls, self.dt,
                    self.timers, self.gamma, comms=self.comms,
                    time=self.time, ws=self.workspace, corners=corners,
                )
            self.finish_step()
            if span is not None:
                span.args.update(self.step_rows[-1])
        return self.dt

    def choose_dt(self, candidates=None, corners=None) -> None:
        """The half of a step before ``lagstep``: pick this step's dt
        (``dt_initial`` on the first step) and move a time-driven
        boundary to the end of it.

        ``candidates`` are the state's physics candidates when the
        caller has them already (an ensemble reduces them from one
        field pass over all its lanes); by default ``getdt`` computes
        them here, from the step's ``corners`` bundle.
        """
        controls = self.controls
        if self.nstep == 0:
            remaining = controls.time_end - self.time
            self.dt = min(controls.dt_initial, remaining)
            self.dt_reason, self.dt_cell = "initial", -1
        elif candidates is not None:
            self.dt, self.dt_reason, self.dt_cell = pick_dt(
                candidates, controls, self.dt, self.time)
        else:
            with self.timers.region("getdt"):
                self.dt, self.dt_reason, self.dt_cell = getdt(
                    self.state, controls, self.dt, self.time,
                    comms=self.comms, ws=self.workspace, corners=corners,
                )

        if self.state.bc.driver is not None:
            # Time-driven boundaries (e.g. the Kidder shell): prescribe
            # the end-of-step velocity so the corrector's commit lands
            # exactly on the driven value at t^{n+1} (the trapezoidal
            # x-update then integrates the boundary motion to second
            # order, matching the scheme).
            self.state.bc.advance(self.time + self.dt)

    def finish_step(self) -> bool:
        """The half of a step after ``lagstep``: remap if due, advance
        the clocks and record the step row, then logger, observers and
        probe.  Returns whether it remapped — the remap rebinds the
        state's arrays, so a caller that stepped them through views
        must copy them back."""
        remap = (self.remapper is not None
                 and (self.nstep + 1) % self.controls.ale_every == 0)
        if remap:
            with self.timers.region("alestep", cat="phase"):
                self.remapper.apply(self.state, self.dt, self.timers,
                                    comms=self.comms, ws=self.workspace)

        self.time += self.dt
        self.nstep += 1
        now = _time.perf_counter_ns()
        self.step_rows.append({
            "nstep": self.nstep, "time": self.time, "dt": self.dt,
            "dt_reason": self.dt_reason,
            "wall_seconds": (now - self._step_end_ns) * 1e-9,
        })
        self._step_end_ns = now
        self.logger.step(self.nstep, self.time, self.dt,
                         self.dt_reason, self.dt_cell)
        for observer in self.observers:
            observer(self)
        # Probed after the observers so a fault injected by an observer
        # is caught on the same step; the probe's own collectives are
        # safe because every rank samples on the same cadence.
        if self.probe is not None:
            self.probe.on_step(self)
        return remap

    def run(self, max_steps: Optional[int] = None) -> int:
        """March to ``time_end``; returns the number of steps taken."""
        limit = max_steps if max_steps is not None else self.controls.max_steps
        start = self.nstep
        if self.probe is not None:
            self.probe.begin(self)
        self._step_end_ns = _time.perf_counter_ns()
        try:
            with self.timers.allocation_scope(), \
                    self.timers.span("run", cat="run") as span:
                while not self.done():
                    if self.nstep - start >= limit:
                        break
                    self.step()
                if span is not None:
                    span.args.update(steps=self.nstep - start,
                                     t_end=self.time)
        finally:
            # A finished driver stays reachable from its RunResult; it
            # should not pin the loop's scratch memory with it.
            self.workspace.clear()
        if self.probe is not None:
            self.probe.finish(self)
        return self.nstep - start
