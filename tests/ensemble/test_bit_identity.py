"""The ensemble correctness contract: every lane bit-identical to serial.

Every lane of a batched ``submit([c0, ..., cN])`` must produce byte-for-
byte the state arrays, step count, final time and diagnostics scalars
of ``run(ci)`` through the serial backend.  Not approximately equal —
``tobytes()`` equal: the lanes are components of one disjoint-union
mesh stepped by the serial driver's own kernels (see
:mod:`repro.ensemble.state`), every gather and nodal sum stays inside
its lane in the serial order, so any drift, however small, means a
lane saw another lane's data or a sum changed order and the contract
is broken.

It must hold on every problem that can be batched, on both viscosity
forms, with the hourglass controls on, at every batch width, and on
meshes whose numbering defeats the structured-grid scatter (the union
itself is never a structured grid, so its nodal sums are ``bincount``'s
where a solo run on a grid uses the window adds).

The default parametrisation caps steps so tier-1 stays fast; the CI
bit-identity gate job sets ``BOOKLEAF_BITID_FULL=1`` to run Noh and
Sod at 32x32 to completion with N=4 lanes.
"""

import os

import numpy as np
import pytest

from repro.api import RunConfig, problem_names, run
from tests.conftest import ensemble_lanes

FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "q", "cs2",
          "volume", "corner_volume", "cell_mass")

FULL = os.environ.get("BOOKLEAF_BITID_FULL") == "1"

#: capped step counts for the tier-1 parametrisation (full runs gate
#: in CI where the job budget allows the ~600-step Noh)
CAP = {"noh": 60, "sod": 80}
DEFAULT_CAP = 40

#: every registered problem the ensemble can batch (Kidder's
#: time-driven boundary cannot: lanes advance at different times)
COALESCABLE = [name for name in problem_names() if name != "kidder"]


def _state_bytes(state):
    return {f: getattr(state, f).tobytes()
            for f in FIELDS if hasattr(state, f)}


def assert_lane_identical(serial_result, lane_result):
    sb = _state_bytes(serial_result.state)
    eb = _state_bytes(lane_result.state)
    differing = [f for f in sb if sb[f] != eb[f]]
    assert not differing, f"lane fields differ bytewise: {differing}"
    assert lane_result.nstep == serial_result.nstep
    assert lane_result.time == serial_result.time
    assert lane_result.diagnostics() == serial_result.diagnostics()


@pytest.mark.parametrize("problem", COALESCABLE)
@pytest.mark.parametrize("lanes", [1, 2, 4])
def test_every_lane_matches_serial(problem, lanes):
    max_steps = None if FULL else CAP.get(problem, DEFAULT_CAP)
    configs = [RunConfig(problem=problem, nx=32, ny=32,
                         max_steps=max_steps) for _ in range(lanes)]
    ensemble = ensemble_lanes(configs)
    serial = run(configs[0])
    assert serial.backend == "serial"
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


@pytest.mark.parametrize("problem, controls", [
    # non-dyadic coefficients: a reassociated product would show
    ("sod", {"viscosity_form": "bulk", "cq1": 0.3, "cq2": 0.7}),
    ("noh", {"subzonal_kappa": 0.3, "filter_kappa": 0.2}),
    ("sod", {"use_limiter": False}),
], ids=["bulk", "hourglass", "nolimiter"])
def test_control_variants_match_serial(problem, controls):
    """The kernel branches no registered problem's defaults reach."""
    configs = [RunConfig(problem=problem, nx=24, ny=24, max_steps=40,
                         problem_kwargs=controls) for _ in range(2)]
    ensemble = ensemble_lanes(configs)
    serial = run(configs[0])
    assert serial.backend == "serial"
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


def _offgrid_setup(kind):
    """A compressing ideal-gas blob on a mesh that is no structured
    grid — a rectangular mesh with its nodes renumbered at random, or
    the pinwheel (irregular valence) — so a solo run's nodal sums take
    the general route too."""
    from repro.core.controls import HydroControls
    from repro.core.state import HydroState
    from repro.eos import IdealGas, MaterialTable
    from repro.mesh.generator import pinwheel_mesh, rect_mesh
    from repro.problems.base import ProblemSetup
    from tests.conftest import renumbered_mesh

    mesh = (pinwheel_mesh(nquads=5) if kind == "pinwheel"
            else renumbered_mesh(rect_mesh(12, 10), 3))
    assert mesh.plans.grid_shape is None
    table = MaterialTable()
    table.add(IdealGas(1.4))
    rng = np.random.default_rng(4)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell)
    e = table.eos[0].energy_from_pressure(rho, 1.0 + rng.random(mesh.ncell))
    xm, ym = mesh.x.mean(), mesh.y.mean()
    state = HydroState.from_initial(mesh, table, rho, e,
                                    u=-0.5 * (mesh.x - xm),
                                    v=-0.5 * (mesh.y - ym))
    controls = HydroControls(time_end=1.0, dt_initial=1e-4,
                             subzonal_kappa=0.3)
    return ProblemSetup("offgrid", state, table, controls,
                        (0.0, 1.0, 0.0, 1.0))


def _record_steps(hydro):
    """Attach the one step observer solo drivers and lanes share; the
    returned list fills with a driver's clocks after every step."""
    steps = []
    hydro.observers.append(lambda h: steps.append(
        (h.nstep, h.time, h.dt, h.dt_reason, h.dt_cell)))
    return steps


def _assert_offgrid_lanes_match_serial(kind):
    from repro.core.hydro import Hydro
    from repro.ensemble.driver import EnsembleHydro

    steps = 30
    batch = EnsembleHydro([_offgrid_setup(kind), _offgrid_setup(kind)],
                          max_steps=[steps, steps])
    lane_steps = [_record_steps(lane) for lane in batch.lanes]
    batch.run()
    setup = _offgrid_setup(kind)
    serial = Hydro(setup.state, setup.table, setup.controls)
    serial_steps = _record_steps(serial)
    for _ in range(steps):
        serial.step()
    sb = _state_bytes(serial.state)
    for lane, final in enumerate(batch.final_states):
        eb = _state_bytes(final)
        differing = [f for f in sb if sb[f] != eb[f]]
        assert not differing, f"lane {lane} fields differ: {differing}"
        assert lane_steps[lane] == serial_steps


def test_offgrid_mesh_lanes_match_serial():
    _assert_offgrid_lanes_match_serial("permuted")


def test_pinwheel_mesh_lanes_match_serial():
    _assert_offgrid_lanes_match_serial("pinwheel")


def test_ragged_retirement_keeps_lanes_identical():
    """Lanes finishing at different steps are retired by compaction;
    the survivors must keep marching bit-identically."""
    steps = [90, 30, 60]
    configs = [RunConfig(problem="sod", nx=24, ny=24, max_steps=s)
               for s in steps]
    ensemble = ensemble_lanes(configs)
    for config, lane_result in zip(configs, ensemble):
        assert_lane_identical(run(config), lane_result)


def _sweep_overrides(lanes):
    """The ``bench`` sweep's override shape: cq1, cq2 and cfl_safety
    all distinct in every lane."""
    return [{"cq1": 0.3 + 0.021 * i, "cq2": 0.5 + 0.029 * i,
             "cfl_safety": 0.3 + 0.011 * i} for i in range(lanes)]


def _overridden_setup(config, override):
    setup = config.build_setup()
    if override:
        setup.controls = setup.controls.with_(**override).validated()
    return setup


def _assert_overridden_lanes_match_serial(problem, overrides):
    """Each lane matches its own serial run exactly — state, and at
    every step the clocks, the dt taken, why, and the (lane-local)
    controlling cell, seen by the same observer on the solo driver and
    on the lane.  Returns the number of distinct final states."""
    from repro.core.hydro import Hydro
    from repro.ensemble.driver import EnsembleHydro

    configs = [RunConfig(problem=problem, nx=20, ny=20, max_steps=40)
               for _ in overrides]
    ensemble = ensemble_lanes(configs, overrides)
    batch = EnsembleHydro(
        [_overridden_setup(c, o) for c, o in zip(configs, overrides)],
        max_steps=[c.max_steps for c in configs])
    lane_steps = [_record_steps(lane) for lane in batch.lanes]
    batch.run()

    finals = set()
    for lane, (override, config, lane_result) in enumerate(
            zip(overrides, configs, ensemble)):
        setup = _overridden_setup(config, override)
        serial = Hydro(setup.state, setup.table, setup.controls)
        serial_steps = _record_steps(serial)
        serial.run(max_steps=config.max_steps)
        sb = _state_bytes(serial.state)
        eb = _state_bytes(lane_result.state)
        differing = [f for f in sb if sb[f] != eb[f]]
        assert not differing, (
            f"override {override}: fields differ {differing}")
        assert lane_result.nstep == serial.nstep
        assert lane_result.time == serial.time
        assert lane_steps[lane] == serial_steps
        assert _state_bytes(batch.final_states[lane]) == eb
        finals.add(eb["e"])
    return len(finals)


def test_heterogeneous_controls_per_lane():
    """Per-lane cq1/cfl sweeps diverge the lanes' dt sequences; each
    lane still matches its own serial run exactly."""
    assert _assert_overridden_lanes_match_serial(
        "sod", [None, {"cq1": 0.3}, {"cfl_safety": 0.4}]) > 1


def test_sixteen_lanes_with_sweep_shaped_overrides():
    """The ``bench`` sweep's shape: N = 16, cq1 x cq2 x cfl_safety all
    distinct — sixteen different answers, each its serial run's."""
    assert _assert_overridden_lanes_match_serial(
        "noh", _sweep_overrides(16)) == 16


def test_ale_lane_beside_plain_lane():
    """A remapping lane (ALE every 4 steps) shares the batch with a
    pure-Lagrangian lane; both stay bit-identical to serial, and the
    remap correctly drops the union's nodal-mass cache."""
    from repro.parallel.distributed import DistributedHydro

    configs = [RunConfig(problem="noh", nx=16, ny=16, max_steps=24)
               for _ in range(2)]
    overrides = [None, {"ale_on": True, "ale_every": 4}]
    ensemble = ensemble_lanes(configs, overrides)

    assert_lane_identical(run(configs[0]), ensemble[0])
    setup = configs[1].build_setup()
    setup.controls = setup.controls.with_(ale_on=True,
                                          ale_every=4).validated()
    driver = DistributedHydro(setup, 1, backend="serial")
    driver.run(max_steps=24)
    sb = _state_bytes(driver.gather())
    eb = _state_bytes(ensemble[1].state)
    differing = [f for f in sb if sb[f] != eb[f]]
    assert not differing, f"ALE lane fields differ: {differing}"


def test_metrics_rows_match_serial_probe():
    """A lane's diagnostics stream equals the serial run's (floats and
    all) — the probe samples identical state at identical steps."""
    configs = [RunConfig(problem="sod", nx=16, ny=16, max_steps=30,
                         metrics_every=10) for _ in range(2)]
    ensemble = ensemble_lanes(configs)
    serial = run(configs[0])
    for lane_result in ensemble:
        assert lane_result.metrics_rows is not None
        assert len(lane_result.metrics_rows) == len(serial.metrics_rows)
        for mine, ref in zip(lane_result.metrics_rows,
                             serial.metrics_rows):
            for key in ("nstep", "energy_drift", "mass_drift",
                        "rho_max", "total_energy"):
                if key in ref:
                    assert mine[key] == ref[key], key
