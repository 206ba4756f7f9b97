"""The ensemble correctness contract: every lane bit-identical to serial.

``run_ensemble([c0, ..., cN])`` must produce, for each lane, byte-for-
byte the state arrays, step count, final time and diagnostics scalars
of ``run(ci)`` through the serial backend.  Not approximately equal —
``tobytes()`` equal: the batched kernels keep the serial operation
association per lane (see :mod:`repro.ensemble.kernels`), so any
drift, however small, means an expression changed shape and the
contract is broken.

This is also the reference the ``repro.core`` kernels are held to: they
are written against the workspace arena, the batched kernels are a
separately written, workspace-free statement of the same expressions,
and the two must agree to the last bit on every problem that can be
batched, on both viscosity forms, with the hourglass controls on, and
on a mesh whose numbering defeats the structured-grid scatter.

The default parametrisation caps steps so tier-1 stays fast; the CI
bit-identity gate job sets ``BOOKLEAF_BITID_FULL=1`` to run Noh and
Sod at 32x32 to completion with N=4 lanes.
"""

import os

import numpy as np
import pytest

from repro.api import RunConfig, problem_names, run, run_ensemble
from repro.ensemble import kernels

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
@pytest.mark.parametrize("lanes", [2, 4])
def test_every_lane_matches_serial(problem, lanes):
    max_steps = None if FULL else CAP.get(problem, DEFAULT_CAP)
    configs = [RunConfig(problem=problem, nx=32, ny=32,
                         max_steps=max_steps) for _ in range(lanes)]
    ensemble = run_ensemble(configs)
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
    ensemble = run_ensemble(configs)
    serial = run(configs[0])
    assert serial.backend == "serial"
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


def _offgrid_setup(seed):
    """A compressing ideal-gas blob on a rectangular mesh whose nodes
    are renumbered at random: same geometry, but no structured-grid
    shortcut applies, so every nodal sum takes the general route."""
    from repro.core.controls import HydroControls
    from repro.core.state import HydroState
    from repro.eos import IdealGas, MaterialTable
    from repro.mesh.generator import rect_mesh
    from repro.problems.base import ProblemSetup
    from tests.conftest import renumbered_mesh

    mesh = renumbered_mesh(rect_mesh(12, 10), seed)
    assert mesh.plans.grid_shape is None
    table = MaterialTable()
    table.add(IdealGas(1.4))
    rng = np.random.default_rng(seed + 1)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell)
    e = table.eos[0].energy_from_pressure(rho, 1.0 + rng.random(mesh.ncell))
    state = HydroState.from_initial(mesh, table, rho, e,
                                    u=-0.5 * (mesh.x - 0.5),
                                    v=-0.5 * (mesh.y - 0.5))
    controls = HydroControls(time_end=1.0, dt_initial=1e-4,
                             subzonal_kappa=0.3)
    return ProblemSetup("offgrid", state, table, controls,
                        (0.0, 1.0, 0.0, 1.0))


def test_offgrid_mesh_lanes_match_serial():
    from repro.core.hydro import Hydro
    from repro.ensemble.driver import EnsembleHydro

    steps = 30
    batch = EnsembleHydro([_offgrid_setup(3), _offgrid_setup(3)],
                          max_steps=[steps, steps]).run()
    setup = _offgrid_setup(3)
    serial = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(steps):
        serial.step()
    sb = _state_bytes(serial.state)
    for lane, final in enumerate(batch.final_states):
        eb = _state_bytes(final)
        differing = [f for f in sb if sb[f] != eb[f]]
        assert not differing, f"lane {lane} fields differ: {differing}"
        assert batch.nsteps[lane] == serial.nstep
        assert batch.times[lane] == serial.time


@pytest.mark.parametrize("forced, problem", [
    # Noh's converging shock activates every corner -> naturally dense;
    # force it through the compressed path.  Sod's planar shock leaves
    # most of the mesh inactive -> naturally sparse; force it dense.
    (1.01, "noh"),
    (-1.0, "sod"),
])
def test_forced_viscosity_branch_is_identical(forced, problem,
                                              monkeypatch):
    """Sparse and dense getq branches are interchangeable bitwise —
    the branch choice is a speed heuristic, never an answer change."""
    monkeypatch.setattr(kernels, "SPARSE_MAX_FRACTION", forced)
    configs = [RunConfig(problem=problem, nx=24, ny=24, max_steps=25)
               for _ in range(2)]
    ensemble = run_ensemble(configs)
    serial = run(configs[0])
    for lane_result in ensemble:
        assert_lane_identical(serial, lane_result)


def test_ragged_retirement_keeps_lanes_identical():
    """Lanes finishing at different steps are retired by compaction;
    the survivors must keep marching bit-identically."""
    steps = [90, 30, 60]
    configs = [RunConfig(problem="sod", nx=24, ny=24, max_steps=s)
               for s in steps]
    ensemble = run_ensemble(configs)
    for config, lane_result in zip(configs, ensemble):
        assert_lane_identical(run(config), lane_result)


def test_heterogeneous_controls_per_lane():
    """Per-lane cq1/cfl sweeps diverge the lanes' dt sequences; each
    lane still matches its own serial run exactly."""
    from repro.parallel.distributed import DistributedHydro

    overrides = [None, {"cq1": 0.3}, {"cfl_safety": 0.4}]
    configs = [RunConfig(problem="sod", nx=20, ny=20, max_steps=40)
               for _ in overrides]
    ensemble = run_ensemble(configs, control_overrides=overrides)

    for override, config, lane_result in zip(overrides, configs,
                                             ensemble):
        setup = config.build_setup()
        if override:
            setup.controls = setup.controls.with_(**override).validated()
        driver = DistributedHydro(setup, 1, backend="serial")
        driver.run(max_steps=config.max_steps)
        serial_state = driver.gather()
        sb = _state_bytes(serial_state)
        eb = _state_bytes(lane_result.state)
        differing = [f for f in sb if sb[f] != eb[f]]
        assert not differing, (
            f"override {override}: fields differ {differing}")
        assert lane_result.nstep == driver.nstep
        assert lane_result.time == driver.time


def test_ale_lane_beside_plain_lane():
    """A remapping lane (ALE every 4 steps) shares the batch with a
    pure-Lagrangian lane; both stay bit-identical to serial, and the
    remap correctly invalidates the cross-step geometry cache."""
    from repro.parallel.distributed import DistributedHydro

    configs = [RunConfig(problem="noh", nx=16, ny=16, max_steps=24)
               for _ in range(2)]
    overrides = [None, {"ale_on": True, "ale_every": 4}]
    ensemble = run_ensemble(configs, control_overrides=overrides)

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
    ensemble = run_ensemble(configs)
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
