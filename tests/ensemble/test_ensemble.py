"""Ensemble surface behaviour: the fast path's one eligibility table,
per-lane dt, retirement bookkeeping, reports and the ``fleet`` CLI's
sweep routing onto lanes."""

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.cli import main as cli_main
from repro.ensemble.driver import EnsembleHydro
from repro.problems import load_problem
from repro.utils.errors import (BookLeafError, TangledMeshError,
                                TimestepCollapseError)
from tests.conftest import ensemble_lanes


# ----------------------------------------------------------------------
# API validation and the one eligibility table
# ----------------------------------------------------------------------
def test_empty_ensemble_rejected():
    with pytest.raises(BookLeafError,
                       match="^submit needs at least one RunConfig$"):
        submit([])


def _refused(configs, reason, **options):
    """Job 1 carries an override but fails the table: one error names
    the job and the reason."""
    with pytest.raises(BookLeafError,
                       match=rf"^fleet job 1 .* cannot batch: '{reason}'"):
        submit(configs, control_overrides=[None, {"cq1": 0.3}],
               **options).results()


def test_distributed_lane_rejected():
    _refused([RunConfig(problem="sod", nx=8, ny=8),
              RunConfig(problem="sod", nx=8, ny=8, nranks=2)], "nranks")


def test_non_serial_backend_rejected():
    _refused([RunConfig(problem="sod", nx=8, ny=8),
              RunConfig(problem="sod", nx=8, ny=8, backend="threads")],
             "backend")


@pytest.mark.parametrize("reason", ["trace", "trace_allocations",
                                    "profile", "bc_driver"])
def test_override_job_outside_the_table_is_refused(tmp_path, reason):
    """The rest of the table (nranks and backend are the two tests
    above).  An override job that cannot batch is never run per-job
    with its override dropped."""
    if reason == "bc_driver":
        configs = [RunConfig(problem="kidder", nx=8, ny=8, max_steps=3)] * 2
    else:
        value = str(tmp_path / "p.folded") if reason == "profile" else True
        configs = [RunConfig(problem="sod", nx=8, ny=8, max_steps=3),
                   RunConfig(problem="sod", nx=8, ny=8, max_steps=3,
                             **{reason: value})]
    _refused(configs, reason)


def test_observers_with_overrides_are_refused():
    """Observers keep every job off the batched path, so a job that
    needs it is refused rather than run without its override."""
    configs = [RunConfig(problem="sod", nx=8, ny=8, max_steps=3)] * 2
    _refused(configs, "observers", observers=[lambda hydro: None])


def test_override_count_must_match():
    with pytest.raises(BookLeafError, match="one entry per config"):
        submit([RunConfig(problem="sod", nx=8, ny=8)],
               control_overrides=[None, None])


def test_nonuniform_batched_control_rejected():
    """Controls the step reads as one scalar for the whole union must
    be uniform; per-lane values only exist as the coefficient vectors."""
    configs = [RunConfig(problem="sod", nx=8, ny=8) for _ in range(2)]
    with pytest.raises(BookLeafError, match="use_limiter"):
        ensemble_lanes(configs, [None, {"use_limiter": False}])


# ----------------------------------------------------------------------
# batch mechanics
# ----------------------------------------------------------------------
def test_lanes_advance_at_their_own_dt():
    """A lane seeded with a smaller initial dt must fall behind in
    time while sharing every kernel pass."""
    setups = [load_problem("sod", nx=12, ny=12) for _ in range(2)]
    setups[1].controls = setups[1].controls.with_(
        dt_initial=setups[1].controls.dt_initial * 0.25).validated()
    driver = EnsembleHydro(setups, max_steps=[12, 12])
    driver.run()
    assert [lane.nstep for lane in driver.lanes] == [12, 12]
    assert driver.lanes[1].time < driver.lanes[0].time


@pytest.mark.parametrize("kind", ["grid", "pinwheel"])
def test_union_mesh_is_what_quadmesh_derives(kind):
    """Tiling the lanes' validated connectivity with offsets gives the
    neighbour tables and limiter plans ``QuadMesh`` would re-derive
    (and validate) from the tiled ``cell_nodes``."""
    from repro.ensemble.state import UnionMesh
    from repro.mesh.generator import pinwheel_mesh, rect_mesh
    from repro.mesh.topology import QuadMesh

    base = rect_mesh(5, 4) if kind == "grid" else pinwheel_mesh(nquads=5)
    union = UnionMesh(base, 3)
    derived = QuadMesh(np.tile(base.x, 3), np.tile(base.y, 3),
                       union.cell_nodes)
    assert (union.ncell, union.nnode) == (derived.ncell, derived.nnode)
    for name in ("cell_nodes", "cell_neighbours", "neighbour_side"):
        assert np.array_equal(getattr(union, name), getattr(derived, name))
    for mine, theirs in zip(union.plans.limiter_edges,
                            derived.plans.limiter_edges):
        assert np.array_equal(mine, theirs)
    assert union.plans.grid_shape is None


def test_retirement_compacts_the_batch():
    setups = [load_problem("sod", nx=12, ny=12) for _ in range(3)]
    driver = EnsembleHydro(setups, max_steps=[20, 5, 12])
    driver.run()
    assert [lane.nstep for lane in driver.lanes] == [20, 5, 12]
    assert driver.order == []                  # everything retired
    for lane, state in enumerate(driver.final_states):
        assert state is not None, f"lane {lane} never retired"
    # The batch really shrank along the way: the ensemble state ends
    # at the last survivor's width, not the original 3.
    assert driver.es.n_lanes == 1


def test_arena_is_cleared_when_the_union_narrows():
    """Blocks sized for a wider union are dead weight once lanes have
    retired; the driver drops them instead of pinning them."""
    setups = [load_problem("sod", nx=12, ny=12) for _ in range(3)]
    driver = EnsembleHydro(setups, max_steps=[9, 3, 3])
    driver.begin()
    held = {}
    while True:
        driver.advance()
        if not driver.order:
            break
        held[driver.n_active] = driver.ws.nbytes()
    assert sorted(held) == [1, 3]
    assert held[1] < 0.5 * held[3]
    assert len(driver.ws) == 0          # a drained driver pins nothing


def test_results_in_config_order_with_per_lane_steps():
    configs = [RunConfig(problem="sod", nx=12, ny=12, max_steps=s)
               for s in (15, 5, 10)]
    results = ensemble_lanes(configs)
    assert [r.nstep for r in results] == [15, 5, 10]
    for config, result in zip(configs, results):
        assert result.config is config
        assert result.backend == "ensemble"
        assert result.state is not None


def test_lane_report_builds():
    (result,) = ensemble_lanes([RunConfig(problem="sod", nx=12, ny=12,
                                          max_steps=8)])
    report = result.report()
    assert report["run"]["steps"] == 8
    assert "getq" in report["kernels"]


def _step_keys(rows):
    return [(r["nstep"], r["time"], r["dt"], r["dt_reason"]) for r in rows]


def test_lane_step_rows_equal_the_solo_runs():
    """Every lane is a ``Hydro`` and records its own step rows — a lane
    carried across a refill included (job 1 here rides two batches)."""
    configs = [RunConfig(problem="sod", nx=12, ny=12, max_steps=s)
               for s in (6, 14, 10)]
    handle = submit(configs, batch_width=2)
    results = handle.results()
    assert [r.backend for r in results] == ["ensemble"] * 3
    (refill,) = [e for e in handle.schedule_log
                 if e["event"] == "lane_refill"]
    assert refill["carried"] == [1]
    for config, result in zip(configs, results):
        solo = run(config)
        assert len(result.step_rows) == config.max_steps
        assert _step_keys(result.step_rows) == _step_keys(solo.step_rows)
        assert _step_keys(result.report()["steps"]) == \
            _step_keys(solo.step_rows)


# ----------------------------------------------------------------------
# a failing lane is named
# ----------------------------------------------------------------------
def _solo_error(config, override, kind):
    from repro.core.hydro import Hydro

    setup = config.build_setup()
    setup.controls = setup.controls.with_(**override).validated()
    with pytest.raises(kind) as solo:
        Hydro(setup.state, setup.table, setup.controls).run(
            max_steps=config.max_steps)
    return solo.value


def test_tangled_lane_is_named_with_its_own_cells_and_time():
    """Lane 2 takes a step that inverts its mesh: the error carries the
    lane, the job, lane-local cell ids and *that lane's* time (it
    started later than lane 0), exactly what its solo run reports."""
    configs = [RunConfig(problem="noh", nx=12, ny=12, max_steps=20)
               for _ in range(3)]
    wild = {"time_start": 0.05, "dt_initial": 0.9, "dt_max": 1.0}
    with pytest.raises(TangledMeshError) as batch:
        ensemble_lanes(configs, [None, {"cq1": 0.3}, wild])
    solo = _solo_error(configs[2], wild, TangledMeshError)
    exc = batch.value
    assert (exc.lane, exc.job) == (2, 2)
    assert exc.cells == solo.cells and max(exc.cells) < 144
    assert exc.time == solo.time == 0.05
    assert str(exc) == f"job 2, ensemble lane 2: {solo}"


def _dart_setup(kick):
    """A uniform gas at rest on a 4x4 box, hourglass controls off; with
    ``kick`` one interior node flies toward the far corner of a cell
    fast enough that the *half-step* geometry has an inverted median
    subzone inside a still-positive cell."""
    from repro.core.controls import HydroControls
    from repro.core.state import HydroState
    from repro.eos import IdealGas, MaterialTable
    from repro.mesh.generator import rect_mesh
    from repro.problems.base import ProblemSetup

    mesh = rect_mesh(4, 4)
    table = MaterialTable()
    table.add(IdealGas(1.4))
    u = np.zeros(mesh.nnode)
    if kick:
        u[6] = -0.2 / (0.5 * 0.01)      # 0.2 of a 0.25 cell by t + dt/2
    state = HydroState.from_initial(
        mesh, table, np.ones(mesh.ncell), np.ones(mesh.ncell), u=u, v=u)
    controls = HydroControls(time_end=1.0, dt_initial=0.01,
                             subzonal_kappa=0.0)
    return ProblemSetup("dart", state, table, controls,
                        (0.0, 1.0, 0.0, 1.0))


def test_half_step_subzone_inversion_is_caught_in_a_lane():
    """The half-step corner volumes feed nothing when the subzonal
    pressures are off, but the serial step checks them anyway — and so
    does a lane: same error, same step, same cells."""
    from repro.core import geometry
    from repro.core.hydro import Hydro

    setup = _dart_setup(kick=True)
    state = setup.state
    cx, cy = geometry.gather(state.mesh, state.x + 0.005 * state.u,
                             state.y + 0.005 * state.v)
    assert (geometry.cell_volumes(cx, cy) > 0.0).all()
    assert (geometry.corner_volumes(cx, cy) <= 0.0).any()

    solo = Hydro(state, setup.table, setup.controls)
    with pytest.raises(TangledMeshError) as alone:
        solo.run(max_steps=3)
    batch = EnsembleHydro([_dart_setup(False), _dart_setup(True)],
                          max_steps=[3, 3])
    with pytest.raises(TangledMeshError) as in_lane:
        batch.run()
    assert in_lane.value.lane == 1
    assert in_lane.value.cells == alone.value.cells == [0]
    assert in_lane.value.time == alone.value.time
    assert batch.lanes[1].nstep == solo.nstep == 0


def test_collapsed_lane_is_named():
    configs = [RunConfig(problem="sod", nx=12, ny=12, max_steps=20)
               for _ in range(2)]
    stiff = {"dt_min": 1e-3}
    with pytest.raises(TimestepCollapseError) as batch:
        ensemble_lanes(configs, [stiff, None])
    solo = _solo_error(configs[0], stiff, TimestepCollapseError)
    exc = batch.value
    assert (exc.lane, exc.job) == (0, 0)
    assert (exc.dt, exc.cell, exc.time) == (solo.dt, solo.cell, solo.time)
    assert str(exc) == f"job 0, ensemble lane 0: {solo}"


def test_sick_lane_is_named(tmp_path):
    """A health sentinel tripping on a lane's behalf names the lane
    like a tangle or a dt collapse does, with lane-local ids."""
    from repro.metrics.probe import DiagnosticsProbe
    from repro.utils.errors import HealthError

    setups = [RunConfig(problem="noh", nx=12, ny=12).build_setup()
              for _ in range(3)]
    probes = [DiagnosticsProbe(every=1, record=True,
                               snapshot_path=str(tmp_path / f"s{i}.npz"))
              for i in range(3)]
    batch = EnsembleHydro(setups, probes=probes)
    batch.begin()
    batch.advance()
    batch.es.union.e[2 * 144 + 5] = np.nan      # lane 2's cell 5
    with pytest.raises(HealthError, match="^ensemble lane 2: health") as sick:
        batch.advance()
    exc = sick.value
    assert exc.lane == 2
    assert 5 in exc.violations["nonfinite:e"] and max(exc.cells()) < 169
    assert exc.snapshot == str(tmp_path / "s2.npz")


def test_sick_lane_of_a_refilled_batch_names_its_job(tmp_path, monkeypatch):
    """Through ``submit``: the job whose lane sickens sits in row 1 of
    a rebuilt batch, and the error names both."""
    from repro.utils.errors import HealthError

    advance = EnsembleHydro.advance

    def poisoned(self):
        retired = advance(self)
        for lane in self.active:
            if lane.controls.max_steps == 9 and lane.nstep == 1:
                lane.state.e[5] = np.nan
        return retired

    monkeypatch.setattr(EnsembleHydro, "advance", poisoned)
    configs = [RunConfig(problem="noh", nx=12, ny=12, max_steps=3 + 2 * i,
                         metrics_every=1, snapshot_dir=str(tmp_path))
               for i in range(4)]
    handle = submit(configs, batch_width=2)
    with pytest.raises(HealthError,
                       match="^job 3, ensemble lane 1: health") as sick:
        handle.results()
    assert (sick.value.job, sick.value.lane) == (3, 1)


# ----------------------------------------------------------------------
# CLI: `fleet --sweep/--lanes` puts jobs on lanes
# ----------------------------------------------------------------------
def test_cli_sweep_routes_controls_and_problem_kwargs(capsys):
    """``cq1`` becomes a per-job override, ``height`` a problem kwarg —
    two setups, so two batches."""
    rc = cli_main(["fleet", "--problem", "sod", "--nx", "12",
                   "--ny", "12", "--max-steps", "6",
                   "--sweep", "cq1=0.3,0.5", "--sweep", "height=0.1,0.2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "job 0 (cq1=0.3, height=0.1) [ensemble]" in out
    assert "job 3 (cq1=0.5, height=0.2) [ensemble]" in out
    assert "4 job(s): 0 from cache, 4 on the batched fast path" in out


def test_cli_lanes_replicates(capsys):
    rc = cli_main(["fleet", "--problem", "sod", "--nx", "12",
                   "--ny", "12", "--max-steps", "4", "--lanes", "3"])
    assert rc == 0
    assert "3 job(s): 0 from cache, 3 on the batched fast path" in \
        capsys.readouterr().out


def test_cli_rejects_lanes_with_sweep(capsys):
    rc = cli_main(["fleet", "--problem", "sod", "--lanes", "2",
                   "--sweep", "cq1=0.3,0.5"])
    assert rc == 2
    assert "not both" in capsys.readouterr().err


def test_cli_rejects_malformed_sweep(capsys):
    rc = cli_main(["fleet", "--problem", "sod",
                   "--sweep", "cq1"])
    assert rc == 2
    assert "KEY=V1,V2" in capsys.readouterr().err
