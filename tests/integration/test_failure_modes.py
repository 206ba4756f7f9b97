"""Failure-injection tests: the abort paths behave like the Fortran
mini-app's (detectable, attributable, catchable)."""

import numpy as np
import pytest

from repro.problems import load_problem
from repro.utils.errors import (
    BookLeafError,
    TangledMeshError,
    TimestepCollapseError,
)


def test_dt_collapse_reported_with_cell():
    """An absurd dt_min turns the first getdt into a collapse report
    carrying the controlling cell."""
    setup = load_problem("sod", nx=20, ny=2, time_end=1.0, dt_min=1.0)
    hydro = setup.make_hydro()
    with pytest.raises(TimestepCollapseError) as err:
        hydro.run(max_steps=5)
    assert err.value.dtmin == 1.0
    assert err.value.dt < 1.0


def test_tangle_reports_offending_cells_and_time():
    setup = load_problem("sod", nx=20, ny=2, time_end=1.0)
    hydro = setup.make_hydro()
    hydro.step()
    # fold one interior node across its cell
    mesh = hydro.state.mesh
    interior = np.setdiff1d(np.arange(mesh.nnode), mesh.boundary_nodes())
    hydro.state.x[interior[0]] += 10.0
    with pytest.raises(TangledMeshError) as err:
        hydro.step()
    assert len(err.value.cells) >= 1
    assert err.value.time is not None


def test_tangle_is_catchable_as_bookleaf_error():
    setup = load_problem("saltzmann", nx=60, ny=6, time_end=0.6,
                         subzonal_kappa=0.0, filter_kappa=0.0)
    hydro = setup.make_hydro()
    with pytest.raises(BookLeafError):
        hydro.run()
    # the driver stopped at the failure, state is inspectable
    assert hydro.nstep > 10
    assert hydro.time < 0.6


def test_state_inspectable_after_failure():
    """Post-mortem: the last committed state is still self-consistent
    (the failure is raised before the bad commit)."""
    setup = load_problem("saltzmann", nx=60, ny=6, time_end=0.6,
                         subzonal_kappa=0.0, filter_kappa=0.0)
    hydro = setup.make_hydro()
    try:
        hydro.run()
    except BookLeafError:
        pass
    state = hydro.state
    assert np.all(state.volume > 0.0)
    np.testing.assert_allclose(state.rho * state.volume, state.cell_mass,
                               rtol=1e-12)


def test_failed_run_checkpointable():
    """A run that died can be checkpointed for post-mortem transfer."""
    from repro.output.restart import freeze, read_restart
    import tempfile
    from pathlib import Path

    setup = load_problem("saltzmann", nx=60, ny=6, time_end=0.6,
                         subzonal_kappa=0.0, filter_kappa=0.0)
    hydro = setup.make_hydro()
    try:
        hydro.run()
    except BookLeafError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        path = freeze(Path(tmp) / "postmortem.npz", hydro)
        snap = read_restart(path)
        assert snap.nstep == hydro.nstep
        np.testing.assert_array_equal(snap.arrays["rho"], hydro.state.rho)
