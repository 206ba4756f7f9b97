"""Tests for the unified run API (``repro.api``)."""

import numpy as np
import pytest

from repro.api import RunConfig, RunResult, run
from repro.utils.errors import BookLeafError


def _config(**overrides):
    base = dict(problem="noh", nx=16, ny=16, max_steps=10)
    base.update(overrides)
    return RunConfig(**base)


def test_top_level_exports():
    import repro

    assert repro.RunConfig is RunConfig
    assert repro.run is run


def test_serial_run_matches_plain_hydro():
    from repro.problems import load_problem

    result = run(_config())
    assert isinstance(result, RunResult)
    assert result.backend == "serial"
    plain = load_problem("noh", nx=16, ny=16).make_hydro()
    plain.run(max_steps=10)
    assert result.nstep == plain.nstep
    assert np.array_equal(result.state.rho, plain.state.rho)
    assert result.comm_total is None
    assert result.comm_per_rank == []


def test_auto_backend_resolution():
    assert RunConfig(problem="noh").resolved_backend() == "serial"
    assert RunConfig(problem="noh", nranks=4).resolved_backend() == "threads"
    assert RunConfig(problem="noh", nranks=4,
                     backend="processes").resolved_backend() == "processes"


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_distributed_backends_through_api(backend):
    result = run(_config(nranks=2, backend=backend))
    assert result.backend == backend
    assert result.nranks == 2
    assert result.comm_total["halo_exchanges"] > 0
    assert len(result.comm_per_rank) == 2
    assert result.comm_summary["backend"] == backend
    serial = run(_config())
    np.testing.assert_allclose(result.state.rho, serial.state.rho,
                               rtol=1e-10)


@pytest.mark.parametrize("nranks, backend", [(1, "threads"), (2, "threads"),
                                             (2, "processes")])
def test_report_comm_total_is_the_sum_of_its_ranks(nranks, backend):
    """Whatever the rank count, a run that recorded comm entries reports
    their sum as its total — a one-rank ``threads`` run as well."""
    from repro.parallel.interface import COMM_FIELDS

    result = run(RunConfig(problem="sod", nx=16, ny=8, max_steps=4,
                           nranks=nranks, backend=backend))
    comm = result.report()["comm"]
    assert len(comm["per_rank"]) == nranks
    assert comm["per_rank"][0]["messages"] > 0
    assert comm["total"] == {k: sum(e[k] for e in comm["per_rank"])
                             for k in COMM_FIELDS}
    assert result.comm_total == comm["total"]


def test_threads_and_processes_bit_identical_through_api():
    threads = run(_config(nranks=2, backend="threads"))
    procs = run(_config(nranks=2, backend="processes"))
    assert np.array_equal(threads.state.rho, procs.state.rho)
    assert np.array_equal(threads.state.u, procs.state.u)
    assert threads.comm_per_rank == procs.comm_per_rank


def test_report_shape_and_step_series():
    from repro.telemetry.report import SCHEMA_VERSION

    result = run(_config(nranks=2, backend="processes", trace=True))
    assert result.step_rows and len(result.step_rows) == result.nstep
    assert result.spans
    report = result.report()
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["run"]["ranks"] == 2
    assert len(report["steps"]) == result.nstep
    # The report's comm entries are the CommStats counters, all six.
    assert report["comm"]["total"] == result.comm_total
    assert report["comm"]["per_rank"] == result.comm_per_rank
    assert result.comm_total["dt_reductions"] > 0


def test_deck_config():
    from repro.problems import deck_path

    result = run(RunConfig(deck=str(deck_path("sod")), max_steps=5))
    assert result.setup.name == "sod"
    assert result.nstep == 5


def test_observers_reach_rank0_in_process():
    seen = []
    run(_config(), observers=[lambda hydro: seen.append(hydro.nstep)])
    assert seen == list(range(1, 11))


def test_observers_rejected_for_processes_backend():
    with pytest.raises(BookLeafError, match="out-of-process"):
        run(_config(nranks=2, backend="processes"),
            observers=[lambda hydro: None])


def test_config_validation_errors():
    with pytest.raises(BookLeafError, match="not both"):
        RunConfig(problem="sod", deck="sod.in").build_setup()
    with pytest.raises(BookLeafError, match="nothing to run"):
        RunConfig().build_setup()
    with pytest.raises(BookLeafError, match="deck"):
        RunConfig(deck="sod.in", nx=10).build_setup()
    with pytest.raises(BookLeafError, match="unknown run option"):
        run(problem="noh", bogus=1)
    with pytest.raises(BookLeafError, match="not both"):
        run(_config(), problem="sod")


def test_legacy_keywords_now_raise():
    """The ``ranks=``/``method=`` aliases completed their deprecation
    cycle: they raise a structured error, never silently map."""
    from repro.utils.errors import DeprecatedOptionError

    with pytest.raises(DeprecatedOptionError, match="ranks"):
        run(problem="noh", nx=16, ny=16, max_steps=3, ranks=2)
    with pytest.raises(DeprecatedOptionError, match="method"):
        run(problem="noh", nx=16, ny=16, max_steps=3, method="spectral")
    with pytest.raises(DeprecatedOptionError):
        run(problem="noh", ranks=2, nranks=2)


def test_legacy_keyword_error_names_replacement():
    """The error must say exactly what to type instead, and where the
    migration notes live."""
    from repro.utils.errors import DeprecatedOptionError

    with pytest.raises(DeprecatedOptionError) as exc:
        run(problem="noh", nx=16, ny=16, max_steps=1, ranks=2)
    msg = str(exc.value)
    assert "'ranks='" in msg and "'nranks='" in msg
    assert "docs/FLEET.md" in msg
    with pytest.raises(DeprecatedOptionError) as exc:
        run(problem="noh", nx=16, ny=16, max_steps=1, method="rcb")
    msg = str(exc.value)
    assert "'method='" in msg and "'partition='" in msg


def test_run_ensemble_is_retired():
    """Batching is the fleet's decision: the old entrance runs nothing
    and names the one that replaced it."""
    import repro
    from repro.api import run_ensemble
    from repro.utils.errors import DeprecatedOptionError

    with pytest.raises(DeprecatedOptionError) as exc:
        run_ensemble([RunConfig(problem="sod", nx=8, ny=8)])
    assert exc.value.option == "run_ensemble()"
    assert exc.value.replacement == "submit(configs, control_overrides=...)"
    assert not hasattr(repro, "run_ensemble")


def test_legacy_keyword_error_is_a_bookleaf_error():
    """DeprecatedOptionError stays catchable as the library's base
    error, so existing except-BookLeafError handlers keep working."""
    from repro.utils.errors import DeprecatedOptionError

    with pytest.raises(BookLeafError):
        run(problem="noh", nx=16, ny=16, max_steps=1, ranks=2)
    err = DeprecatedOptionError("ranks=", "nranks=")
    assert err.option == "ranks=" and err.replacement == "nranks="


def test_replacement_keywords_are_the_only_spelling():
    """The replacement spellings drive the run the aliases used to."""
    result = run(problem="noh", nx=16, ny=16, max_steps=5, nranks=2,
                 partition="rcb")
    assert result.nranks == 2
    assert result.config.partition == "rcb"
    assert result.comm_total is not None


def test_diagnostics_keys():
    diag = run(_config()).diagnostics()
    assert set(diag) == {"mass", "total_energy", "rho_max"}
