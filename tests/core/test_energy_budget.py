"""The energy budget, read off the diagnostics probe's rows.

The compatible discretisation makes the energy flow auditable: the
corner forces do work -ΣF·ū on the cells and +ΣF·ū on the nodes, so
kinetic and internal changes cancel exactly, and any change of the
total is boundary work (the Saltzmann piston) or remap dissipation.
Every assertion runs on the rows of a serial run and of a
``processes`` x 2 run (``metrics_every=1``: one row per step, step 0
included).
"""

import numpy as np
import pytest

from repro.api import run

#: (backend, nranks) every budget is checked on
BACKENDS = (("serial", 1), ("processes", 2))


def _budgets(problem, **settings):
    """``(backend, rows)`` of one run per backend."""
    kwargs = {k: settings.pop(k) for k in ("nx", "ny", "time_end",
                                           "max_steps") if k in settings}
    for backend, nranks in BACKENDS:
        result = run(problem=problem, metrics_every=1, backend=backend,
                     nranks=nranks, problem_kwargs=settings, **kwargs)
        yield backend, result.metrics_rows


def _delta(rows, name):
    return rows[-1][name] - rows[0][name]


def test_budget_records_every_step():
    for backend, rows in _budgets("sod", nx=20, ny=2, time_end=1.0,
                                  max_steps=5):
        assert [r["nstep"] for r in rows] == [0, 1, 2, 3, 4, 5], backend


def test_closed_lagrangian_run_conserves_total():
    for backend, rows in _budgets("sod", nx=50, ny=2, time_end=0.05):
        total = [r["total_energy"] for r in rows]
        scale = abs(total[0])
        assert abs(total[-1] - total[0]) < 1e-12 * scale, backend
        assert np.abs(np.diff(total)).max() < 1e-13 * scale, backend


def test_sod_converts_internal_to_kinetic():
    for backend, rows in _budgets("sod", nx=50, ny=2, time_end=0.1):
        d_ke = _delta(rows, "kinetic_energy")
        d_ie = _delta(rows, "internal_energy")
        assert d_ke > 0.0, backend
        assert d_ie == pytest.approx(-d_ke, rel=1e-10), backend
        exchanged = np.abs(np.diff(
            [r["internal_energy"] for r in rows])).sum()
        assert exchanged >= abs(d_ie), backend


def test_noh_converts_kinetic_to_internal():
    for backend, rows in _budgets("noh", nx=16, ny=16, time_end=0.1):
        # the implosion shocks KE to heat
        assert _delta(rows, "kinetic_energy") < 0.0, backend
        assert _delta(rows, "internal_energy") > 0.0, backend


def test_piston_adds_energy():
    for backend, rows in _budgets("saltzmann", nx=40, ny=4,
                                  time_end=0.2):
        # boundary work flows in
        assert _delta(rows, "total_energy") > 0.0, backend


def test_ale_run_dissipates_only():
    """The Eulerian remap may only *lose* total energy (upwind KE
    dissipation), never create it."""
    for backend, rows in _budgets("sod", nx=50, ny=2, time_end=0.05,
                                  ale_on=True):
        scale = abs(rows[0]["total_energy"])
        assert _delta(rows, "total_energy") <= 1e-12 * scale, backend


def test_series_lengths():
    for backend, rows in _budgets("sod", nx=10, ny=2, time_end=1.0,
                                  max_steps=3):
        assert len(rows) == 4, backend
        assert np.all(np.diff([r["time"] for r in rows]) > 0), backend
