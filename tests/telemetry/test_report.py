"""Run-report schema: golden-file pin, validation, step rows.

The golden file pins the report's *shape* (every key path and value
type, with data-like maps collapsed).  If it fails after an intended
schema change: bump ``repro.telemetry.report.SCHEMA_VERSION`` and
regenerate the golden with

    PYTHONPATH=src python tests/telemetry/test_report.py regen
"""

import json
import time
from pathlib import Path

import pytest

from repro.core.hydro import Hydro
from repro.parallel import CommStats, DistributedHydro
from repro.problems import load_problem
from repro.telemetry import (
    SCHEMA_VERSION,
    build_report,
    schema_shape,
    validate_report,
    write_report,
)
from repro.utils.timers import TimerRegistry

GOLDEN = Path(__file__).parent / "golden_report_schema.json"


def serial_report() -> dict:
    setup = load_problem("noh", nx=12, ny=12)
    timers = TimerRegistry.traced()
    hydro = Hydro(setup.state, setup.table, setup.controls, timers=timers)
    t0 = time.perf_counter()
    hydro.run(max_steps=5)
    return build_report(
        setup.describe(), timers, steps=hydro.nstep,
        time_reached=hydro.time, wall_seconds=time.perf_counter() - t0,
        step_rows=hydro.step_rows,
    )


def distributed_report() -> dict:
    # metrics_every=5 so the golden pins the ``diagnostics`` record's
    # shape (a live-metrics sample), not just the serial ``null``.
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, trace=True, metrics_every=5)
    t0 = time.perf_counter()
    driver.run(max_steps=5)
    return build_report(
        setup.describe(), driver.merged_timers(), steps=driver.nstep,
        time_reached=driver.time, wall_seconds=time.perf_counter() - t0,
        ranks=2, partition="rcb",
        comm_total=driver.context.total_stats().as_dict(),
        comm_per_rank=driver.per_rank_comm(),
        step_rows=driver.result.step_rows,
        diagnostics=driver.result.metrics_rows[-1],
    )


def test_reports_validate():
    validate_report(serial_report())
    validate_report(distributed_report())


def test_golden_schema_shape_pinned():
    golden = json.loads(GOLDEN.read_text())
    assert golden["schema_version"] == SCHEMA_VERSION, (
        "golden and code disagree on schema_version — regenerate the "
        "golden after bumping SCHEMA_VERSION"
    )
    assert schema_shape(serial_report()) == golden["serial"], (
        "serial report shape drifted: bump SCHEMA_VERSION and "
        "regenerate the golden (see module docstring)"
    )
    assert schema_shape(distributed_report()) == golden["distributed"], (
        "distributed report shape drifted: bump SCHEMA_VERSION and "
        "regenerate the golden (see module docstring)"
    )


def test_distributed_report_has_nonzero_per_rank_comm():
    report = distributed_report()
    per_rank = report["comm"]["per_rank"]
    assert len(per_rank) == 2
    for entry in per_rank:
        assert entry["messages"] > 0
        assert entry["bytes"] > 0
        assert entry["halo_exchanges"] > 0
        assert entry["reductions"] > 0
    total = report["comm"]["total"]
    # every CommStats counter, summed over the ranks
    assert list(total) == list(CommStats().as_dict())
    for key in total:
        assert total[key] == sum(e[key] for e in per_rank)


def test_step_series_records_every_step():
    report = serial_report()
    assert len(report["steps"]) == 5
    for i, row in enumerate(report["steps"]):
        assert row["nstep"] == i + 1
        assert row["dt"] > 0
        assert row["wall_seconds"] > 0
    times = [row["time"] for row in report["steps"]]
    assert times == sorted(times)


def test_validate_rejects_drift():
    report = serial_report()
    bad = dict(report, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(ValueError):
        validate_report(bad)
    bad = {k: v for k, v in report.items() if k != "comm"}
    with pytest.raises(ValueError):
        validate_report(bad)


def test_write_report_roundtrip(tmp_path):
    path = write_report(serial_report(), tmp_path / "r.json")
    validate_report(json.loads(path.read_text()))


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["regen"]:
        GOLDEN.write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "serial": schema_shape(serial_report()),
            "distributed": schema_shape(distributed_report()),
        }, indent=2, sort_keys=True) + "\n")
        print(f"wrote {GOLDEN}")
