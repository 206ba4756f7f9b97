"""``repro compare``: report/bench diffing, gating, exit codes, CLI."""

import json

import pytest

from repro.cli import main
from repro.metrics.compare import (
    classify,
    compare_files,
    format_table,
)


def _report(seconds_scale=1.0, drift=-2e-16, wall=1.0, comm_bytes=6400):
    return {
        "schema_version": 2,
        "run": {"wall_seconds": wall, "steps": 20},
        "kernels": {
            "getdt": {"seconds": 0.010 * seconds_scale, "calls": 20},
            "lagstep": {"seconds": 0.200 * seconds_scale, "calls": 20},
            "tiny": {"seconds": 1e-5 * seconds_scale, "calls": 20},
        },
        "comm": {"total": {"messages": 100, "bytes": comm_bytes,
                           "halo_exchanges": 40, "reductions": 20}},
        "diagnostics": {"energy_drift": drift, "mass_drift": 0.0,
                        "total_energy": 0.466, "hourglass_energy": 1e-9},
    }


def _bench(t=1.0, speedup=1.5):
    return {
        "bench": "example-ladder",
        "rungs": [{"nx": 64, "t_plain": t * 1.4, "t_planned": t,
                   "speedup": speedup}],
    }


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_classify():
    assert classify(_report()) == "report"
    assert classify(_bench()) == "bench"
    with pytest.raises(ValueError, match="not a run report"):
        classify({"stuff": 1})


def test_identical_reports_pass(tmp_path):
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", _report())
    result = compare_files(a, b)
    assert result.exit_code == 0
    assert result.regressions == []
    assert "no regressions" in format_table(result)


def test_kernel_slowdown_gates(tmp_path):
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", _report(seconds_scale=2.0))
    result = compare_files(a, b, threshold=0.25)
    assert result.exit_code == 1
    names = [r.name for r in result.regressions]
    assert "kernels.getdt.seconds" in names
    assert "kernels.lagstep.seconds" in names
    # sub-millisecond kernels are reported but never gated
    assert "kernels.tiny.seconds" not in names
    (tiny,) = [r for r in result.rows
               if r.name == "kernels.tiny.seconds"]
    assert not tiny.gated
    assert "2 regression(s)" in format_table(result)


def test_threshold_is_respected(tmp_path):
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", _report(seconds_scale=1.2))
    assert compare_files(a, b, threshold=0.25).exit_code == 0
    assert compare_files(a, b, threshold=0.10).exit_code == 1


def test_diagnostics_and_comm_are_informational(tmp_path):
    """A drift or traffic change is a review question, not a perf
    gate — it must show in the table but never flip the exit code."""
    a = _write(tmp_path, "a.json", _report(drift=-2e-16))
    b = _write(tmp_path, "b.json", _report(drift=-4e-12, wall=50.0))
    result = compare_files(a, b)
    assert result.exit_code == 0
    table = format_table(result)
    assert "diagnostics.energy_drift" in table
    assert "comm.total.messages" in table
    assert "run.wall_seconds" in table


def test_gate_comm_gates_bytes_per_step(tmp_path):
    """``--gate-comm`` turns the derived comm.bytes_per_step row into
    an exactly-gated metric: comm volume is schedule-driven, so a
    growth beyond the threshold fails the diff with zero noise floor,
    while the default mode keeps the same row informational."""
    a = _write(tmp_path, "a.json", _report(comm_bytes=6400))
    b = _write(tmp_path, "b.json", _report(comm_bytes=12800))
    assert compare_files(a, b).exit_code == 0
    result = compare_files(a, b, gate_comm=True)
    assert result.exit_code == 1
    (row,) = result.regressions
    assert row.name == "comm.bytes_per_step"
    assert (row.old, row.new) == (320.0, 640.0)  # bytes / 20 steps
    # the raw counters stay informational even under the gate
    assert all(not r.gated for r in result.rows
               if r.name.startswith("comm.total."))
    # volume reductions pass — the gate is one-sided by direction
    assert compare_files(b, a, gate_comm=True).exit_code == 0


def test_gate_comm_gates_bench_bytes_per_step_leaves(tmp_path):
    doc_a = {"bench": "scaling", "cases": [
        {"backend": "threads", "nranks": 2, "bytes_per_step": 1000.0}]}
    doc_b = {"bench": "scaling", "cases": [
        {"backend": "threads", "nranks": 2, "bytes_per_step": 2000.0}]}
    a = _write(tmp_path, "a.json", doc_a)
    b = _write(tmp_path, "b.json", doc_b)
    assert compare_files(a, b).exit_code == 0
    result = compare_files(a, b, gate_comm=True)
    assert result.exit_code == 1
    assert "bytes_per_step" in result.regressions[0].name


def test_bench_gating_directions(tmp_path):
    a = _write(tmp_path, "a.json", _bench(t=1.0, speedup=1.5))
    slower = _write(tmp_path, "b.json", _bench(t=2.0, speedup=1.5))
    worse_speedup = _write(tmp_path, "c.json",
                           _bench(t=1.0, speedup=1.0))
    better = _write(tmp_path, "d.json", _bench(t=0.5, speedup=2.0))
    assert compare_files(a, slower).exit_code == 1
    assert compare_files(a, worse_speedup).exit_code == 1
    result = compare_files(a, better)
    assert result.exit_code == 0
    assert {r.status for r in result.rows if r.gated} == {"improved"}


def test_mixed_kinds_rejected(tmp_path):
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", _bench())
    with pytest.raises(ValueError, match="cannot compare"):
        compare_files(a, b)


# ----------------------------------------------------------------------
# the CLI surface
# ----------------------------------------------------------------------
def test_cli_compare_ok(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report())
    rc = main(["compare", a, a])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernels.getdt.seconds" in out
    assert "no regressions" in out


def test_cli_compare_regression_exits_nonzero(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report())
    b = _write(tmp_path, "b.json", _report(seconds_scale=2.0))
    assert main(["compare", a, b]) == 1
    assert "regression" in capsys.readouterr().out
    # a generous threshold waves the same diff through
    assert main(["compare", a, b, "--threshold", "2.0"]) == 0


def test_cli_gate_comm_flag(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report(comm_bytes=6400))
    b = _write(tmp_path, "b.json", _report(comm_bytes=12800))
    assert main(["compare", a, b]) == 0
    capsys.readouterr()
    assert main(["compare", a, b, "--gate-comm"]) == 1
    assert "comm.bytes_per_step" in capsys.readouterr().out


def test_cli_compare_bad_input_exits_2(tmp_path, capsys):
    a = _write(tmp_path, "a.json", _report())
    assert main(["compare", a, str(tmp_path / "missing.json")]) == 2
    assert "compare:" in capsys.readouterr().err
    b = _write(tmp_path, "b.json", _bench())
    assert main(["compare", a, b]) == 2


def test_cli_compare_real_run_reports(tmp_path, capsys):
    """End-to-end: two reports from the real CLI runner must diff
    cleanly (same problem, same backend → no gated regressions beyond
    timing noise handled by the min-seconds floor)."""
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["run", "--problem", "noh", "--nx", "12", "--ny", "12",
            "--max-steps", "5"]
    assert main(base + ["--report", a]) == 0
    assert main(base + ["--report", b]) == 0
    capsys.readouterr()
    rc = main(["compare", a, b, "--min-seconds", "10"])
    assert rc == 0
    assert "kernels." in capsys.readouterr().out

