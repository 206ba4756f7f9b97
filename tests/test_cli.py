"""Tests for the command-line front end."""

import numpy as np
import pytest

from repro.cli import main
from repro.problems import deck_path


def test_decks_listing(capsys):
    assert main(["decks"]) == 0
    out = capsys.readouterr().out
    for name in ("sod", "noh", "sedov", "saltzmann"):
        assert name in out


def test_info_prints_table1(capsys):
    assert main(["info"]) == 0
    assert "TABLE I" in capsys.readouterr().out


def test_run_problem(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "12", "--ny", "2",
               "--time-end", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "problem sod" in out
    assert "getq" in out        # timer breakdown printed


def test_run_deck(capsys):
    rc = main(["run", str(deck_path("sod")), "--time-end", "0.005"])
    assert rc == 0
    assert "problem sod" in capsys.readouterr().out


def test_run_deck_and_problem_conflict(capsys):
    rc = main(["run", str(deck_path("sod")), "--problem", "noh"])
    assert rc == 2


def test_run_nothing(capsys):
    assert main(["run"]) == 2


def test_run_nx_with_deck_rejected(capsys):
    rc = main(["run", str(deck_path("sod")), "--nx", "10"])
    assert rc == 2


def test_run_max_steps(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "10", "--ny", "2",
               "--max-steps", "3"])
    assert rc == 0
    assert "3 steps" in capsys.readouterr().out


def test_run_writes_vtk_and_history(tmp_path, capsys):
    vtk = tmp_path / "out.vtk"
    hist = tmp_path / "hist.csv"
    rc = main(["run", "--problem", "sod", "--nx", "10", "--ny", "2",
               "--max-steps", "2", "--log-every", "1",
               "--vtk", str(vtk), "--history", str(hist)])
    assert rc == 0
    assert vtk.exists()
    assert hist.exists()
    assert hist.read_text().count("\n") >= 2


@pytest.mark.parametrize("report,needle", [
    ("table1", "TABLE I"),
    ("table2", "TABLE II"),
    ("fig1", "FIG 1"),
    ("fig2a", "viscosity"),
    ("fig2b", "acceleration"),
    ("fig3", "8->16"),
    ("fig4a", "viscosity"),
    ("fig4b", "acceleration"),
    ("ablations", "ABLATIONS"),
])
def test_model_reports(capsys, report, needle):
    assert main(["model", report]) == 0
    assert needle in capsys.readouterr().out


def test_validate_sod(capsys):
    rc = main(["validate", "sod", "--resolutions", "16,32",
               "--time-end", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "convergence study: sod" in out
    assert "converging" in out


def test_validate_bad_problem():
    with pytest.raises(SystemExit):
        main(["validate", "sedov"])


def test_run_distributed(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--nranks", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ranks: 2" in out
    assert "comm:" in out


def test_run_distributed_summary_includes_comm_totals(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--nranks", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "halo exchanges" in out
    assert "reductions" in out
    assert "bytes" in out


def test_run_report_and_trace_serial(tmp_path, capsys):
    import json

    from repro.telemetry import validate_report, validate_trace

    report = tmp_path / "r.json"
    trace = tmp_path / "t.trace.json"
    rc = main(["run", "--problem", "noh", "--nx", "12", "--ny", "12",
               "--max-steps", "4", "--report", str(report),
               "--trace", str(trace)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote run report" in out and "wrote Chrome trace" in out
    rep = json.loads(report.read_text())
    validate_report(rep)
    assert rep["run"]["ranks"] == 1
    assert len(rep["steps"]) == 4
    validate_trace(json.loads(trace.read_text()))


def test_run_report_and_trace_distributed(tmp_path, capsys):
    import json

    from repro.telemetry import validate_report, validate_trace

    report = tmp_path / "r.json"
    trace = tmp_path / "t.trace.json"
    rc = main(["run", "--problem", "noh", "--nx", "16", "--ny", "16",
               "--max-steps", "4", "--nranks", "2",
               "--report", str(report), "--trace", str(trace)])
    assert rc == 0
    rep = json.loads(report.read_text())
    validate_report(rep)
    assert rep["run"]["ranks"] == 2
    assert rep["run"]["partition"] == "rcb"
    per_rank = rep["comm"]["per_rank"]
    assert len(per_rank) == 2
    assert all(e["messages"] > 0 and e["bytes"] > 0 for e in per_rank)
    tr = json.loads(trace.read_text())
    validate_trace(tr)
    assert {e["tid"] for e in tr["traceEvents"]} == {0, 1}


def test_model_table2_measured(capsys):
    rc = main(["model", "table2-measured", "--nx", "12", "--steps", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "viscosity" in out
    assert "measured" in out and "model" in out


def test_run_nranks_flag(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--nranks", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ranks: 2" in out
    assert "threads" in out


def test_run_non_positive_watchdog_timeout_is_one_line(capsys):
    """``--watchdog-timeout 0`` used to start the run and abort it with
    "no heartbeat within 0.0s"; it is refused up front in the words the
    driver (and the fleet's ``heartbeat_timeout``) uses."""
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem
    from repro.utils.errors import BookLeafError

    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--nranks", "2",
               "--watchdog-timeout", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    with pytest.raises(BookLeafError) as refused:
        DistributedHydro(load_problem("sod", nx=16, ny=4), 2,
                         watchdog_timeout=0)
    assert captured.err.splitlines() == [str(refused.value)]


def test_run_ranks_alias_now_errors(capsys):
    """The --ranks deprecation window has closed: the alias refuses
    with a structured error instead of warning and mapping."""
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--ranks", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "'--ranks' was removed" in captured.err
    assert "ranks: 2" not in captured.out


def test_run_ensemble_subcommand_is_retired(capsys):
    rc = main(["run-ensemble", "--problem", "sod", "--lanes", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bookleaf: option "
                                   "'bookleaf run-ensemble' was removed; "
                                   "use 'bookleaf fleet --sweep/--lanes'")


def test_trace_allocs_non_serial_warns_and_ignores(capsys):
    """--trace-allocs only instruments the serial backend; asking for
    it elsewhere must say so instead of silently doing nothing."""
    rc = main(["run", "--problem", "noh", "--nx", "16", "--ny", "16",
               "--max-steps", "2", "--nranks", "2", "--trace-allocs"])
    assert rc == 0
    assert "--trace-allocs is serial-only" in capsys.readouterr().err


def test_run_metrics_stream_and_prometheus(tmp_path, capsys):
    import json

    ndjson = tmp_path / "m.ndjson"
    prom = tmp_path / "m.prom"
    rc = main(["run", "--problem", "noh", "--nx", "12", "--ny", "12",
               "--max-steps", "6", "--metrics", str(ndjson),
               "--metrics-every", "3", "--metrics-prom", str(prom)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics records" in out
    assert "energy drift" in out
    rows = [json.loads(l) for l in ndjson.read_text().splitlines()]
    assert [r["nstep"] for r in rows] == [0, 3, 6]
    assert "bookleaf_energy_drift" in prom.read_text()


def test_run_metrics_prom_alone_enables_probe(tmp_path, capsys):
    prom = tmp_path / "m.prom"
    rc = main(["run", "--problem", "noh", "--nx", "12", "--ny", "12",
               "--max-steps", "3", "--metrics-prom", str(prom)])
    assert rc == 0
    assert prom.exists()


def test_run_ranks_alias_never_runs(capsys):
    """The removed alias must not execute any physics — only --nranks
    drives the run."""
    base = ["run", "--problem", "sod", "--nx", "16", "--ny", "4",
            "--max-steps", "3"]
    assert main(base + ["--ranks", "2"]) == 2
    captured = capsys.readouterr()
    assert "comm:" not in captured.out
    assert main(base + ["--nranks", "2"]) == 0
    assert "ranks: 2" in capsys.readouterr().out


def test_run_ranks_alias_error_names_replacement(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--max-steps", "3", "--ranks", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'--ranks' was removed" in err
    assert "'--nranks'" in err
    assert "docs/FLEET.md" in err


def test_run_ranks_and_nranks_conflict(capsys):
    rc = main(["run", "--problem", "sod", "--nx", "16", "--ny", "4",
               "--ranks", "2", "--nranks", "2"])
    assert rc == 2


def test_run_processes_backend(capsys):
    rc = main(["run", "--problem", "noh", "--nx", "16", "--ny", "16",
               "--max-steps", "3", "--nranks", "2",
               "--backend", "processes"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "ranks: 2 (rcb, processes)" in out
    assert "halo exchanges" in out


def test_run_unknown_backend_fails(capsys):
    from repro.utils.errors import BookLeafError

    with pytest.raises(BookLeafError, match="unknown comm backend"):
        main(["run", "--problem", "noh", "--nx", "12", "--ny", "12",
              "--nranks", "2", "--backend", "mpi"])


def test_problems_list(capsys):
    assert main(["problems", "list"]) == 0
    out = capsys.readouterr().out
    from repro.problems import problem_names

    for name in problem_names():
        assert name in out
    assert "Kidder" in out          # summaries printed too


def test_problems_list_json(capsys):
    import json

    assert main(["problems", "list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    from repro.problems import problem_names

    assert [row["name"] for row in rows] == problem_names()
    assert all(row["settings"] for row in rows)


def test_problems_describe(capsys):
    assert main(["problems", "describe", "sedov"]) == 0
    out = capsys.readouterr().out
    assert "sedov:" in out
    assert "energy" in out and "float" in out
    assert "default=0.657" in out
    assert "reference:" in out and "acceptance:" in out


def test_problems_describe_json(capsys):
    import json

    assert main(["problems", "describe", "noh", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "noh"
    names = [s["name"] for s in doc["settings"]]
    assert "subzonal_kappa" in names


def test_problems_describe_unknown(capsys):
    assert main(["problems", "describe", "vortex"]) == 2
    err = capsys.readouterr().err
    assert "unknown problem" in err and "sod" in err


# ----------------------------------------------------------------------
# bookleaf fleet — the sweep scheduler front end
# ----------------------------------------------------------------------
def test_fleet_sweep_runs_and_caches(tmp_path, capsys):
    args = ["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
            "--max-steps", "6", "--sweep", "max_steps=6,8",
            "--cache-dir", str(tmp_path / "cache"),
            "--summary", str(tmp_path / "sweep.json")]
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert "job 0 (max_steps=6)" in cold
    assert "2 job(s): 0 from cache" in cold
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert "2 from cache" in warm and "cached" in warm
    import json

    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["fleet_sweep"] == 1
    assert all(j["cache_hit"] for j in doc["jobs"])


def test_fleet_zero_checkpoint_cadence_is_one_line(tmp_path, capsys):
    rc = main(["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
               "--max-steps", "4", "--sweep", "max_steps=3,4",
               "--checkpoint-dir", str(tmp_path),
               "--checkpoint-every", "0"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "fleet: checkpoint_every must be >= 1"]


def test_fleet_control_sweep_batches(capsys):
    rc = main(["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
               "--max-steps", "5", "--sweep", "cq1=0.3,0.5,0.7"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(cq1=0.5)" in out
    assert "3 on the batched fast path" in out


def test_fleet_metrics_defaults_probe_cadence(tmp_path, capsys):
    """--metrics alone must yield a non-empty merged stream: the
    per-job probe cadence defaults on, exactly as `run --metrics`."""
    import json

    ndjson = tmp_path / "m.ndjson"
    prom = tmp_path / "f.prom"
    rc = main(["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
               "--max-steps", "12", "--sweep", "max_steps=12,14",
               "--metrics", str(ndjson), "--prom", str(prom)])
    assert rc == 0
    rows = [json.loads(l) for l in ndjson.read_text().splitlines()]
    assert rows, "merged metrics stream came out empty"
    assert {r["job"] for r in rows} == {0, 1}
    assert any(r["nstep"] == 10 for r in rows)  # default cadence 10
    assert "bookleaf_fleet_jobs_total 2" in prom.read_text()


def test_fleet_control_and_mesh_sweep_batches_per_mesh(capsys):
    rc = main(["fleet", "--problem", "sod", "--max-steps", "4",
               "--sweep", "cq1=0.3,0.5", "--sweep", "nx=8,16"])
    assert rc == 0
    assert "4 job(s): 0 from cache, 4 on the batched fast path" in \
        capsys.readouterr().out


def test_fleet_needs_problem_or_deck(capsys):
    rc = main(["fleet", "--sweep", "cq1=0.3,0.5"])
    assert rc == 2


def test_fleet_observability_flags(tmp_path, capsys):
    """--events/--trace/--dashboard/--watch produce their artefacts
    and the stream/trace validate."""
    import json

    from repro.telemetry.live import read_events, validate_live_stream
    from repro.telemetry.trace import validate_trace

    events = tmp_path / "events.ndjson"
    trace = tmp_path / "sweep.trace.json"
    dash = tmp_path / "sweep.html"
    rc = main(["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
               "--max-steps", "6", "--sweep", "max_steps=6,8,10",
               "--no-ensemble", "--watch",
               "--events", str(events), "--trace", str(trace),
               "--dashboard", str(dash)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote live event stream" in out
    assert "wrote merged sweep trace" in out
    assert "wrote sweep dashboard" in out
    stream = read_events(str(events))
    validate_live_stream(stream)
    assert [r["event"] for r in stream][0] == "sweep_started"
    validate_trace(json.loads(trace.read_text()))
    assert dash.read_text().lstrip().lower().startswith("<!doctype")


def test_fleet_profile_dir(tmp_path, capsys):
    rc = main(["fleet", "--problem", "sod", "--nx", "16", "--ny", "8",
               "--max-steps", "30", "--lanes", "2", "--no-ensemble",
               "--profile-dir", str(tmp_path / "prof")])
    assert rc == 0
    assert "job profile(s)" in capsys.readouterr().out
    assert (tmp_path / "prof" / "sweep.folded").exists()


def test_run_profile_flag(tmp_path, capsys):
    rc = main(["run", "--problem", "sod", "--max-steps", "20",
               "--profile", str(tmp_path / "run.folded")])
    assert rc == 0
    assert "wrote collapsed-stack profile" in capsys.readouterr().out
    assert (tmp_path / "run.folded").exists()


def test_compare_gate_outliers_flag(tmp_path, capsys):
    import json

    jobs = [{"index": i, "key": f"k{i}", "cache_hit": False,
             "problem": "sod", "deck": None, "nx": 16, "ny": 8,
             "nranks": 1, "backend": "serial", "nstep": 10,
             "wall_seconds": 1.0, "steps_per_sec": 10.0,
             "kernel_seconds": 0.8, "comm_bytes": None,
             "digest": "d" * 64} for i in range(5)]
    clean = {"fleet_sweep": 1, "jobs": jobs,
             "counts": {"jobs": 5, "cache_hits": 0,
                        "ensemble_jobs": 0}, "wall_seconds": 5.0}
    slow = json.loads(json.dumps(clean))
    slow["jobs"][4]["wall_seconds"] = 90.0
    slow["jobs"][4]["steps_per_sec"] = 0.1
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(clean))
    pb.write_text(json.dumps(slow))
    assert main(["compare", str(pa), str(pb)]) == 0
    capsys.readouterr()
    assert main(["compare", str(pa), str(pb),
                 "--gate-outliers"]) == 1
    assert "anomalies.harmful" in capsys.readouterr().out
