"""tools/bench_history.py: folding BENCH artifacts into one summary."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_history",
    Path(__file__).resolve().parents[2] / "tools" / "bench_history.py",
)
bench_history = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_history)


def _backends(seconds, backend="threads", samples=3):
    return {
        "bench": "comm-backend-comparison",
        "cases": [{"problem": "noh", "nx": 32, "ncell": 1024,
                   "runs": [{"backend": backend, "nranks": 4,
                             "seconds": seconds,
                             "seconds_per_step": seconds / 30,
                             "samples": samples,
                             "sample_seconds": [seconds] * samples}]}],
    }


def _scaling(comm_seconds, nranks=4, bytes_per_step=21962.0):
    return {
        "bench": "commplan-scaling",
        "cases": [{"backend": "threads", "nranks": nranks,
                   "comm_plan": "packed", "steps": 20,
                   "wall_seconds": comm_seconds * 3,
                   "comm_seconds": comm_seconds,
                   "bytes_per_step": bytes_per_step,
                   "messages_per_step": 15.8,
                   "efficiency": 0.2}],
        "packed_vs_legacy": {"nranks": nranks,
                             "message_reduction": 2.14},
        "mailbox": {"nranks": nranks, "ratio": 9.1},
    }


def _overlap(wall, comm, overlap, plan="overlap", nranks=4,
             bytes_per_step=21962.0, samples=2):
    return {
        "bench": "comm-overlap-scaling",
        "cases": [{"backend": "threads", "nranks": nranks,
                   "comm_plan": plan, "steps": 40,
                   "wall_seconds": wall,
                   "comm_seconds": comm,
                   "comm_overlap_seconds": overlap,
                   "bytes_per_step": bytes_per_step,
                   "messages_per_step": 15.8,
                   "efficiency": 0.25,
                   "samples": samples,
                   "sample_seconds": [wall] * samples}],
        "overlap_vs_packed": {"rungs": [{
            "backend": "threads", "nranks": nranks,
            "packed_comm_seconds": comm * 1.4,
            "overlap_comm_seconds": comm,
            "speedup": 1.05,
        }]},
        "mailbox": {"nranks": nranks, "ratio": 9.1},
    }


def _observability(t_off, t_profile, nx=64, samples=3):
    def rung(mode, seconds):
        row = {"mode": mode, "seconds": seconds, "samples": samples,
               "sample_seconds": [seconds] * samples, "nstep": 40}
        if mode != "off":
            row["overhead_frac"] = (seconds - t_off) / t_off
        return row
    return {
        "bench": "sweep-observability",
        "problem": "noh", "nx": nx, "max_steps": 40,
        "target_profile_overhead": 0.05,
        "rungs": [rung("off", t_off),
                  rung("trace", t_off * 1.1),
                  rung("profile", t_profile)],
    }


def test_backends_fold_keys_per_leg():
    summary = bench_history.merge([
        _backends(0.30, "threads"),
        _backends(0.25, "threads"),
        _backends(0.40, "processes"),
    ])
    runs = summary["benches"]["comm-backend-comparison"]["runs"]
    by_backend = {r["backend"]: r for r in runs}
    assert by_backend["threads"]["seconds"] == 0.25
    # two documents folded, each carrying 3 real timed samples
    assert by_backend["threads"]["documents"] == 2
    assert by_backend["threads"]["samples"] == 6
    assert by_backend["processes"]["seconds"] == 0.40


def test_scaling_fold_keeps_best_times_latest_volume():
    summary = bench_history.merge([
        _scaling(0.60, bytes_per_step=30000.0),
        _scaling(0.50, bytes_per_step=21962.0),   # faster, smaller
    ])
    section = summary["benches"]["commplan-scaling"]
    (run,) = section["runs"]
    assert run["comm_seconds"] == 0.50
    assert run["documents"] == 2
    # deterministic volume comes from the latest document, not min()
    assert run["bytes_per_step"] == 21962.0
    assert section["packed_vs_legacy"]["message_reduction"] == 2.14
    assert section["mailbox"]["ratio"] == 9.1


def test_scaling_summary_composes():
    first = bench_history.merge([_scaling(0.60)])
    folded = bench_history.merge([first, _scaling(0.50)])
    direct = bench_history.merge([_scaling(0.60), _scaling(0.50)])
    f = folded["benches"]["commplan-scaling"]["runs"][0]
    d = direct["benches"]["commplan-scaling"]["runs"][0]
    assert f["comm_seconds"] == d["comm_seconds"] == 0.50
    assert folded["documents_merged"] == direct["documents_merged"] == 2


def test_overlap_fold_keys_per_plan_and_keeps_best():
    summary = bench_history.merge([
        _overlap(1.20, 0.60, 0.030),
        _overlap(1.00, 0.55, 0.025),                  # faster
        _overlap(1.40, 0.80, 0.000, plan="packed"),   # other plan
    ])
    section = summary["benches"]["comm-overlap-scaling"]
    by_plan = {r["comm_plan"]: r for r in section["runs"]}
    assert by_plan["overlap"]["wall_seconds"] == 1.00
    assert by_plan["overlap"]["comm_seconds"] == 0.55
    assert by_plan["overlap"]["comm_overlap_seconds"] == 0.025
    assert by_plan["overlap"]["documents"] == 2
    assert by_plan["overlap"]["samples"] == 4
    assert by_plan["packed"]["wall_seconds"] == 1.40
    # duel + mailbox blocks ride along from the latest document
    (rung,) = section["overlap_vs_packed"]["rungs"]
    assert rung["overlap_comm_seconds"] == 0.80
    assert section["mailbox"]["ratio"] == 9.1


def test_overlap_summary_composes():
    first = bench_history.merge([_overlap(1.20, 0.60, 0.030)])
    folded = bench_history.merge([first, _overlap(1.00, 0.55, 0.025)])
    direct = bench_history.merge([_overlap(1.20, 0.60, 0.030),
                                  _overlap(1.00, 0.55, 0.025)])
    f = folded["benches"]["comm-overlap-scaling"]["runs"][0]
    d = direct["benches"]["comm-overlap-scaling"]["runs"][0]
    assert f["wall_seconds"] == d["wall_seconds"] == 1.00
    assert f["comm_overlap_seconds"] == d["comm_overlap_seconds"] == 0.025
    assert f["samples"] == d["samples"] == 4
    assert folded["documents_merged"] == direct["documents_merged"] == 2


def test_previous_summary_composes():
    """summary(old docs) + new doc == summary(all docs): history folds
    monotonically through the committed summary file."""
    first = bench_history.merge([_backends(0.30)])
    folded = bench_history.merge([first, _backends(0.25)])
    direct = bench_history.merge([_backends(0.30), _backends(0.25)])
    f = folded["benches"]["comm-backend-comparison"]["runs"][0]
    d = direct["benches"]["comm-backend-comparison"]["runs"][0]
    assert f["seconds"] == d["seconds"] == 0.25
    assert f["documents"] == d["documents"] == 2
    assert f["samples"] == d["samples"] == 6
    assert folded["documents_merged"] == direct["documents_merged"] == 2


def test_observability_fold_keeps_best_overhead():
    summary = bench_history.merge([
        _observability(0.50, 0.52),   # 4% profiler overhead
        _observability(0.48, 0.485),  # ~1% — the better claim
    ])
    runs = summary["benches"]["sweep-observability"]["runs"]
    by_mode = {r["mode"]: r for r in runs}
    assert by_mode["off"]["seconds"] == 0.48
    assert by_mode["profile"]["overhead_frac"] == pytest.approx(
        (0.485 - 0.48) / 0.48)
    assert by_mode["profile"]["documents"] == 2
    assert by_mode["profile"]["samples"] == 6
    section = summary["benches"]["sweep-observability"]
    assert section["target_profile_overhead"] == 0.05


def test_observability_summary_composes():
    first = bench_history.merge([_observability(0.50, 0.52)])
    folded = bench_history.merge([first, _observability(0.48, 0.485)])
    direct = bench_history.merge([_observability(0.50, 0.52),
                                  _observability(0.48, 0.485)])
    f = {r["mode"]: r
         for r in folded["benches"]["sweep-observability"]["runs"]}
    d = {r["mode"]: r
         for r in direct["benches"]["sweep-observability"]["runs"]}
    assert f["profile"]["seconds"] == d["profile"]["seconds"] == 0.485
    assert f["profile"]["documents"] == d["profile"]["documents"] == 2
    assert folded["documents_merged"] == direct["documents_merged"] == 2


def test_v1_summary_migrates_samples_to_documents():
    """A schema-v1 summary's ``samples`` counter (which really counted
    documents) becomes ``documents`` on refold; true sample totals
    restart from raw artifacts."""
    v1 = {
        "schema_version": 1,
        "documents_merged": 4,
        "benches": {"comm-backend-comparison": {"runs": [
            {"problem": "noh", "nx": 32, "backend": "threads",
             "nranks": 4, "seconds": 0.3, "samples": 4},
        ]}},
        "other": {},
    }
    summary = bench_history.merge([v1, _backends(0.25, "threads")])
    (run,) = summary["benches"]["comm-backend-comparison"]["runs"]
    assert run["documents"] == 5           # 4 migrated + 1 new
    assert run["samples"] == 3             # only the new doc's real count
    assert run["seconds"] == 0.25


def test_legacy_samples_list_counts_by_length():
    """Old artifacts stored the timed-seconds *list* under ``samples``;
    the fold counts its length instead of crashing."""
    doc = _backends(0.30, "threads")
    run = doc["cases"][0]["runs"][0]
    run["samples"] = run.pop("sample_seconds")
    summary = bench_history.merge([doc])
    (folded,) = summary["benches"]["comm-backend-comparison"]["runs"]
    assert folded["documents"] == 1
    assert folded["samples"] == 3


def test_unknown_bench_kept_verbatim():
    doc = {"bench": "novel-experiment", "whatever": [1, 2, 3]}
    summary = bench_history.merge([doc])
    assert summary["other"]["novel-experiment"] == doc


def test_main_writes_summary(tmp_path, capsys):
    a = tmp_path / "BENCH_a.json"
    a.write_text(json.dumps(_backends(0.30)))
    out = tmp_path / "BENCH_summary.json"
    rc = bench_history.main([str(a), "-o", str(out)])
    assert rc == 0
    assert "wrote" in capsys.readouterr().out
    summary = json.loads(out.read_text())
    assert summary["schema_version"] == \
        bench_history.SUMMARY_SCHEMA_VERSION
    assert "comm-backend-comparison" in summary["benches"]


def test_main_skips_unreadable_and_fails_when_all_bad(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_backends(0.30)))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = tmp_path / "s.json"
    assert bench_history.main([str(good), str(bad),
                               "-o", str(out)]) == 0
    assert "skipping" in capsys.readouterr().err
    assert bench_history.main([str(bad), "-o", str(out)]) == 2


def test_repo_artifacts_fold(tmp_path):
    """The committed BENCH files must flow through their adapters."""
    root = Path(__file__).resolve().parents[2]
    docs = [json.loads((root / name).read_text())
            for name in ("BENCH_backends.json", "BENCH_scaling.json",
                         "BENCH_observability.json")]
    summary = bench_history.merge(docs)
    assert len(summary["benches"]) == 3
    assert summary["other"] == {}
