"""One sweep record: the live event stream is the fleet's only log.

A scheduling fact is emitted once, on the sweep's ``EventBus``; the
schedule log, the merged sweep trace and the dashboard are views of
that stream.  The first half is a lint gate in the style of
``tests/parallel/test_single_protocol.py``: it parses
``repro/fleet`` and fails on a second recorder coming back (a list the
engine appends to, a pool attempt log, a per-job track, a ``decide``
channel beside ``emit``), and it parses all of ``repro`` and fails on
an event name the stream schema (``EVENT_FIELDS``) does not know.  It
walks the AST, so docstrings and comments may say what they like.

The second half drives real sweeps and checks each stream against the
schema and against the views read off it.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.api import RunConfig, submit
from repro.telemetry.live import (EVENT_FIELDS, LIFECYCLE_ONLY, fold_jobs,
                                  validate_live_stream)
from repro.telemetry.sweep_trace import RANK_STRIDE
from repro.utils.errors import StalledRankWarning

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
FLEET = SRC / "fleet"

#: names a second recorder would bring back
RECORDER_NAMES = ("attempt_log", "_track", "decide", "_decide", "_log")


def _name(node: ast.AST):
    for attr in ("id", "attr", "arg", "name"):
        value = getattr(node, attr, None)
        if isinstance(value, str):
            return value
    return None


def _second_recorders(tree: ast.AST):
    found = []
    for node in ast.walk(tree):
        if _name(node) in RECORDER_NAMES:
            found.append((node.lineno, _name(node)))
        if (isinstance(node, ast.Attribute) and node.attr == "append"
                and _name(node.value) == "schedule_log"):
            found.append((node.lineno, "schedule_log.append"))
    return sorted(found)


#: calls that record an event (the last three are the deleted second
#: channels; a name passed to one of them is still an event name)
RECORDING_CALLS = ("emit", "_emit", "_log", "_decide", "decide")


def _emitted_names(tree: ast.AST):
    """``(line, name)`` of every string-literal event name: passed to a
    recording call, positionally or as ``event=``, or the ``"event"``
    of a dict literal."""
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and _name(node.func) in RECORDING_CALLS):
            values = node.args[:1] + [kw.value for kw in node.keywords
                                      if kw.arg == "event"]
        elif isinstance(node, ast.Dict):
            values = [v for k, v in zip(node.keys, node.values)
                      if isinstance(k, ast.Constant) and k.value == "event"]
        else:
            continue
        found += [(node.lineno, v.value) for v in values
                  if isinstance(v, ast.Constant) and isinstance(v.value, str)]
    return sorted(found)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_fleet_keeps_no_second_recorder():
    found = [f"{path.name}:{line} ({what})"
             for path in sorted(FLEET.glob("*.py"))
             for line, what in _second_recorders(_parse(path))]
    assert not found, (
        "the sweep's event stream is its only record; found "
        + ", ".join(found))


def test_every_emitted_event_is_in_the_stream_schema():
    unknown = [f"{path.relative_to(SRC)}:{line} ({name!r})"
               for path in sorted(SRC.rglob("*.py"))
               for line, name in _emitted_names(_parse(path))
               if name not in EVENT_FIELDS]
    assert not unknown, (
        "event names missing from EVENT_FIELDS: " + ", ".join(unknown))


def test_the_checkers_themselves_catch_a_second_record():
    tree = ast.parse(
        "class Shadow:\n"
        "    def _log(self, event, **kw):\n"
        "        self.schedule_log.append({'event': event, **kw})\n"
        "    def run(self, decide):\n"
        "        self.attempt_log.append(1)\n"
        "        self._track[0] = {}\n"
        "        run_job(cfg, decide=self._decide)\n"
        "        self.bus.emit('job_start', job=0)\n"
        "        emit(event='pool_done')\n"
        "        self._emit(name)\n"
        "        self._log('group_rejected', jobs=[0])\n"
        "        log.append({'event': 'lane_refill', 'queued': 0})\n")
    assert [what for _, what in _second_recorders(tree)] == [
        "_log", "schedule_log.append", "decide", "attempt_log", "_track",
        "_decide", "decide", "_log"]
    assert [name for _, name in _emitted_names(tree)] == [
        "job_start", "pool_done", "group_rejected", "lane_refill"]


# ----------------------------------------------------------------------
# the fold
# ----------------------------------------------------------------------
def test_fold_reads_attempts_hits_and_checkpoints():
    stream = [
        {"event": "cache_hit", "t": 0.1, "job": 0, "key": "k"},
        {"event": "ensemble_batch", "t": 0.2, "jobs": [1], "carried": [],
         "fresh": [1], "width": 1, "queued": 0},
        {"event": "job_started", "t": 0.3, "job": 2, "attempt": 1,
         "worker": 0},
        {"event": "job_checkpointed", "t": 0.4, "job": 2, "step": 5},
        {"event": "worker_died", "t": 0.5, "job": 2, "worker": 0,
         "attempt": 1},
        {"event": "job_started", "t": 0.6, "job": 2, "attempt": 2,
         "worker": 1},
        {"event": "job_done", "t": 0.7, "job": 1, "nstep": 3,
         "wall_seconds": 0.5},
        {"event": "job_done", "t": 0.8, "job": 2, "nstep": 9,
         "wall_seconds": 0.2},
    ]
    folded = fold_jobs(stream)
    assert folded[0] == {"attempts": [], "cache_hit": 0.1,
                         "checkpoints": []}
    assert folded[1]["attempts"] == [
        {"worker": None, "start": 0.2, "end": 0.7, "outcome": "done"}]
    assert folded[2]["attempts"] == [
        {"worker": 0, "start": 0.3, "end": 0.5, "outcome": "died"},
        {"worker": 1, "start": 0.6, "end": 0.8, "outcome": "done"}]
    assert folded[2]["checkpoints"] == [(0.4, 5)]


# ----------------------------------------------------------------------
# real sweeps: every stream is valid, every view agrees with it
# ----------------------------------------------------------------------
def _cfg(**kw):
    base = dict(problem="sod", nx=24, ny=8, max_steps=8)
    base.update(kw)
    return RunConfig(**base)


def _kinds(handle):
    return [rec["event"] for rec in handle.events]


def _check_views(handle):
    """The stream is valid, the schedule log is the stream without its
    lifecycle-only records, and the summary counts that view."""
    validate_live_stream(handle.events)
    assert handle.schedule_log == [rec for rec in handle.events
                                   if rec["event"] not in LIFECYCLE_ONLY]
    assert handle.summary()["counts"]["events"] == \
        len(handle.schedule_log)


def test_pool_jobs_finish_with_their_step_count():
    configs = [_cfg(max_steps=5 + i) for i in range(4)]
    handle = submit(configs, workers=2, ensemble="off")
    results = handle.results()
    _check_views(handle)
    done = {rec["job"]: rec["nstep"] for rec in handle.events
            if rec["event"] == "job_done"}
    assert sorted(done) == [0, 1, 2, 3]
    for index, result in enumerate(results):
        assert isinstance(done[index], int)
        assert done[index] == result.nstep


def test_refill_sweep_records_every_pass_and_lane():
    configs = [_cfg(max_steps=3 + 2 * i) for i in range(5)]
    handle = submit(configs, batch_width=2)
    results = handle.results()
    assert all(r.backend == "ensemble" for r in results)
    _check_views(handle)
    kinds = _kinds(handle)
    assert kinds.count("lane_retired") == len(configs)
    assert kinds.count("lane_refill") >= 1
    passes = [rec for rec in handle.events
              if rec["event"] == "ensemble_batch"]
    assert len(passes) == kinds.count("lane_refill") + 1
    # every job enters exactly one pass fresh
    assert sorted(j for rec in passes for j in rec["fresh"]) == \
        list(range(len(configs)))
    for rec in passes:
        assert rec["jobs"] == rec["carried"] + rec["fresh"]
        assert rec["width"] == len(rec["jobs"]) <= 2
    retired = {rec["job"]: rec["nstep"] for rec in handle.events
               if rec["event"] == "lane_retired"}
    assert retired == {i: r.nstep for i, r in enumerate(results)}


def test_driven_boundary_pair_records_one_downgrade_per_job():
    configs = [RunConfig(problem="kidder", nx=8, ny=8, max_steps=steps)
               for steps in (3, 4)]
    handle = submit(configs)
    results = handle.results()
    assert all(r.backend == "serial" for r in results)
    _check_views(handle)
    assert [(rec["job"], rec["reason"]) for rec in handle.schedule_log
            if rec["event"] == "fast_path_downgrade"] == \
        [(0, "bc_driver"), (1, "bc_driver")]


def test_stall_sweep_stream_folds_to_a_died_attempt(tmp_path):
    handle = submit([_cfg(max_steps=10)], workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path), checkpoint_every=3,
                    stall_steps={0: 5}, heartbeat_timeout=0.4)
    with pytest.warns(StalledRankWarning):
        handle.results()
    _check_views(handle)
    assert "worker_stalled" in _kinds(handle)
    outcomes = [a["outcome"] for a in fold_jobs(handle.events)[0]["attempts"]]
    assert outcomes == ["died", "done"]


def test_kill_resume_trace_agrees_with_the_stream(tmp_path):
    path = tmp_path / "sweep.trace.json"
    configs = [_cfg(max_steps=20), _cfg(max_steps=16), _cfg(max_steps=12)]
    handle = submit(configs, workers=1, ensemble="off",
                    checkpoint_dir=str(tmp_path / "ckpt"),
                    checkpoint_every=5, fault_steps={0: 12, 2: 7},
                    trace_path=str(path))
    handle.results()
    _check_views(handle)
    trace = json.loads(path.read_text())["traceEvents"]
    last_worker = {rec["job"]: rec["worker"] for rec in handle.events
                   if rec["event"] == "job_started"}
    runs = {(e["tid"] - 1) // RANK_STRIDE: e["pid"] for e in trace
            if e.get("cat") == "run" and e["ph"] == "X"}
    assert runs == {job: 1 + worker for job, worker in last_worker.items()}
    arrows = [e for e in trace if e.get("cat") == "flow" and e["ph"] == "s"]
    assert len(arrows) == _kinds(handle).count("worker_died") == 2
