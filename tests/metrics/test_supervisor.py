"""The one fork supervisor under both launchers.

Ranks (``backend="processes"``) and fleet pool workers fork, report and
die over the same pipes (:class:`repro.metrics.watchdog.Supervisor`).
These tests drive the supervisor alone, then the launchers where they
lean on it: a missing ``os.fork``, a worker that dies while idle, and
ranks forked from inside a pool worker.
"""

import os
import signal
import time

import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import WorkerPool, job_key, make_jobs, state_digest
from repro.metrics.watchdog import Supervisor, read_frames, send_frame
from repro.utils.errors import BookLeafError


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


def _talk(reply, *frames):
    for frame in frames:
        send_frame(reply, frame)


def _sleep(reply, seconds):
    time.sleep(seconds)


def _fail(reply):
    send_frame(reply, "about to fail")
    raise RuntimeError("exits 1")


def _echo(reply, jobs):
    for doc in read_frames(jobs):
        send_frame(reply, ("echo", doc))


def _wait_all(sup):
    frames, exits = [], {}
    while sup.children:
        sup.wait((), lambda k, f: frames.append((k, f)),
                 lambda k, code, killed: exits.update({k: (code, killed)}))
    return frames, exits


@pytest.fixture
def supervisor():
    """``supervisor(rows, timeout)``: a Supervisor whose children are
    killed and reaped when the test ends, passed or not."""
    made = []

    def make(rows, timeout=None):
        made.append(Supervisor(rows, timeout))
        return made[-1]

    yield make
    for sup in made:
        sup.close()


def test_frames_then_one_exit_code_per_child(supervisor):
    sup = supervisor(3)
    big = bytes(3 << 20)  # several reads, framed back whole
    sup.fork(0, _talk, "a", {"big": big})
    sup.fork(1, _fail)
    sup.fork(2, _sleep, 60)
    sup.kill(2)
    frames, exits = _wait_all(sup)
    assert [f for k, f in frames if k == 0] == ["a", {"big": big}]
    assert [f for k, f in frames if k == 1] == ["about to fail"]
    assert exits == {0: (0, False), 1: (1, False),
                     2: (-signal.SIGKILL, True)}


def test_job_pipe_in_and_its_eof_as_the_cue_to_leave(supervisor):
    sup = supervisor(1)
    sup.fork(0, _echo, inbox=True)
    got, exits = [], {}
    for doc in ({"pos": 1}, {"pos": 2}):
        sup.send(0, doc)
        while len(got) < doc["pos"]:
            sup.wait((), lambda k, f: got.append(f), None)
    assert got == [("echo", {"pos": 1}), ("echo", {"pos": 2})]
    os.close(sup.children[0].inbox)  # what the parent's death does
    sup.children[0].inbox = None
    while sup.children:
        sup.wait((), None, lambda k, code, killed: exits.update({k: code}))
    assert exits == {0: 0}  # it left by itself


def _late_echo(reply, jobs):
    time.sleep(0.5)
    send_frame(reply, "late")
    _echo(reply, jobs)


def _never(*_):
    raise AssertionError("no frame or exit expected")


def test_a_stale_row_wakes_the_wait_at_its_deadline(supervisor):
    sup = supervisor(1, timeout=0.1)
    sup.fork(0, _late_echo, inbox=True)
    got, exits = [], {}
    t0 = time.monotonic()
    stale = {}
    while not stale:
        stale = sup.wait([0], _never, _never)
    assert list(stale) == [0] and stale[0]["age_seconds"] > 0.1
    assert time.monotonic() - t0 < 0.5  # woke by the deadline
    # left out of ``watched``, the row sets no deadline: only the late
    # frame wakes the wait
    assert sup.wait([], lambda k, f: got.append(f), _never) == {}
    assert got == ["late"]
    sup.send(0, "again")  # a new job: the row reads launched now
    assert sup.board.last_seen()[0]["step"] == -1
    stale = {}
    while not stale:
        stale = sup.wait([0], lambda k, f: got.append(f), _never)
    assert got == ["late", ("echo", "again")]
    # a killed child is not watched: its EOF ends the wait
    sup.kill(0)
    assert sup.wait([0], _never, lambda k, code, killed:
                    exits.update({k: (code, killed)})) == {}
    assert exits == {0: (-signal.SIGKILL, True)}
    assert sup.children == {}


def test_without_fork_both_launchers_name_the_remedy(monkeypatch,
                                                     tmp_path):
    monkeypatch.delattr(os, "fork")
    config = RunConfig(problem="sod", nx=8, ny=2, max_steps=2)
    with pytest.raises(BookLeafError, match="workers=0") as exc:
        submit([config], workers=1, ensemble="off",
               cache_dir=str(tmp_path)).results()
    assert "backend='threads'" in str(exc.value)
    with pytest.raises(BookLeafError, match="backend='threads'"):
        run(config.replace(nx=16, ny=4, nranks=2, backend="processes"))


def test_a_worker_dead_while_idle_costs_no_attempt(tmp_path):
    events = []
    pool = WorkerPool(1, str(tmp_path),
                      emit=lambda event, **kw: events.append(event))
    pid = pool.supervisor.children[0].pid
    os.kill(pid, signal.SIGKILL)
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # dead, not reaped
    jobs = make_jobs([RunConfig(problem="sod", nx=8, ny=2, max_steps=3)])
    jobs[0].metadata["key"] = job_key(jobs[0].config)
    done = pool.run(jobs)
    assert done == {0: jobs[0].metadata["key"]}
    assert jobs[0].attempts == 1
    assert "worker_died" not in events and "job_retried" not in events
    assert events.count("job_done") == 1


def test_a_pooled_rank_job_forks_its_ranks_inside_the_worker(tmp_path):
    config = RunConfig(problem="sod", nx=24, ny=8, max_steps=10, nranks=2,
                       backend="processes")
    inline = run(config)
    pooled = submit([config, config.replace(max_steps=12)], workers=1,
                    ensemble="off", cache_dir=str(tmp_path)).results()
    assert [r.nstep for r in pooled] == [10, 12]
    assert _digest(pooled[0]) == _digest(inline)
    # every worker and every rank was reaped: nothing left to wait for
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
