"""Backend equivalence and failure-propagation tests.

The acceptance contract of the pluggable-backend redesign: the
``threads`` and ``processes`` backends are *bit-identical* to each
other (same summation order, same counters, same spans), both match
the serial run to round-off, and a failing or killed rank aborts the
whole run cleanly with the right rank named.
"""

import json
import os
import signal
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.hydro import Hydro
from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.errors import BookLeafError

#: every field the gather assembles
FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "cs2", "q",
          "cell_mass", "volume", "corner_mass", "corner_volume")

CASES = {
    "sod": dict(nx=24, ny=4),
    "noh": dict(nx=16, ny=16),
}


def _run(problem, nranks, backend, max_steps=20, trace=False):
    setup = load_problem(problem, **CASES[problem])
    driver = DistributedHydro(setup, nranks, backend=backend, trace=trace)
    driver.run(max_steps=max_steps)
    return driver


@pytest.mark.parametrize("nranks", [2, 4])
@pytest.mark.parametrize("problem", ["sod", "noh"])
def test_threads_processes_bit_identical(problem, nranks):
    threads = _run(problem, nranks, "threads")
    procs = _run(problem, nranks, "processes")
    assert procs.nstep == threads.nstep
    assert procs.time == threads.time
    g_threads, g_procs = threads.gather(), procs.gather()
    for name in FIELDS:
        assert np.array_equal(getattr(g_threads, name),
                              getattr(g_procs, name)), name
    # identical Typhon counters, rank by rank
    assert procs.per_rank_comm() == threads.per_rank_comm()
    assert procs.comm_totals() == threads.comm_totals()


@pytest.mark.parametrize("problem", ["sod", "noh"])
def test_backends_match_serial_to_roundoff(problem):
    setup = load_problem(problem, **CASES[problem])
    serial = setup.make_hydro()
    serial.run(max_steps=20)
    for backend in ("threads", "processes"):
        driver = _run(problem, 2, backend)
        assert driver.nstep == serial.nstep
        g = driver.gather()
        np.testing.assert_allclose(g.rho, serial.state.rho, rtol=1e-10)
        np.testing.assert_allclose(g.e, serial.state.e, rtol=1e-10)
        np.testing.assert_allclose(g.u, serial.state.u, atol=1e-10)
        np.testing.assert_allclose(g.x, serial.state.x, atol=1e-11)


def test_span_streams_identical_across_backends():
    threads = _run("noh", 2, "threads", max_steps=10, trace=True)
    procs = _run("noh", 2, "processes", max_steps=10, trace=True)
    sig_threads = [(s.name, s.rank) for s in threads.merged_spans()]
    sig_procs = [(s.name, s.rank) for s in procs.merged_spans()]
    assert sig_threads == sig_procs
    assert any(name.startswith("typhon.") for name, _ in sig_procs)


def test_serial_backend_equals_plain_hydro():
    setup = load_problem("sod", **CASES["sod"])
    plain = setup.make_hydro()
    plain.run(max_steps=20)
    driver = _run("sod", 1, "serial")
    g = driver.gather()
    for name in FIELDS:
        assert np.array_equal(getattr(g, name),
                              getattr(plain.state, name)), name


@pytest.mark.parametrize("backend, nranks", [("serial", 1), ("threads", 2)])
def test_second_run_leg_continues_the_same_ranks(backend, nranks):
    """Observers are attached once, where the rank is built, and the
    rank keeps its step rows: a second ``run`` leg neither stacks
    another heartbeat on the live ranks nor hands back only its own
    leg's rows."""
    setup = load_problem("noh", **CASES["noh"])
    driver = DistributedHydro(setup, nranks, backend=backend)
    attached = [len(h.observers) for h in driver.hydros]
    assert driver.run(max_steps=3) == 3
    assert driver.run(max_steps=3) == 6
    assert [len(h.observers) for h in driver.hydros] == attached
    assert [row["nstep"] for row in driver.result.step_rows] == [
        1, 2, 3, 4, 5, 6]


def _fail_on_rank(monkeypatch, rank_to_fail, action):
    """Patch Hydro.step so the given rank misbehaves at step 3.

    The patch is installed before ``run``; the processes backend forks
    at execute time, so children inherit it.
    """
    orig_step = Hydro.step

    def step(self, *a, **k):
        if getattr(self.comms, "rank", 0) == rank_to_fail \
                and self.nstep >= 3:
            action(self)
        return orig_step(self, *a, **k)

    monkeypatch.setattr(Hydro, "step", step)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_rank_failure_aborts_run_and_names_rank(monkeypatch, backend):
    def boom(hydro):
        raise RuntimeError("injected fault")

    setup = load_problem("noh", **CASES["noh"])
    driver = DistributedHydro(setup, 2, backend=backend)
    _fail_on_rank(monkeypatch, 1, boom)
    with pytest.raises(BookLeafError, match="rank 1 failed") as exc:
        driver.run(max_steps=20)
    assert "injected fault" in str(exc.value)


def test_threads_failure_chains_original_traceback(monkeypatch):
    """Satellite fix: the original exception rides along as __cause__."""
    def boom(hydro):
        raise RuntimeError("injected fault")

    setup = load_problem("noh", **CASES["noh"])
    driver = DistributedHydro(setup, 2, backend="threads")
    _fail_on_rank(monkeypatch, 1, boom)
    with pytest.raises(BookLeafError) as exc:
        driver.run(max_steps=20)
    assert isinstance(exc.value.__cause__, RuntimeError)
    assert "injected fault" in str(exc.value.__cause__)


def test_processes_failure_carries_remote_traceback(monkeypatch):
    """Tracebacks don't pickle; the text must still reach the caller."""
    from repro.parallel.backends.processes import RemoteRankError

    def boom(hydro):
        raise RuntimeError("injected fault")

    setup = load_problem("noh", **CASES["noh"])
    driver = DistributedHydro(setup, 2, backend="processes")
    _fail_on_rank(monkeypatch, 1, boom)
    with pytest.raises(BookLeafError) as exc:
        driver.run(max_steps=20)
    cause = exc.value.__cause__
    assert isinstance(cause, RemoteRankError)
    assert "Traceback" in str(cause)
    assert "injected fault" in str(cause)


def test_killed_rank_process_aborts_cleanly(monkeypatch):
    """SIGKILL a child rank mid-run: the survivors must not hang, and
    the error must name the rank that died — not a rank that merely
    saw its pipe close."""
    def die(hydro):
        os.kill(os.getpid(), signal.SIGKILL)

    setup = load_problem("noh", **CASES["noh"])
    driver = DistributedHydro(setup, 2, backend="processes")
    _fail_on_rank(monkeypatch, 1, die)
    with pytest.raises(BookLeafError, match="rank 1 failed") as exc:
        driver.run(max_steps=20)
    assert "terminated abnormally" in str(exc.value)


#: a fresh interpreter whose rank 1 is SIGKILLed while it is blocked
#: writing a 32 MiB report: a watcher thread in the rank reads the
#: kernel's view of its own threads (``/proc/<pid>/task/*/syscall``)
#: and kills the process once one sits in ``write`` with over 1 MiB to
#: go, so the parent is left holding part of a frame.  Prints the
#: error and the exception types of its cause chain as JSON.
KILLED_MID_REPORT = """
import json, os, signal, sys, threading, time
from dataclasses import replace
import numpy as np
from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.errors import BookLeafError

WRITE = sys.argv[1]

def kill_once_writing():
    tasks = f"/proc/{os.getpid()}/task"
    while True:
        for tid in os.listdir(tasks):
            try:
                with open(f"{tasks}/{tid}/syscall") as fh:
                    call = fh.read().split()
            except OSError:
                continue
            if call[0] == WRITE and int(call[3], 16) > 1 << 20:
                os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(1e-4)

real_report = DistributedHydro.report

def report(self, hydro):
    rep = real_report(self, hydro)
    if rep.rank != 1:
        return rep
    threading.Thread(target=kill_once_writing, daemon=True).start()
    return replace(rep, metrics_rows=[np.zeros(4 << 20)])

DistributedHydro.report = report
driver = DistributedHydro(load_problem("sod", nx=16, ny=4), 2,
                          backend="processes")
try:
    driver.run(max_steps=3)
    out = {"error": None}
except BookLeafError as exc:
    chain, cause = [], exc
    while cause is not None:
        chain.append(type(cause).__name__)
        cause = cause.__cause__ or cause.__context__
    out = {"error": str(exc), "chain": chain}
print(json.dumps(out))
"""

#: ``write``'s syscall number, as ``/proc/<pid>/task/*/syscall`` shows it
WRITE_SYSCALL = {"x86_64": "1", "aarch64": "64"}


def test_rank_killed_mid_report_is_named_and_its_frame_dropped():
    """SIGKILL a rank part-way through writing a multi-MB report: the
    run must end — within the timeout below, no hang on the partial
    message — with the structured error naming that rank, and the
    partial frame must never reach the unpickler."""
    write = WRITE_SYSCALL.get(os.uname().machine)
    if write is None or not os.path.exists(f"/proc/{os.getpid()}/syscall"):
        pytest.skip("needs Linux /proc/<pid>/task/*/syscall")
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", KILLED_MID_REPORT, write],
        env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the ranks too
        proc.communicate()
        pytest.fail("the run hung on a rank killed mid-report")
    assert proc.returncode == 0, err[-2000:]
    doc = json.loads(out.splitlines()[-1])
    assert doc["error"] is not None, "the run passed with a rank killed"
    assert doc["error"].startswith("rank 1 failed: ")
    assert "terminated abnormally (exitcode -9)" in doc["error"]
    assert doc["chain"] == ["BookLeafError", "RemoteRankError"]


def test_the_one_verdict_both_launchers_call():
    """``judge_ranks`` alone: the primary-failure choice and the place
    of a stall in it, without launching anything."""
    from repro.metrics.watchdog import HeartbeatBoard
    from repro.parallel.distributed import judge_ranks
    from repro.utils.errors import CommError, StalledRankWarning

    board = HeartbeatBoard.allocate(3)
    assert judge_ranks([], {}, board, None) is None
    # a real error beats the CommError cascade; ties go to the lowest rank
    cascade = [(0, CommError("peer failed")), (2, RuntimeError("late")),
               (1, RuntimeError("first"))]
    with pytest.raises(BookLeafError,
                       match=r"^rank 1 failed: \[RuntimeError\] first$") as exc:
        judge_ranks(cascade, {}, board, None)
    assert exc.value.__cause__ is cascade[2][1]
    with pytest.raises(BookLeafError, match="^rank 0 failed: peer failed$"):
        judge_ranks(cascade[:1], {}, board, None)
    # a wedge never raises: with only the cascade left, the stall is it
    stalled = {1: board.last_seen()[1]}
    with pytest.warns(StalledRankWarning, match="rank 1"):
        with pytest.raises(BookLeafError, match="^run aborted: watchdog: "):
            judge_ranks(cascade[:1], stalled, board, 0.5)
    # ... but a rank known to have died is still the one reported
    with pytest.warns(StalledRankWarning, match="rank 1"):
        with pytest.raises(BookLeafError, match="^rank 1 failed"):
            judge_ranks(cascade, stalled, board, 0.5)


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_wait_attribution_names_the_slow_neighbour(monkeypatch, backend):
    """With tracing on, every comm span says how long it slept and on
    whom.  Rank 2 of a 3-rank strip dawdles between the dt reduction
    and its kinematic post; rank 1 (neighbours 0 and 2) must charge
    the wait to rank 2's ``kin`` section, not to the punctual rank 0."""
    import time

    import repro.core.hydro as hydro_module

    nap = 0.1
    real_lagstep = hydro_module.lagstep

    def slow_lagstep(state, *args, comms=None, **kwargs):
        if comms.rank == 2:
            time.sleep(nap)
        return real_lagstep(state, *args, comms=comms, **kwargs)

    # installed before ``run``: the processes backend forks at execute
    # time, so the children inherit the patch
    monkeypatch.setattr(hydro_module, "lagstep", slow_lagstep)
    setup = load_problem("sod", nx=24, ny=6)
    driver = DistributedHydro(setup, 3, backend=backend, trace=True)
    assert sorted(driver.subdomains[1].recv_nodes) == [0, 2]
    steps = driver.run(max_steps=6)
    comm_spans = [s for s in driver.merged_spans() if s.cat == "comm"]
    assert all("wait_s" in s.args and "waited_on" in s.args
               for s in comm_spans)
    completes = [s for s in comm_spans if s.rank == 1
                 and s.name == "typhon.complete_kinematics"]
    assert len(completes) == steps
    for span in completes:
        assert span.args["waited_on"] == {"rank": 2, "leg": "kin"}
        assert span.args["wait_s"] > nap / 2
        assert span.args["wait_s"] <= span.dur_ns * 1e-9
