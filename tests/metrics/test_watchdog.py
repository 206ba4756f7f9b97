"""Heartbeats and stall detection: unit board tests plus the two
end-to-end stall scenarios the subsystem exists for — a wedged rank
thread, and a SIGKILLed rank process.  Nothing monitors the board but
the launchers' own wait loops, so the end-to-end runs *are* the
monitor's tests: flag-and-abort is
``test_threads_wedged_rank_trips_watchdog`` and
``test_processes_sigkilled_rank_reported_stalled``, a clean finish
with nothing flagged is ``test_no_watchdog_no_warning`` and
``test_healthy_run_under_a_watchdog_warns_nothing``.

Stall runs must end with (a) a :class:`StalledRankWarning` naming the
stalled rank and carrying every rank's last-seen step, and (b) a
raised error — never a silent hang at the next collective.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.hydro import Hydro
from repro.metrics.watchdog import (
    BOARD_COLS,
    LAUNCHED,
    Heartbeat,
    HeartbeatBoard,
    stall_message,
)
from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.errors import BookLeafError, StalledRankWarning


def test_board_shape_validation():
    with pytest.raises(ValueError, match="heartbeat board"):
        HeartbeatBoard(np.zeros((2, 3)))


def test_board_beats_and_ages():
    board = HeartbeatBoard.allocate(2)
    assert board.nranks == 2
    assert board.array[0, 0] == LAUNCHED  # launched, no step yet
    board.beat(1, 7)
    seen = board.last_seen()
    assert seen[1]["step"] == 7
    assert seen[0]["step"] == int(LAUNCHED)
    assert seen[1]["age_seconds"] < 1.0
    # nobody is stalled against a generous timeout
    assert board.stalled(timeout=60.0) == {}
    # rewind rank 0's stamp: it ages past the timeout
    board.array[0, 1] -= 10.0
    stalled = board.stalled(timeout=5.0)
    assert list(stalled) == [0]
    assert stalled[0]["age_seconds"] > 5.0


def test_heartbeat_observer_writes_own_row():
    board = HeartbeatBoard.allocate(2)

    class FakeHydro:
        nstep = 42

    Heartbeat(board, 1)(FakeHydro())
    assert board.array[1, 0] == 42.0
    assert board.array[0, 0] == LAUNCHED  # other rows untouched


def test_stall_message_carries_per_rank_steps():
    board = HeartbeatBoard.allocate(3)
    board.beat(0, 5)
    board.beat(1, 4)
    board.beat(2, 5)
    board.array[1, 1] -= 9.0
    message = stall_message(board.stalled(2.0), board, 2.0)
    assert "no heartbeat within 2.0s" in message
    assert "rank 1 (last step 4" in message
    assert "per-rank last-seen steps: [5, 4, 5]" in message


# ----------------------------------------------------------------------
# end-to-end stalls
# ----------------------------------------------------------------------
def _misbehave_on_rank(monkeypatch, rank, action, at_step=3):
    orig_step = Hydro.step

    def step(self, *a, **k):
        if getattr(self.comms, "rank", 0) == rank \
                and self.nstep >= at_step:
            action(self)
        return orig_step(self, *a, **k)

    monkeypatch.setattr(Hydro, "step", step)


def test_threads_wedged_rank_trips_watchdog(monkeypatch):
    """A rank that stops stepping (wedged, not crashed): the watchdog
    must abort the peers and the run must end with the stall named."""
    unwedge = threading.Event()
    _misbehave_on_rank(monkeypatch, 1, lambda hydro: unwedge.wait(60.0))
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, backend="threads",
                              watchdog_timeout=0.5)
    try:
        with pytest.warns(StalledRankWarning, match="rank 1") as warned:
            with pytest.raises(BookLeafError, match="run aborted"):
                driver.run(max_steps=20)
    finally:
        # The wedged rank thread outlives the run; let it fail on its
        # aborted comms now, or it wakes a minute later inside some
        # other test (and its step's allocations inside that test's
        # tracemalloc window).
        unwedge.set()
        ranks = [t for t in threading.enumerate()
                 if t.name.startswith("rank")]
        for thread in ranks:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in ranks)
    message = str(next(w.message for w in warned
                       if isinstance(w.message, StalledRankWarning)))
    assert "no heartbeat within 0.5s" in message
    assert "per-rank last-seen steps" in message


def test_processes_sigkilled_rank_reported_stalled(monkeypatch):
    """SIGKILL under the processes backend: the parent's watchdog must
    report the dead rank stalled (well within the timeout — death is
    detectable immediately) and the run must still fail cleanly."""
    def die(hydro):
        os.kill(os.getpid(), signal.SIGKILL)

    _misbehave_on_rank(monkeypatch, 1, die)
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, backend="processes",
                              watchdog_timeout=30.0)
    start = time.monotonic()
    with pytest.warns(StalledRankWarning, match="rank 1") as warned:
        with pytest.raises(BookLeafError, match="rank 1 failed"):
            driver.run(max_steps=20)
    # "within the timeout": a dead process is flagged on discovery,
    # not after the full 30 s heartbeat window
    assert time.monotonic() - start < 30.0
    message = str(next(w.message for w in warned
                       if isinstance(w.message, StalledRankWarning)))
    assert "per-rank last-seen steps" in message


def test_processes_wedged_rank_trips_watchdog(monkeypatch):
    """A rank process that stops stepping without dying: the parent's
    wait wakes at the heartbeat deadline, aborts the peer, SIGKILLs the
    wedged rank and fails the run with the stall named — whichever of
    the two ranks' last beats goes stale first."""
    _misbehave_on_rank(monkeypatch, 1, lambda hydro: time.sleep(3600))
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, backend="processes",
                              watchdog_timeout=0.5)
    start = time.monotonic()
    with pytest.warns(StalledRankWarning, match="no heartbeat within 0.5s"):
        with pytest.raises(BookLeafError, match="run aborted"):
            driver.run(max_steps=20)
    assert time.monotonic() - start < 30.0


def test_no_watchdog_no_warning(recwarn):
    """Without --watchdog-timeout a healthy run warns nothing."""
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, backend="threads")
    driver.run(max_steps=5)
    assert not [w for w in recwarn
                if isinstance(w.message, StalledRankWarning)]


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_healthy_run_under_a_watchdog_warns_nothing(recwarn, backend):
    """A timeout that is never reached changes nothing — including
    after the ranks return and stop beating."""
    setup = load_problem("noh", nx=16, ny=16)
    driver = DistributedHydro(setup, 2, backend=backend,
                              watchdog_timeout=30.0)
    assert driver.run(max_steps=5) == 5
    assert not [w for w in recwarn
                if isinstance(w.message, StalledRankWarning)]


@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("timeout", [0, -1.5])
def test_non_positive_timeout_is_rejected_at_build(backend, timeout):
    """``watchdog_timeout=0`` used to abort a healthy run with "no
    heartbeat within 0.0s"; it is a configuration error, said where
    the driver is built, in the fleet's ``heartbeat_timeout`` words."""
    setup = load_problem("noh", nx=16, ny=16)
    with pytest.raises(BookLeafError,
                       match="^watchdog_timeout must be > 0 seconds$"):
        DistributedHydro(setup, 2, backend=backend,
                         watchdog_timeout=timeout)
