"""Unit tests of the Typhon primitives on live ranks — the one
protocol class, over the in-process and the shared-memory transport."""

import math
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.parallel import typhon
from repro.utils.errors import CommError
from tests.parallel.conftest import (
    TRANSPORTS, both_transports, live_ranks, run_spmd,
)


def _exchange_kinematics(comm, state):
    """A whole exchange is its two halves — the seam has no other form."""
    comm.post_kinematics(state)
    return comm.complete_kinematics(state)


@both_transports
def test_exchange_kinematics_moves_ghost_data(ctx, subs, states, comms):
    # poison rank 0's ghost-only nodes, then exchange
    ghost = subs[0].recv_nodes[1]
    states[0].u[ghost] = -99.0
    run_spmd([
        lambda: _exchange_kinematics(comms[0], states[0]),
        lambda: _exchange_kinematics(comms[1], states[1]),
    ])
    src = subs[1].send_nodes[0]
    np.testing.assert_array_equal(states[0].u[ghost], states[1].u[src])
    assert not np.any(states[0].u[ghost] == -99.0)


@both_transports
def test_complete_node_arrays_sums_across_ranks(ctx, subs, states, comms):
    results = {}

    def work(r):
        partial = np.ones(subs[r].mesh.nnode) * (r + 1)
        comms[r].post_node_sums(states[r], partial)
        results[r] = comms[r].complete_node_sums(states[r], partial)[0]

    run_spmd([lambda: work(0), lambda: work(1)])
    # shared nodes got 1 + 2 = 3 on both ranks; private nodes keep own
    mine0 = subs[0].shared_nodes[1]
    mine1 = subs[1].shared_nodes[0]
    np.testing.assert_array_equal(results[0][mine0], 3.0)
    np.testing.assert_array_equal(results[1][mine1], 3.0)
    private0 = np.setdiff1d(np.arange(subs[0].mesh.nnode), mine0)
    np.testing.assert_array_equal(results[0][private0], 1.0)


@both_transports
def test_exchange_cell_arrays_refreshes_ghosts(ctx, subs, states, comms):
    arrays = [np.full(sub.cell_global.size, float(r * 10))
              for r, sub in enumerate(subs)]

    def work(r):
        comms[r].post_cell_arrays(arrays[r])
        comms[r].complete_cell_arrays(arrays[r])

    run_spmd([lambda: work(0), lambda: work(1)])
    ghosts0 = subs[0].recv_cells[1]
    np.testing.assert_array_equal(arrays[0][ghosts0], 10.0)
    owned0 = np.flatnonzero(subs[0].owned_cell_mask)
    np.testing.assert_array_equal(arrays[0][owned0], 0.0)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_packed_endpoint_lands_at_post(transport):
    """The reference schedule: a packed endpoint's post is the whole
    exchange, its complete hands back what is already there — and the
    interleaving guards hold on it exactly as on an overlap endpoint."""
    with live_ranks(transport, mode="packed") as (ctx, subs, states, comms):
        ghost = subs[0].recv_nodes[1]
        states[0].u[ghost] = -99.0
        run_spmd([lambda: comms[0].post_kinematics(states[0]),
                  lambda: comms[1].post_kinematics(states[1])])
        np.testing.assert_array_equal(
            states[0].u[ghost], states[1].u[subs[1].send_nodes[0]])
        assert sum(c.stats.halo_exchanges for c in comms) == 2
        with pytest.raises(CommError, match="already posted"):
            comms[0].post_kinematics(states[0])
        cells, nodes = comms[0].complete_kinematics(states[0])
        assert cells is comms[0].plan.halo_cells
        assert nodes is comms[0].plan.halo_nodes
        assert sum(c.stats.halo_exchanges for c in comms) == 2
        with pytest.raises(CommError, match="without a post"):
            comms[0].complete_kinematics(states[0])
        with pytest.raises(CommError, match="without a post"):
            comms[0].complete_node_sums(states[0])
        comms[1].complete_kinematics(states[1])


@both_transports
def test_allreduce_max(ctx, subs, states, comms):
    results = {}
    run_spmd([
        lambda: results.update(a=comms[0].allreduce_max(1.5)),
        lambda: results.update(b=comms[1].allreduce_max(7.25)),
    ])
    assert results["a"] == 7.25
    assert results["b"] == 7.25


@both_transports
def test_reduce_dt_globalises_cell_index(ctx, subs, states, comms):
    results = {}
    run_spmd([
        lambda: results.update(a=comms[0].reduce_dt([(0.5, "cfl", 3)])),
        lambda: results.update(b=comms[1].reduce_dt([(0.2, "div", 5)])),
    ])
    expect_cell = int(subs[1].cell_global[5])
    assert results["a"] == (0.2, "div", expect_cell)
    assert results["b"] == results["a"]


@both_transports
def test_abort_breaks_peer_out_of_collective(ctx, subs, states, comms):

    def failing():
        ctx.abort()

    def waiting():
        with pytest.raises(CommError):
            comms[1].allreduce_max(1.0)

    run_spmd([failing, waiting])


def test_traffic_matrix_symmetric_pairs():
    """The static estimate comes from the halo schedules, which only
    the in-process context keeps."""
    with live_ranks("in-process") as (ctx, subs, states, comms):
        matrix = ctx.traffic_matrix()
    assert matrix.shape == (2, 2)
    assert matrix[0, 1] > 0 and matrix[1, 0] > 0
    assert matrix[0, 0] == 0 and matrix[1, 1] == 0
    # the shared-node completion part is symmetric by construction
    shared_bytes = 3 * subs[0].shared_nodes[1].size * 8
    assert matrix[0, 1] >= shared_bytes
    assert matrix[1, 0] >= shared_bytes


@both_transports
def test_stats_accumulate(ctx, subs, states, comms):
    run_spmd([
        lambda: _exchange_kinematics(comms[0], states[0]),
        lambda: _exchange_kinematics(comms[1], states[1]),
    ])
    assert sum(c.stats.halo_exchanges for c in comms) == 2
    assert all(c.stats.bytes > 0 for c in comms)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_abort_wakes_a_blocked_waiter(transport):
    """A rank asleep in a split-phase wait (its neighbour never posts)
    must come out with CommError as soon as anyone aborts."""
    with live_ranks(transport) as (ctx, subs, states, comms):
        blocked = threading.Event()

        def waiting():
            comms[1].post_kinematics(states[1])
            blocked.set()
            comms[1].complete_kinematics(states[1])

        def failing():
            assert blocked.wait(10.0)
            ctx.abort()

        with pytest.raises(CommError, match="peer rank failed"):
            run_spmd([failing, waiting])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_unencodable_dt_reason_raises(transport):
    """A dt cell carries the reason as a DT_REASONS code; anything else
    must fail loudly rather than cross the seam mangled — on the leaf
    that publishes it and on a root that would broadcast it."""
    with live_ranks(transport) as (ctx, subs, states, comms):
        raised = {}

        def reduce(r):
            try:
                comms[r].reduce_dt([(0.5, "bogus", 3)])
            except CommError as exc:
                raised[r] = str(exc)
                ctx.abort()   # the peer must not wait out the timeout

        run_spmd([lambda: reduce(0), lambda: reduce(1)])
    assert "unencodable dt reason" in raised[1]
    assert "peer rank failed" in raised[0]
    with live_ranks(transport, nranks=1) as (ctx, subs, states, comms):
        with pytest.raises(CommError, match="unencodable dt reason"):
            run_spmd([lambda: comms[0].reduce_dt([(0.5, "bogus", 3)])])


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("nranks", range(1, 10))
def test_dt_hops_critical_path_is_log2(transport, nranks):
    """The binomial tree's busiest rank combines ⌈log2 P⌉ candidates
    per reduction, and the P−1 edges are each walked once."""
    with live_ranks(transport, nranks=nranks) as (ctx, subs, states, comms):
        results = [None] * nranks

        def reduce(r):
            results[r] = comms[r].reduce_dt([(1.0 + r, "cfl", 0)])

        run_spmd([lambda r=r: reduce(r) for r in range(nranks)])
    assert results == [results[0]] * nranks
    assert results[0][:2] == (1.0, "cfl")
    hops = [c.stats.dt_hops for c in comms]
    assert max(hops) == math.ceil(math.log2(nranks))
    assert sum(hops) == nranks - 1


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_untraced_waits_are_not_timed(monkeypatch, transport):
    """Wait attribution costs nothing when no tracer is attached: the
    endpoint reads no clock and keeps no record."""
    def clock():
        raise AssertionError("an untraced endpoint read the clock")

    monkeypatch.setattr(typhon, "time", SimpleNamespace(
        monotonic=time.monotonic, perf_counter=clock))
    with live_ranks(transport) as (ctx, subs, states, comms):
        def step(r):
            _exchange_kinematics(comms[r], states[r])
            comms[r].reduce_dt([(0.5, "cfl", 3)])
            comms[r].allreduce_max(1.0)

        run_spmd([lambda: step(0), lambda: step(1)])
        assert all(c._waits is None for c in comms)
