"""Compiled comm plans: layout invariants, bit-identity, reconciliation.

The packed exchange protocol (:mod:`repro.parallel.commplan`) sends
one coalesced message per neighbour per exchange out of preallocated
staging; the overlapped split-phase protocol must be a pure reorder of
it — same bytes, same messages, same summation order, bit-identical
physics.  These tests hold the compiler's layout algebra (including
the interior/boundary classification), the endpoints on both
distributed backends, the static-vs-measured traffic reconciliation
and the processes backend's halo-sized mailbox sizing to that
contract.
"""

import numpy as np
import pytest

from repro.parallel import DistributedHydro
from repro.parallel.backends.processes import SharedMemoryTransport
from repro.parallel.commplan import (
    KIN_FIELDS,
    SECTIONS,
    compile_plans,
    mailbox_ratio,
)
from repro.parallel.halo import build_subdomains
from repro.parallel.partition import partition
from repro.parallel.typhon import DT_REDUCE_VALUES, TyphonContext
from repro.problems import load_problem

#: every field the gather assembles (bit-identity checks)
FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "cs2", "q",
          "cell_mass", "volume", "corner_mass", "corner_volume")


def _subdomains(nranks, nx=16, ny=8, problem="sod"):
    setup = load_problem(problem, nx=nx, ny=ny)
    mesh = setup.state.mesh
    return build_subdomains(mesh, partition(mesh, nranks, "rcb"), nranks)


# ----------------------------------------------------------------------
# compiler layout invariants
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nranks", [2, 4])
def test_recv_bases_mirror_peer_send_bases(nranks):
    """A receiver's recv_base for a peer must be exactly where that
    peer laid out its block *for this rank* — the property that lets
    readers index straight into the peer's staging."""
    plans = compile_plans(_subdomains(nranks))
    for plan in plans:
        for name in SECTIONS:
            sec = plan.section(name)
            for peer in sec.recv_peers:
                peer_sec = plans[peer].section(name)
                assert sec.recv_base[peer] == peer_sec.send_base[plan.rank]
                assert sec.recv_idx[peer].size == \
                    peer_sec.send_idx[plan.rank].size


def test_send_blocks_tile_the_section_exactly():
    plans = compile_plans(_subdomains(4))
    for plan in plans:
        for name in SECTIONS:
            sec = plan.section(name)
            expected = 0
            for peer in sec.send_peers:   # ascending by construction
                assert sec.send_base[peer] == expected
                expected += sec.send_idx[peer].size
            assert sec.send_total == expected
            assert sec.capacity == sec.max_width * expected


def test_staging_is_double_buffered_and_nonzero():
    plans = compile_plans(_subdomains(2))
    for plan in plans:
        per_parity = sum(plan.section(n).capacity for n in SECTIONS)
        assert plan.doubles_per_parity == per_parity
        assert plan.total_doubles == 2 * per_parity
        assert plan.staging_doubles() >= 1
        staging = np.zeros(plan.staging_doubles())
        r0 = plan.region(staging, "kin", 0)
        r1 = plan.region(staging, "kin", 1)
        assert r0.size == r1.size == plan.kin.capacity
        if r0.size:
            r0[:] = 1.0
            assert r1.sum() == 0.0  # parity halves do not overlap

    desc = plans[0].describe()
    assert desc["rank"] == 0
    assert set(SECTIONS) <= set(desc)


def test_pack_peer_blocks_roundtrip_matches_fancy_indexing():
    """Packing then reading a peer block is exactly the legacy gather:
    block[i] == array[send_idx[i]], for mixed 1-D and (n, 4) widths."""
    subs = _subdomains(2)
    plans = compile_plans(subs)
    rng = np.random.default_rng(7)
    ncell = subs[0].mesh.ncell
    arrays = (rng.random(ncell), rng.random(ncell),
              rng.random((ncell, 4)))
    staging = np.zeros(plans[0].staging_doubles())
    sec0 = plans[0].cell
    sec0.pack(plans[0].region(staging, "cell", 0), arrays)
    # rank 1 reads rank 0's block with rank 1's own recv layout
    blocks = plans[1].cell.peer_blocks(
        0, plans[0].region(staging, "cell", 0), (1, 1, 4))
    src_idx = sec0.send_idx[1]
    np.testing.assert_array_equal(blocks[0], arrays[0][src_idx])
    np.testing.assert_array_equal(blocks[1], arrays[1][src_idx])
    np.testing.assert_array_equal(blocks[2], arrays[2][src_idx])


def test_kinematic_messages_are_coalesced_per_link():
    """The headline message coalescing: one message per neighbour link
    per exchange, whatever the field count (KIN_FIELDS = 4 travel in
    one block).  Pinned exactly from the counters: 2 ranks, 1 link
    each way, per step one kinematic halo + one nodal-sum completion,
    plus one dt-reduction message per rank per reduction (step 0 takes
    dt_initial without a reduction)."""
    assert KIN_FIELDS == 4  # x, y, u, v — would be 4x the messages unpacked
    setup = load_problem("sod", nx=24, ny=4)
    driver = DistributedHydro(setup, 2, backend="threads",
                              comm_plan="packed")
    steps = driver.run(max_steps=10)
    total = driver.comm_totals()
    assert total["messages"] == 2 * (2 * steps + (steps - 1))


# ----------------------------------------------------------------------
# bit-identity: overlap vs packed, both distributed backends
# ----------------------------------------------------------------------
def _gathered(problem, nranks, backend, comm_plan, ale_on=False,
              **kwargs):
    setup = load_problem(problem, ale_on=ale_on, **kwargs)
    driver = DistributedHydro(setup, nranks, backend=backend,
                              comm_plan=comm_plan)
    driver.run(max_steps=15)
    return driver


@pytest.mark.parametrize("nranks", [2, 4])
@pytest.mark.parametrize("ale_on", [False, True],
                         ids=["lagrangian", "eulerian"])
def test_threads_overlap_bit_identical_to_packed(nranks, ale_on):
    overlap = _gathered("sod", nranks, "threads", "overlap",
                        ale_on=ale_on, nx=32, ny=6)
    packed = _gathered("sod", nranks, "threads", "packed",
                       ale_on=ale_on, nx=32, ny=6)
    assert overlap.nstep == packed.nstep
    go, gp = overlap.gather(), packed.gather()
    for name in FIELDS:
        assert np.array_equal(getattr(go, name), getattr(gp, name)), name
    # The split-phase reorder changes no accounting at all.
    assert overlap.per_rank_comm() == packed.per_rank_comm()


def test_processes_overlap_bit_identical_to_packed():
    overlap = _gathered("sod", 2, "processes", "overlap", nx=24, ny=4)
    packed = _gathered("sod", 2, "processes", "packed", nx=24, ny=4)
    go, gp = overlap.gather(), packed.gather()
    for name in FIELDS:
        assert np.array_equal(getattr(go, name), getattr(gp, name)), name
    assert overlap.per_rank_comm() == packed.per_rank_comm()


def test_legacy_comm_plan_raises_structured_error():
    from repro.utils.errors import DeprecatedOptionError

    setup = load_problem("sod", nx=16, ny=4)
    for spelling in ("legacy", None):
        with pytest.raises(DeprecatedOptionError) as err:
            DistributedHydro(setup, 2, backend="threads",
                             comm_plan=spelling)
        assert err.value.option == "comm_plan='legacy'"
        assert err.value.replacement == "comm_plan='packed'"


def test_packed_counters_identical_across_backends():
    threads = _gathered("noh", 2, "threads", "packed", nx=16, ny=16)
    procs = _gathered("noh", 2, "processes", "packed", nx=16, ny=16)
    assert procs.per_rank_comm() == threads.per_rank_comm()
    for name in FIELDS:
        assert np.array_equal(getattr(threads.gather(), name),
                              getattr(procs.gather(), name)), name


# ----------------------------------------------------------------------
# reconciliation: static traffic estimate vs measured counters
# ----------------------------------------------------------------------
@pytest.mark.parametrize("comm_plan", ["packed", "overlap"])
def test_traffic_matrix_reconciles_with_measured_bytes(comm_plan):
    """For a pure-Lagrangian run, every rank's *measured* CommStats
    bytes must equal the static per-step estimate
    (``TyphonContext.traffic_matrix`` column) times the step count,
    plus the dt reduction's honest 4-value payload (step 0 takes
    ``dt_initial`` without a reduction, hence ``steps - 1``) — catching
    schedule or accounting drift in either direction."""
    setup = load_problem("sod", nx=24, ny=6)
    driver = DistributedHydro(setup, 3, backend="threads",
                              comm_plan=comm_plan)
    steps = driver.run(max_steps=12)
    matrix = driver.context.traffic_matrix()
    for rank, entry in enumerate(driver.per_rank_comm()):
        expected = steps * matrix[:, rank].sum() \
            + (steps - 1) * DT_REDUCE_VALUES * 8
        assert entry["bytes"] == expected, rank


# ----------------------------------------------------------------------
# processes mailbox sizing
# ----------------------------------------------------------------------
def test_packed_mailboxes_are_halo_proportional():
    """The shared-memory windows are the plan's packed staging, not
    full-array size (8·nnode + 15·ncell) — for a 2-D domain the halo
    is O(√ncell), so the ratio grows with the mesh."""
    small = _subdomains(4, nx=16, ny=16, problem="noh")
    big = _subdomains(4, nx=64, ny=64, problem="noh")
    transport = SharedMemoryTransport(compile_plans(small))
    try:
        sizes = [mailbox.size for mailbox in transport.staging]
    finally:
        transport.cleanup()
    assert sizes == [plan.staging_doubles() for plan in transport.plans]
    ratio_small = mailbox_ratio(small, compile_plans(small))["ratio"]
    ratio_big = mailbox_ratio(big, compile_plans(big))["ratio"]
    assert ratio_small > 3    # measured 3.8x at 16x16
    assert ratio_big > 10     # measured 13x at 64x64
    assert ratio_big > ratio_small  # halo-proportional, not area


def test_context_staging_lives_in_the_arena():
    """TyphonContext allocates every rank's staging once, in the comm
    Workspace — the warm path must not grow the arena."""
    subs = _subdomains(2)
    ctx = TyphonContext(subs)
    assert len(ctx.staging) == 2
    misses0 = ctx.comm_ws.misses
    for plan, staging in zip(ctx.plans, ctx.staging):
        again = ctx.comm_ws.array(
            f"commplan.staging.rank{plan.rank}", plan.staging_doubles())
        assert again is staging
    assert ctx.comm_ws.misses == misses0
