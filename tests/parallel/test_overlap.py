"""The overlapped split-phase protocol: identity, topology, safety.

Three contracts, each enforced independently:

1. **Bit-identity** — ``comm_plan="overlap"`` is a pure reorder of the
   packed schedule: same bytes, same messages, same IEEE summation
   order, so every state field and every CommStats counter must be
   *exactly* equal to a packed run, on both distributed backends, with
   and without the remap.
2. **Reduction topology** — the dt reduction runs on a binomial tree:
   the critical path (max per-rank hop count per reduction) must be
   ⌈log2 P⌉, strictly below the flat gather's P−1 — measured from the
   honest ``dt_hops``/``dt_reductions`` counters, in both modes (the
   tree replaced the rooted reduction everywhere, which is what keeps
   the counters backend- and mode-identical).
3. **Interleaving safety** — the double-buffered staging tolerates at
   most one in-flight post per section; a second same-parity post and a
   complete without a post must raise a structured
   :class:`~repro.utils.errors.CommError` *immediately* (never
   deadlock-then-timeout) — on both transports.
"""

import math

import numpy as np
import pytest

from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.errors import CommError
from tests.parallel.conftest import both_transports

FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "cs2", "q",
          "cell_mass", "volume", "corner_mass", "corner_volume")


def _run(problem, nranks, backend, comm_plan, max_steps=12, **kwargs):
    setup = load_problem(problem, **kwargs)
    driver = DistributedHydro(setup, nranks, backend=backend,
                              comm_plan=comm_plan)
    driver.run(max_steps=max_steps)
    return driver


def _assert_identical(overlap, packed):
    assert overlap.nstep == packed.nstep
    assert overlap.time == packed.time
    go, gp = overlap.gather(), packed.gather()
    for name in FIELDS:
        assert np.array_equal(getattr(go, name), getattr(gp, name)), name
    assert overlap.per_rank_comm() == packed.per_rank_comm()


# ----------------------------------------------------------------------
# 1. bit-identity, both backends, Noh + Sod + remap
# ----------------------------------------------------------------------
@pytest.mark.parametrize("nranks", [2, 4, 8])
def test_threads_noh_bit_identical(nranks):
    _assert_identical(
        _run("noh", nranks, "threads", "overlap", nx=16, ny=16),
        _run("noh", nranks, "threads", "packed", nx=16, ny=16),
    )


@pytest.mark.parametrize("nranks", [2, 4])
def test_threads_sod_ale_bit_identical(nranks):
    _assert_identical(
        _run("sod", nranks, "threads", "overlap",
             ale_on=True, nx=32, ny=6, max_steps=20),
        _run("sod", nranks, "threads", "packed",
             ale_on=True, nx=32, ny=6, max_steps=20),
    )


@pytest.mark.parametrize("nranks", [2, 4])
def test_processes_noh_bit_identical(nranks):
    _assert_identical(
        _run("noh", nranks, "processes", "overlap", nx=16, ny=16),
        _run("noh", nranks, "processes", "packed", nx=16, ny=16),
    )


def test_processes_sod_ale_bit_identical():
    _assert_identical(
        _run("sod", 2, "processes", "overlap",
             ale_on=True, nx=32, ny=6, max_steps=20),
        _run("sod", 2, "processes", "packed",
             ale_on=True, nx=32, ny=6, max_steps=20),
    )


def test_overlap_counters_identical_across_backends():
    """The backend-equivalence guarantee extends to overlap mode: the
    shared-memory and in-process endpoints run the same schedule."""
    threads = _run("noh", 2, "threads", "overlap", nx=16, ny=16)
    procs = _run("noh", 2, "processes", "overlap", nx=16, ny=16)
    assert procs.per_rank_comm() == threads.per_rank_comm()
    for name in FIELDS:
        assert np.array_equal(getattr(threads.gather(), name),
                              getattr(procs.gather(), name)), name


# ----------------------------------------------------------------------
# 2. dt reduction topology: ⌈log2 P⌉ critical path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["threads", "processes"])
@pytest.mark.parametrize("nranks", [4, 8])
def test_dt_reduction_critical_path_is_log2(backend, nranks):
    if backend == "processes" and nranks == 8:
        pytest.skip("8-way process fan-out is covered by the threads run")
    driver = _run("noh", nranks, backend, "overlap", nx=16, ny=16,
                  max_steps=10)
    per_rank = driver.per_rank_comm()
    reductions = per_rank[0]["dt_reductions"]
    assert reductions > 0
    expected_depth = math.ceil(math.log2(nranks))
    hops = [entry["dt_hops"] for entry in per_rank]
    # Every rank performed the same number of reductions; the critical
    # path of each is its busiest rank's hop count.
    assert all(entry["dt_reductions"] == reductions for entry in per_rank)
    depth = max(hops) / reductions
    assert depth == expected_depth
    assert depth < nranks - 1  # strictly better than the flat gather
    # The tree has exactly P−1 edges, each walked once per reduction
    # (up-sweep); the down-sweep reuses them, counted on the parent.
    assert sum(hops) == reductions * (nranks - 1)


def test_dt_tree_counters_present_in_packed_mode_too():
    """The combining tree replaced the rooted reduction in *both*
    modes — that is what keeps overlap/packed CommStats equal."""
    driver = _run("noh", 4, "threads", "packed", nx=16, ny=16,
                  max_steps=6)
    per_rank = driver.per_rank_comm()
    assert max(e["dt_hops"] for e in per_rank) \
        == 2 * per_rank[0]["dt_reductions"]


# ----------------------------------------------------------------------
# 3. interleaving safety: structured errors, never deadlocks
# ----------------------------------------------------------------------
@both_transports
def test_double_post_same_section_raises(ctx, subs, states, comms):
    (c0, c1), (s0, s1) = comms, states
    c0.post_kinematics(s0)
    with pytest.raises(CommError, match="already posted"):
        c0.post_kinematics(s0)
    # drain cleanly so nothing is left in flight
    c1.post_kinematics(s1)
    c0.complete_kinematics(s0)
    c1.complete_kinematics(s1)


@both_transports
def test_complete_without_post_raises(ctx, subs, states, comms):
    c0, s0 = comms[0], states[0]
    with pytest.raises(CommError, match="without a post"):
        c0.complete_kinematics(s0)
    with pytest.raises(CommError, match="without a post"):
        c0.complete_cell_fields(s0)
    with pytest.raises(CommError, match="without a post"):
        c0.complete_node_sums(s0)


@both_transports
def test_posts_of_distinct_sections_may_interleave(ctx, subs, states, comms):
    """Kin + cell posts in flight simultaneously (the remap's pattern)
    is legal — only *same-section* double posts are rejected."""
    (c0, c1), (s0, s1) = comms, states
    c0.post_kinematics(s0)
    c0.post_cell_fields(s0)
    c1.post_kinematics(s1)
    c1.post_cell_fields(s1)
    c0.complete_kinematics(s0)
    c0.complete_cell_fields(s0)
    c1.complete_kinematics(s1)
    c1.complete_cell_fields(s1)
