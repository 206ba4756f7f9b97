"""Workspace arena tests: reuse, no-growth on every path that owns an
arena, phase-max (not phase-sum) footprint, and the no-large-allocation
guarantee of the warm hot loop.

The contract being pinned: every ``Hydro`` owns a ``Workspace`` and
threads it through ``lagstep`` and the ALE remap; once the loop is warm
the arena stops growing, every kernel's transient allocation collapses
from mesh-scale to nodal-scale, and a remap phase recycles the
Lagrangian phase's blocks instead of adding its own.  (That the arena
changes *where* intermediates live and never the floating-point
operations is pinned across commits by ``tools/digests.py --against``.)
"""

import tracemalloc

import numpy as np

from repro.core.hydro import Hydro
from repro.parallel.distributed import DistributedHydro
from repro.perf.workspace import Workspace, scratch
from repro.problems import load_problem, noh
from repro.utils.timers import TimerRegistry

#: step-loop phases instrumented by TimerRegistry
LAG_KERNELS = ("exchange", "getq", "getforce", "getgeom",
               "getrho", "getein", "getpc", "getacc", "getdt")


def _arena_stats(ws):
    return len(ws), ws.nbytes(), ws.misses


class _ArenaLog:
    """Step observer recording the driver's arena statistics."""

    def __init__(self):
        self.rows = []

    def __call__(self, hydro):
        self.rows.append(_arena_stats(hydro.workspace))


# ----------------------------------------------------------------------
# arena unit behaviour
# ----------------------------------------------------------------------
def test_named_buffers_are_reused():
    ws = Workspace()
    a = ws.array("t", (8, 4))
    b = ws.array("t", (8, 4))
    assert a is b
    assert ws.misses == 1 and ws.hits == 1
    # A different shape under the same name is a different buffer.
    c = ws.array("t", (4, 4))
    assert c is not a
    assert len(ws) == 2


def test_zeros_refills_every_request():
    ws = Workspace()
    z = ws.zeros("z", 5)
    z[:] = 3.0
    assert np.array_equal(ws.zeros("z", 5), np.zeros(5))


def test_borrow_release_is_lifo_per_shape():
    ws = Workspace()
    a = ws.borrow((10, 4))
    b = ws.borrow((10, 4))
    assert a is not b
    assert ws.misses == 2
    ws.release(a, b)
    # Most-recently-released comes back first (cache-hot).
    assert ws.borrow((10, 4)) is b
    assert ws.borrow((10, 4)) is a
    assert ws.hits == 2
    # Distinct sizes and dtypes pool separately.
    i = ws.borrow((10, 4), dtype=np.int64)
    assert i.dtype == np.int64 and i is not a and i is not b


def test_blocks_pool_by_element_count_not_shape():
    """The remap's (ncell, 4) temporaries recycle the step's (4, ncell)
    blocks: a borrow is served by any free block of that many elements,
    viewed in the requested shape."""
    ws = Workspace()
    major = ws.borrow((4, 10))
    ws.release(major)
    cells = ws.borrow((10, 4))
    assert ws.misses == 1 and ws.hits == 1
    assert cells.shape == (10, 4) and cells.flags.c_contiguous
    assert np.shares_memory(cells, major)
    ws.release(cells)
    flat = ws.borrow(40)
    assert flat.shape == (40,) and np.shares_memory(flat, major)
    assert len(ws) == 1 and ws.nbytes() == major.nbytes
    assert ws.borrow((5, 4)) is not None and ws.misses == 2   # another size


def test_borrowed_buffers_count_in_len_and_nbytes():
    ws = Workspace()
    a = ws.borrow(100)
    assert len(ws) == 1
    assert ws.nbytes() == a.nbytes
    ws.release(a)
    # Released buffers stay owned by the arena.
    assert len(ws) == 1 and ws.nbytes() == a.nbytes
    ws.borrow(100)                     # served from the free-list
    assert len(ws) == 1
    ws.clear()
    assert len(ws) == 0 and ws.nbytes() == 0


def test_scratch_fallback_allocates_fresh():
    alloc = scratch(None)
    a = alloc.array("t", (3, 4))
    assert alloc.array("t", (3, 4)) is not a
    b = alloc.borrow((3, 4))
    alloc.release(b)                   # no-op
    assert alloc.borrow((3, 4)) is not b
    ws = Workspace()
    assert scratch(ws) is ws


def test_ensemble_shapes_pool_apart_from_single_run():
    """Batched (N, ...) borrows and named buffers must not collide with
    a single-run shape under the same name, and lane counts pool apart."""
    nnode = 25
    ws = Workspace()
    single = ws.array("nodefx", nnode)
    four = ws.array("nodefx", (4, nnode))
    two = ws.array("nodefx", (2, nnode))
    assert single.shape == (nnode,)
    assert four.shape == (4, nnode) and two.shape == (2, nnode)
    assert len({id(single), id(four), id(two)}) == 3
    # Stable on re-request, per shape.
    assert ws.array("nodefx", (4, nnode)) is four
    assert ws.array("nodefx", nnode) is single

    b4 = ws.borrow((4, nnode))
    b2 = ws.borrow((2, nnode))
    ws.release(b4, b2)
    assert ws.borrow((2, nnode)) is b2
    assert ws.borrow((4, nnode)) is b4


def test_arena_survives_lane_compaction_shape_change():
    """After lanes retire, the batch narrows (N -> M rows): the arena
    serves the new shapes as fresh buffers while keeping the old ones
    pooled, and re-requesting a prior width hits the pool again."""
    ws = Workspace()
    wide = ws.borrow((4, 36))
    ws.release(wide)
    narrow = ws.borrow((3, 36))          # compacted width: new buffer
    assert narrow is not wide
    assert ws.misses == 2
    ws.release(narrow)
    assert ws.borrow((4, 36)) is wide    # old width still pooled
    assert ws.hits == 1


# ----------------------------------------------------------------------
# steady state on every path that owns an arena
# ----------------------------------------------------------------------
def test_arena_stops_growing_after_first_step():
    setup = noh.setup(nx=10, ny=10)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    ws = hydro.workspace
    hydro.step()
    warm = _arena_stats(ws)
    assert warm[0] > 0
    for _ in range(4):
        hydro.step()
    assert _arena_stats(ws) == warm, "warm steps grew or missed the arena"
    assert ws.hits > ws.misses


def test_arena_stops_growing_while_the_active_edge_set_varies(monkeypatch):
    """Sedov's blast changes the viscosity's active-edge count |E| from
    step to step, and ``getq`` works on that subset: its temporaries are
    views into full-size blocks at fixed offsets, so the arena is flat
    from step 2 on and no warm ``getq`` call allocates anything
    mesh-sized."""
    from repro.core import viscosity

    counts = []
    chooser = viscosity.uses_subset

    def spy(nactive, nedge):
        counts.append(nactive)
        return chooser(nactive, nedge)

    monkeypatch.setattr(viscosity, "uses_subset", spy)
    timers = TimerRegistry(trace_allocations=True)
    setup = load_problem("sedov", nx=32, ny=32)
    hydro = Hydro(setup.state, setup.table, setup.controls, timers=timers)
    log = _ArenaLog()
    hydro.observers.append(log)
    for _ in range(2):
        hydro.step()
    timers.reset()
    for _ in range(38):
        hydro.step()
    nedge = 4 * setup.state.mesh.ncell
    assert all(chooser(n, nedge) for n in counts), "left the subset path"
    assert len(set(counts)) > 5, "the active set did not vary"
    assert all(stats == log.rows[1] for stats in log.rows[1:])
    assert timers.alloc_peak("getq") < 64 * 1024


def test_step_arena_is_corner_major():
    """Every 2-D float block the Lagrangian step leaves in the arena is
    a C-contiguous (4, ncell) corner-major array — no (ncell, 4) body
    survives anywhere in the step (hourglass remedies on)."""
    setup = noh.setup(nx=10, ny=9, subzonal_kappa=1.0, filter_kappa=0.1)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(3):
        hydro.step()
    ncell = setup.state.mesh.ncell
    ws = hydro.workspace
    held = list(ws._buffers.values()) + sum(ws._free.values(), [])
    planes = [b for b in held if b.ndim == 2 and b.dtype == np.float64]
    assert len(planes) > 10
    for block in planes:
        assert block.shape == (4, ncell) and block.flags.c_contiguous


def test_ale_arena_stops_growing_after_first_step():
    setup = load_problem("sod", nx=16, ny=16, ale_on=True)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    x0 = setup.state.x.copy()
    hydro.step()
    warm = _arena_stats(hydro.workspace)
    for _ in range(4):
        hydro.step()
    assert np.array_equal(hydro.state.x, x0), "the Eulerian remap did not run"
    assert _arena_stats(hydro.workspace) == warm


def test_per_rank_arenas_stop_growing_after_first_step():
    driver = DistributedHydro(noh.setup(nx=12, ny=12), 2, backend="threads")
    logs = [_ArenaLog() for _ in driver.hydros]
    for hydro, log in zip(driver.hydros, logs):
        hydro.observers.append(log)
    driver.run(max_steps=5)
    for log in logs:
        assert len(log.rows) == 5
        assert log.rows[0][0] > 0
        assert log.rows[-1] == log.rows[0]


def test_remap_recycles_the_lagrangian_arena():
    """Phase-max, not phase-sum: the remap borrows the blocks the
    Lagrangian phase released, so switching ALE on barely moves the
    arena (the unit-level guard for the benchmark's ``peak_rss_mb``)."""
    def arena_bytes(**kwargs):
        setup = load_problem("sod", nx=32, ny=32, **kwargs)
        hydro = Hydro(setup.state, setup.table, setup.controls)
        for _ in range(3):
            hydro.step()
        return hydro.workspace.nbytes()

    assert arena_bytes(ale_on=True) <= 1.05 * arena_bytes()


#: arena bytes of a Sod 32² Lagrangian ``Hydro`` after 3 steps before
#: the step's corner quantities were bundled (17.4 corner planes; the
#: bundle holds a few of them through the predictor)
UNBUNDLED_LAG_ARENA = 573_081


def test_the_corner_bundle_keeps_the_step_arena():
    """The guard for the benchmark's ``peak_rss_mb`` (5% bound): what
    the corner bundle holds from ``getdt`` through the predictor, the
    borrowed step geometry and the leaner limiter and sub-zonal
    contraction give back — the arena stays within 10% of the
    unbundled step's."""
    setup = load_problem("sod", nx=32, ny=32)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(3):
        hydro.step()
    arena = hydro.workspace.nbytes()
    assert arena <= 1.10 * UNBUNDLED_LAG_ARENA, f"arena {arena} B"


#: tracemalloc peak of one warm remap of Sod 32², measured when the
#: cell remap went corner-major (the two-pass gradients and the
#: (ncell, 4) flux volumes it replaced peaked at 541 672 B)
WARM_REMAP_PEAK = 284_138


def test_warm_remap_allocation_peak():
    """What a warm ``AleStep.apply`` allocates besides the arena: the
    committed state arrays, the face-shaped temporaries and the nodal
    remap — not a second copy of the gradient stencil."""
    setup = load_problem("sod", nx=32, ny=32, ale_on=True)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(2):
        hydro.step()                  # arena, plans and stencil tables warm
    remapper, hydro.remapper = hydro.remapper, None
    hydro.step()                      # a Lagrangian step moves the mesh
    tracemalloc.start()
    # An earlier TimerRegistry(trace_allocations=True) leaves tracemalloc
    # running, and its peak may predate the window: re-arm it here.
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert remapper.apply(hydro.state, hydro.dt, ws=hydro.workspace)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * WARM_REMAP_PEAK, f"warm remap peaked at {peak} B"


def test_run_releases_the_arena():
    """A finished driver stays reachable from its RunResult; it must
    not pin the loop's scratch memory — and can still be stepped."""
    setup = noh.setup(nx=8, ny=8)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    hydro.run(max_steps=2)
    assert len(hydro.workspace) == 0 and hydro.workspace.nbytes() == 0
    hydro.step()
    assert hydro.nstep == 3 and len(hydro.workspace) > 0


def test_warm_loop_has_no_large_allocations():
    """Transient allocation per warm kernel call — ``getdt`` included —
    stays far below one nodal array (the boundary-condition masks are
    all that is left); the allocating kernels this replaced peaked at
    hundreds of KB per call at this size."""
    nx, warm, measured = 32, 2, 2
    timers = TimerRegistry(trace_allocations=True)
    setup = noh.setup(nx=nx, ny=nx)
    hydro = Hydro(setup.state, setup.table, setup.controls, timers=timers)
    for _ in range(warm):
        hydro.step()
    timers.reset()
    for _ in range(measured):
        hydro.step()
    peak = max(timers.alloc_peak(k) for k in LAG_KERNELS)
    assert peak < 64 * 1024, f"warm lagstep peaked at {peak} B/call"


def test_node_mass_cache_reused_and_invalidated():
    setup = noh.setup(nx=6, ny=6)
    state = setup.state
    m1 = state.node_mass()
    assert state.node_mass() is m1
    expected = np.bincount(state.mesh.cell_nodes.ravel(),
                           weights=state.corner_mass.ravel(),
                           minlength=state.mesh.nnode)
    assert np.array_equal(m1, expected)
    state.invalidate_node_mass()
    m2 = state.node_mass()
    assert m2 is not m1
    assert np.array_equal(m2, expected)
