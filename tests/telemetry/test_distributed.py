"""Multi-rank telemetry: deterministic merge, counter aggregation."""

from repro.parallel import DistributedHydro
from repro.problems import load_problem
from repro.utils.timers import TimerRegistry


def _traced_driver(nranks=2, steps=6, nx=16):
    setup = load_problem("noh", nx=nx, ny=nx)
    driver = DistributedHydro(setup, nranks, trace=True)
    driver.run(max_steps=steps)
    return driver


def _stream_signature(driver):
    """Everything about the merged stream except the clock values."""
    return [(s.rank, s.name, s.cat, s.depth)
            for s in driver.merged_spans()]


def test_merged_stream_is_deterministic_across_runs():
    sig_a = _stream_signature(_traced_driver())
    sig_b = _stream_signature(_traced_driver())
    assert sig_a == sig_b


def test_merged_stream_is_rank_ordered():
    ranks = [s.rank for s in _traced_driver(nranks=3).merged_spans()]
    assert ranks == sorted(ranks)


def test_every_rank_contributes_full_hierarchy():
    driver = _traced_driver(nranks=2, steps=4)
    for rank in (0, 1):
        cats = {s.cat for s in driver.merged_spans() if s.rank == rank}
        assert {"run", "step", "phase", "kernel", "comm"} <= cats
        steps = [s for s in driver.merged_spans()
                 if s.rank == rank and s.cat == "step"]
        assert len(steps) == 4


def test_per_rank_comm_counters_sum_to_total():
    driver = _traced_driver(nranks=3)
    per_rank = driver.per_rank_comm()
    total = driver.context.total_stats().as_dict()
    assert len(per_rank) == 3
    for key in ("messages", "bytes", "halo_exchanges", "reductions"):
        assert total[key] == sum(e[key] for e in per_rank)
        assert all(e[key] > 0 for e in per_rank)


def test_merged_timers_fold_alloc_counters():
    """`TimerRegistry.merge` must aggregate the tracemalloc counters,
    not just seconds/calls (the run-report kernels section relies on
    it)."""
    a, b = TimerRegistry(), TimerRegistry()
    a.get("getq").add(1.0)
    a.get("getq").add_alloc(100, 80)
    b.get("getq").add(2.0)
    b.get("getq").add_alloc(50, 120)
    a.merge(b)
    timer = a.get("getq")
    assert timer.seconds == 3.0
    assert timer.alloc_bytes == 150
    assert timer.alloc_peak == 120


def test_untraced_driver_has_no_tracers():
    setup = load_problem("noh", nx=12, ny=12)
    driver = DistributedHydro(setup, 2)
    assert driver.merged_spans() == []
    for hydro in driver.hydros:
        assert hydro.timers.spans is None
