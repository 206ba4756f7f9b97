"""Per-layer direct probes: harness-timed calls into one layer's public
functions on the workload's own (first) config.

These reach below ``repro.api`` on purpose — and the ROADMAP plans to
delete some of what they reach (``repro.perf``, one of the kernel
sets, ``output.restart``).  The PR that does so may not edit
``bench/``, so every probe is isolated: an ``ImportError``,
``AttributeError`` or ``TypeError`` (a changed signature) turns that
probe's metrics into ``None`` with reason ``"absent"`` instead of
failing the run.

A probe runs only under the workloads whose wall its layer is part of
(``PROBES`` below); under the others the layer does no work and its
metrics read 0.
"""

from __future__ import annotations

import os
import statistics
import time
import tracemalloc

from repro.api import RunConfig, run

#: steps a state is advanced before a kernel is timed on it, so the
#: probe sees a developed flow and not the quiescent initial condition
DEVELOP_STEPS = 10
TIMED_STEPS = 6
REPEATS = 3


def _median_time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _developed(ctx):
    """A serial ``Hydro`` of the workload's first config advanced
    ``DEVELOP_STEPS`` steps (built once per probe process)."""
    if "hydro" not in ctx:
        from repro.core.hydro import Hydro

        setup = ctx["config"].replace(
            nranks=1, backend="serial").build_setup()
        hydro = Hydro(setup.state, setup.table, setup.controls)
        for _ in range(DEVELOP_STEPS):
            hydro.step()
        ctx["hydro"] = hydro
    return ctx["hydro"]


def _lagstep_us_per_cell(hydro, **kwargs) -> float:
    from repro.core.lagstep import lagstep
    from repro.utils.timers import TimerRegistry

    timers = TimerRegistry(enabled=False)
    # Half the developed flow's own dt: repeated fixed-dt steps cannot
    # tangle the mesh mid-measurement.
    dt = 0.5 * hydro.dt

    def steps():
        state = hydro.state.copy()
        t0 = time.perf_counter()
        for _ in range(TIMED_STEPS):
            lagstep(state, hydro.table, hydro.controls, dt, timers,
                    hydro.gamma, time=hydro.time, **kwargs)
        return time.perf_counter() - t0

    typical = statistics.median(steps() for _ in range(REPEATS))
    return 1e6 * typical / (TIMED_STEPS * hydro.state.mesh.ncell)


# ----------------------------------------------------------------------
def problems(ctx) -> dict:
    from repro.mesh.generator import rect_mesh

    config = ctx["config"]
    setup = config.build_setup()
    params = setup.describe()["params"]   # a deck's sizes live here too
    nx, ny = params["nx"], params["ny"]
    return {
        "problems.build_setup_s": _median_time(config.build_setup),
        "mesh.cells_per_s":
            nx * ny / _median_time(lambda: rect_mesh(nx, ny)),
    }


def deck_parse(ctx) -> dict:
    from repro.problems import setup_from_deck

    deck = ctx["spec"]["argv"][1]
    return {"problems.deck_parse_s":
            _median_time(lambda: setup_from_deck(deck))}


def core_lagstep(ctx) -> dict:
    hydro = _developed(ctx)
    return {"core.lagstep_us_per_cell": _lagstep_us_per_cell(hydro)}


def core_alloc(ctx) -> dict:
    from repro.core.hydro import Hydro

    src = _developed(ctx)
    hydro = Hydro(src.state.copy(), src.table, src.controls)
    hydro.time, hydro.nstep, hydro.dt = src.time, src.nstep, src.dt
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(3):
            base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            hydro.step()
            _, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - base)
    finally:
        tracemalloc.stop()
    return {"core.alloc_peak_kb_per_step": statistics.median(peaks) / 1024.0}


def perf_planned(ctx) -> dict:
    from repro.perf import MeshPlans, Workspace

    hydro = _developed(ctx)
    mesh = hydro.state.mesh
    build = _median_time(lambda: MeshPlans(mesh))
    return {
        "perf.plans_build_s": build,
        "perf.lagstep_planned_us_per_cell": _lagstep_us_per_cell(
            hydro, plans=MeshPlans(mesh), ws=Workspace()),
    }


def ale_apply(ctx) -> dict:
    from repro.core.lagstep import lagstep
    from repro.utils.timers import TimerRegistry

    hydro = _developed(ctx)
    timers = TimerRegistry(enabled=False)
    samples = []
    for _ in range(REPEATS):
        state = hydro.state.copy()
        # The remap only works on a mesh that moved: step, then remap.
        lagstep(state, hydro.table, hydro.controls, hydro.dt, timers,
                hydro.gamma, time=hydro.time)
        t0 = time.perf_counter()
        hydro.remapper.apply(state, hydro.dt)
        samples.append(time.perf_counter() - t0)
    return {"ale.apply_us_per_cell":
            1e6 * statistics.median(samples) / hydro.state.mesh.ncell}


def parallel_setup(ctx) -> dict:
    from repro.parallel.commplan import compile_plans
    from repro.parallel.halo import build_subdomains
    from repro.parallel.partition.interface import partition

    config = ctx["config"]
    mesh = config.build_setup().state.mesh
    n, method = config.nranks, config.partition
    part = partition(mesh, n, method)
    subs = build_subdomains(mesh, part, n)
    ghosts = sum(int((~s.owned_cell_mask).sum()) for s in subs)
    return {
        "parallel.partition_s":
            _median_time(lambda: partition(mesh, n, method)),
        "parallel.subdomains_s":
            _median_time(lambda: build_subdomains(mesh, part, n)),
        "parallel.plan_compile_s":
            _median_time(lambda: compile_plans(subs)),
        "parallel.halo_cell_frac": ghosts / mesh.ncell,
    }


def ensemble(ctx) -> dict:
    from repro.core.hydro import Hydro
    from repro.ensemble.driver import EnsembleHydro

    sub = ctx["spec"]["submissions"][0]
    config = ctx["config"]

    def setups(lanes):
        out = []
        for override in sub["overrides"][:lanes]:
            setup = config.build_setup()
            setup.controls = setup.controls.with_(**override).validated()
            out.append(setup)
        return out

    lanes = len(sub["configs"])
    ncell = config.build_setup().state.mesh.ncell
    built = setups(lanes)
    t0 = time.perf_counter()
    EnsembleHydro(built)
    build_s = time.perf_counter() - t0

    def us_per_cell(n):
        eh = EnsembleHydro(setups(n))
        eh.begin()
        for _ in range(DEVELOP_STEPS):
            eh.advance()
        t0 = time.perf_counter()
        for _ in range(TIMED_STEPS):
            eh.advance()
        return 1e6 * (time.perf_counter() - t0) / (TIMED_STEPS * n * ncell)

    n1 = statistics.median(us_per_cell(1) for _ in range(REPEATS))
    n16 = statistics.median(us_per_cell(lanes) for _ in range(REPEATS))

    def serial_us_per_cell():
        setup = setups(1)[0]
        hydro = Hydro(setup.state, setup.table, setup.controls)
        for _ in range(DEVELOP_STEPS):
            hydro.step()
        t0 = time.perf_counter()
        for _ in range(TIMED_STEPS):
            hydro.step()
        return 1e6 * (time.perf_counter() - t0) / (TIMED_STEPS * ncell)

    serial = statistics.median(serial_us_per_cell() for _ in range(REPEATS))
    return {"ensemble.build_s": build_s,
            "ensemble.n1_us_per_cell": n1,
            "ensemble.n16_us_per_cell": n16,
            "ensemble.speedup_vs_serial": serial / n16}


def fleet_cache(ctx) -> dict:
    from repro.fleet.cache import ResultCache, job_key

    subs = ctx["spec"]["submissions"]
    jobs = [(RunConfig(**c), o) for s in subs
            for c, o in zip(s["configs"],
                            s["overrides"] or [None] * len(s["configs"]))]
    key_s = _median_time(lambda: [job_key(c, o) for c, o in jobs])
    config = ctx["config"]
    result = run(config)
    cache = ResultCache(os.path.join(ctx["tmp"], "probe-cache"))
    key = job_key(config, None)
    store = _median_time(lambda: cache.store(key, result))
    load = _median_time(lambda: cache.load(key, config))
    return {"fleet.job_key_s_per_job": key_s / len(jobs),
            "fleet.cache_store_s_per_job": store,
            "fleet.cache_load_s_per_job": load}


def fleet_ckpt(ctx) -> dict:
    from repro.fleet.checkpoint import save_checkpoint

    hydro = _developed(ctx)
    path = os.path.join(ctx["tmp"], "probe.ckpt.npz")
    return {"fleet.ckpt_save_s":
            _median_time(lambda: save_checkpoint(path, hydro, key="probe"))}


def overheads(ctx) -> dict:
    """Telemetry and metrics-probe cost on a quarter-length run of the
    workload's config: on/off alternated, medians compared."""
    config = ctx["config"].replace(
        max_steps=max(5, (ctx["config"].max_steps or 20) // 4))
    variants = {"off": config,
                "trace": config.replace(trace=True),
                "metrics": config.replace(metrics_every=10)}
    walls = {name: [] for name in variants}
    for _ in range(REPEATS):
        for name, cfg in variants.items():
            t0 = time.perf_counter()
            run(cfg)
            walls[name].append(time.perf_counter() - t0)
    off = statistics.median(walls["off"])
    return {
        "telemetry.trace_overhead_frac":
            statistics.median(walls["trace"]) / off - 1.0,
        "metrics.probe_overhead_frac":
            statistics.median(walls["metrics"]) / off - 1.0,
    }


def output_files(ctx) -> dict:
    from repro.output.restart import write_restart
    from repro.telemetry.report import write_report

    result = run(ctx["config"].replace(max_steps=5))
    report_path = os.path.join(ctx["tmp"], "probe-report.json")
    restart_path = os.path.join(ctx["tmp"], "probe-restart.npz")
    report_s = _median_time(
        lambda: write_report(result.report(), report_path))
    restart_s = _median_time(
        lambda: write_restart(restart_path, result.state, result.time,
                              result.nstep, 0.0))
    return {"output.report_s": report_s,
            "output.report_bytes": os.path.getsize(report_path),
            "output.restart_write_s": restart_s,
            "output.restart_bytes": os.path.getsize(restart_path)}


CORE_WORKLOADS = ("lag_serial", "ale_serial", "strong_p2", "sweep_pool",
                  "cli_cold")
SWEEPS = ("sweep_batched", "sweep_pool", "sweep_warm")

#: probe -> (metrics it yields, workloads it runs under)
PROBES = [
    (problems, ("problems.build_setup_s", "mesh.cells_per_s"), None),
    (deck_parse, ("problems.deck_parse_s",), ("cli_cold",)),
    (core_lagstep, ("core.lagstep_us_per_cell",), CORE_WORKLOADS),
    (core_alloc, ("core.alloc_peak_kb_per_step",), CORE_WORKLOADS),
    (perf_planned, ("perf.plans_build_s",
                    "perf.lagstep_planned_us_per_cell"), CORE_WORKLOADS),
    (ale_apply, ("ale.apply_us_per_cell",), ("ale_serial",)),
    (parallel_setup, ("parallel.partition_s", "parallel.subdomains_s",
                      "parallel.plan_compile_s",
                      "parallel.halo_cell_frac"), ("strong_p2",)),
    (ensemble, ("ensemble.build_s", "ensemble.n1_us_per_cell",
                "ensemble.n16_us_per_cell",
                "ensemble.speedup_vs_serial"), ("sweep_batched",)),
    (fleet_cache, ("fleet.job_key_s_per_job", "fleet.cache_store_s_per_job",
                   "fleet.cache_load_s_per_job"), SWEEPS),
    (fleet_ckpt, ("fleet.ckpt_save_s",), ("sweep_pool",)),
    (overheads, ("telemetry.trace_overhead_frac",
                 "metrics.probe_overhead_frac"), ("lag_serial",)),
    (output_files, ("output.report_s", "output.report_bytes",
                    "output.restart_write_s", "output.restart_bytes"),
     ("lag_serial", "cli_cold")),
]


def first_config(spec: dict) -> RunConfig:
    if spec["surface"] == "cli":
        return RunConfig(deck=spec["argv"][1])
    return RunConfig(**spec["submissions"][0]["configs"][0])


def run_probes(spec: dict, tmp: str) -> dict:
    """Every probe registered for ``spec``'s workload.  Returns
    ``{"values": {metric: number | None}, "absent": {metric: why}}``."""
    ctx = {"spec": spec, "config": first_config(spec), "tmp": tmp}
    values, absent = {}, {}
    for probe, metrics, only in PROBES:
        if only is not None and spec["name"] not in only:
            continue
        try:
            values.update(probe(ctx))
        except (ImportError, AttributeError, TypeError) as exc:
            for name in metrics:
                values[name] = None
                absent[name] = f"absent: {type(exc).__name__}: {exc}"
    return {"values": values, "absent": absent}
