"""The benchmark's metric tables — the one place names, units,
directions and regression bounds are written down.  ``BENCHMARK.json``
at the repository root is generated from here
(``python bench/metrics.py > BENCHMARK.json``); ``selftest.py`` fails
when the two disagree.
"""

from __future__ import annotations

import json

import workloads

#: seconds one driver run measures.  The driver makes 4 + 22 x 7 runs
#: inside 3420 s; a run costs RUN_SECONDS plus 1-5 s of start-up, cache
#: filling and verification, about 2700 s in all on the 2-CPU host this
#: was sized on.
RUN_SECONDS = 15

#: (name, unit, better, bound).  A bound is the share of the parent's
#: median a later PR may lose before it is rejected.  ISSUE 11 asked for
#: 10%; the sandbox this was built in cannot resolve that: its clock
#: speed wanders by +-8% on a scale of seconds (README, "Noise"), so ten
#: 15 s runs of one commit spread by 4-13% (inter-quartile, over the
#: median) whatever estimator a run reports.  The time metrics therefore
#: carry the contract's maximum; resident memory repeats to under 1%.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),
    ("cell_updates_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]

KERNELS = ("getq", "getforce", "getacc", "getgeom", "getrho", "getein",
           "getpc", "getdt")

#: (name, unit, better) — layer = module under src/repro
PER_LAYER = (
    [("cli.interp_s", "s", "lower"),
     ("cli.import_s", "s", "lower"),
     ("cli.import_top3", "s", "lower"),
     ("problems.build_setup_s", "s", "lower"),
     ("problems.deck_parse_s", "s", "lower"),
     ("mesh.cells_per_s", "1/s", "higher")]
    + [(f"core.{k}_s", "s", "lower") for k in KERNELS]
    + [(f"core.{k}_calls", "count", "lower") for k in KERNELS]
    + [("core.step_loop_s", "s", "lower"),
       ("core.residue_frac", "ratio", "lower"),
       ("core.lagstep_us_per_cell", "us/cell", "lower"),
       ("core.alloc_peak_kb_per_step", "KiB", "lower"),
       ("perf.lagstep_planned_us_per_cell", "us/cell", "lower"),
       ("perf.plans_build_s", "s", "lower"),
       ("ale.alestep_s", "s", "lower"),
       ("ale.alegetmesh_s", "s", "lower"),
       ("ale.alegetfvol_s", "s", "lower"),
       ("ale.aleadvect_s", "s", "lower"),
       ("ale.aleupdate_s", "s", "lower"),
       ("ale.share", "ratio", "lower"),
       ("ale.apply_us_per_cell", "us/cell", "lower"),
       ("parallel.partition_s", "s", "lower"),
       ("parallel.subdomains_s", "s", "lower"),
       ("parallel.plan_compile_s", "s", "lower"),
       ("parallel.prepare_s", "s", "lower"),
       ("parallel.gather_s", "s", "lower"),
       ("parallel.messages_per_step", "1/step", "lower"),
       ("parallel.bytes_per_step", "B/step", "lower"),
       ("parallel.halo_exchanges_per_step", "1/step", "lower"),
       ("parallel.dt_hops_per_step", "1/step", "lower"),
       ("parallel.halo_cell_frac", "ratio", "lower"),
       ("parallel.exchange_s", "s", "lower"),
       ("parallel.imbalance", "ratio", "lower"),
       ("parallel.efficiency", "ratio", "higher"),
       ("ensemble.build_s", "s", "lower"),
       ("ensemble.n1_us_per_cell", "us/cell", "lower"),
       ("ensemble.n16_us_per_cell", "us/cell", "lower"),
       ("ensemble.speedup_vs_serial", "ratio", "higher"),
       ("fleet.job_key_s_per_job", "s", "lower"),
       ("fleet.cache_store_s_per_job", "s", "lower"),
       ("fleet.cache_load_s_per_job", "s", "lower"),
       ("fleet.cache_bytes_per_job", "B", "lower"),
       ("fleet.cache_hit_frac", "ratio", "higher"),
       ("fleet.ckpt_save_s", "s", "lower"),
       ("fleet.ckpt_bytes", "B", "lower"),
       ("fleet.ckpt_writes", "count", "lower"),
       ("fleet.sched_overhead_s", "s", "lower"),
       ("fleet.pool_utilisation", "ratio", "higher"),
       ("fleet.coalesced_frac", "ratio", "higher"),
       ("fleet.artifact_hits", "count", "higher"),
       ("telemetry.trace_overhead_frac", "ratio", "lower"),
       ("metrics.probe_overhead_frac", "ratio", "lower"),
       ("output.report_s", "s", "lower"),
       ("output.report_bytes", "B", "lower"),
       ("output.restart_write_s", "s", "lower"),
       ("output.restart_bytes", "B", "lower"),
       ("bench.trace_overhead_frac", "ratio", "lower"),
       ("bench.residue_frac", "ratio", "lower")]
)

#: counters that must repeat exactly between two runs of one commit
EXACT = tuple(
    [f"core.{k}_calls" for k in KERNELS]
    + ["parallel.messages_per_step", "parallel.bytes_per_step",
       "parallel.halo_exchanges_per_step", "parallel.dt_hops_per_step",
       "fleet.ckpt_writes", "fleet.cache_hit_frac"])

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
E2E_UNITS["failed_frac"] = "ratio"
LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": workloads.WHY[name]}
                      for name in workloads.ORDER],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
