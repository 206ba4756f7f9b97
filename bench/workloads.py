"""The seven benchmark workloads: seeded generator, zero-step twins,
sweep-shape checks and the run manifest.

Pure data — nothing here imports ``repro``.  A workload is a dict::

    {"name", "why", "surface": "run" | "submit" | "cli",
     "submissions": [{"configs": [RunConfig kwargs, ...],
                      "overrides": [control overrides, ...] | None,
                      "options": {fleet options},
                      "dirs": [fleet options that name a directory]}],
     "replays": how often the submissions are repeated in one sample,
     "warm": True when the cache is filled outside the timed region,
     "expect": "coalesced" | "separate" | None,
     "argv": CLI arguments (surface "cli")}

Mesh sizes are fixed; the seed only draws sweep parameters, and draws
them so that the work of a workload (sum of cells x steps) is the same
for every seed — otherwise the seed itself would show up as spread in
``wall_s``.

Step counts are a quarter of the ones ISSUE 11 sketched (50 instead
of 200 and so on): the driver that gates later PRs makes 158 runs of
this benchmark in under an hour, and a run has to hold several samples.
The cost *shares* the workloads were chosen for are unchanged, because
the meshes are.
"""

from __future__ import annotations

import copy
import os
import platform
import random
import sys

DECK = "src/repro/problems/decks/sod.in"

#: environment every child runs under: one BLAS/OpenMP thread, so that
#: the process count is the only parallelism and numpy's build does
#: not decide the result
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

ORDER = ("lag_serial", "ale_serial", "strong_p2", "sweep_batched",
         "sweep_pool", "sweep_warm", "cli_cold")

WHY = {
    "lag_serial": "Sod 128x128 Lagrangian via api.run: core kernels do ~97% "
                  "of the work, parallel/ale/fleet/caches none; the paper's "
                  "Table II case and strong_p2's serial baseline",
    "ale_serial": "Sod 96x96 with the Eulerian remap every step: ale is ~40% "
                  "of the wall here and 0% in lag_serial (Noh/Sedov abort "
                  "with ale_on at this size, so Sod is the ALE deck)",
    "strong_p2": "lag_serial's config on 2 process ranks, rcb + overlap: "
                 "partition, halo build, CommPlan compile, fork, split-phase "
                 "exchange, dt tree and gather work here and nowhere else",
    "sweep_batched": "one Noh 32x32 config x 16 lanes with per-lane control "
                     "overrides: the fleet --sweep path, ensemble kernels do "
                     "the stepping and core kernels none",
    "sweep_pool": "24 distinct jobs over six meshes on 2 pool workers with "
                  "checkpoints and cache writes: per-job fleet overhead "
                  "around small core runs, nothing coalesces",
    "sweep_warm": "the two sweeps replayed against filled caches: only "
                  "fleet.cache reads (key hashing, npz load, mesh rebuild), "
                  "no kernel runs at all",
    "cli_cold": "fresh interpreter, bookleaf run sod.in --report to "
                "time_end: the only workload that pays interpreter start and "
                "imports in the timed region and runs to a physical end time",
}


def _pool_jobs(rng: random.Random, shrink: int, steps) -> list:
    """24 jobs (12 when shrunk), four per mesh.  Every mesh gets the
    same multiset of step counts in a seeded order and a distinct cq1,
    so no two jobs share a canonical key or coalesce, and the total
    work does not depend on the seed."""
    meshes = [("noh", 32, 32), ("sod", 40, 40), ("sedov", 36, 36),
              ("triple_point", 70, 30), ("sod", 100, 4), ("noh", 24, 24)]
    per_mesh = 4 if shrink == 1 else 2
    cq1_grid = rng.sample(range(30, 70), len(meshes) * per_mesh)
    jobs = []
    for m, (problem, nx, ny) in enumerate(meshes):
        counts = list(steps[:per_mesh])
        rng.shuffle(counts)
        for k in range(per_mesh):
            jobs.append({
                "problem": problem,
                "nx": max(4, nx // shrink), "ny": max(4, ny // shrink),
                "max_steps": counts[k],
                "problem_kwargs": {
                    "cq1": cq1_grid[m * per_mesh + k] / 100.0},
            })
    # Round-robin over the meshes, as a parameter study would queue them.
    return [jobs[m * per_mesh + k] for k in range(per_mesh)
            for m in range(len(meshes))]


def _batched_overrides(rng: random.Random, lanes: int) -> list:
    cq1 = rng.sample(range(300, 700), lanes)
    return [{"cq1": cq1[i] / 1000.0,
             "cq2": round(rng.uniform(0.5, 1.0), 4),
             "cfl_safety": round(rng.uniform(0.3, 0.5), 4)}
            for i in range(lanes)]


def generate(seed: int, quick: bool = False) -> dict:
    """All seven workloads for ``seed``, keyed by name in ``ORDER``.

    ``quick`` shrinks every workload to at most an eighth of its size
    (half the cells per direction, half the steps); its numbers are not
    comparable with a full run's.
    """
    rng = random.Random(seed)
    shrink = 2 if quick else 1
    steps = 25 if quick else 50
    lag = {"problem": "sod", "nx": 128 // shrink, "ny": 128 // shrink,
           "max_steps": steps}
    ale = {"problem": "sod", "nx": 96 // shrink, "ny": 96 // shrink,
           "max_steps": steps, "problem_kwargs": {"ale_on": True}}
    p2 = dict(lag, nranks=2, backend="processes", partition="rcb",
              comm_plan="overlap")
    lanes = 16
    batched = {
        "configs": [{"problem": "noh", "nx": 32 // shrink,
                     "ny": 32 // shrink, "max_steps": steps}] * lanes,
        "overrides": _batched_overrides(rng, lanes),
        "options": {}, "dirs": ["cache_dir"],
    }
    pool = {
        "configs": _pool_jobs(rng, shrink,
                              (13, 14, 15, 16) if quick else (26, 28, 31, 33)),
        "overrides": None,
        "options": {"workers": 2, "checkpoint_every": 5},
        "dirs": ["cache_dir", "checkpoint_dir"],
    }

    def single(config):
        return [{"configs": [config], "overrides": None, "options": {},
                 "dirs": []}]

    cli_argv = ["run", DECK]
    if quick:
        cli_argv += ["--time-end", "0.025"]
    out = {
        "lag_serial": {"surface": "run", "submissions": single(lag)},
        "ale_serial": {"surface": "run", "submissions": single(ale)},
        "strong_p2": {"surface": "run", "submissions": single(p2)},
        "sweep_batched": {"surface": "submit", "submissions": [batched],
                          "expect": "coalesced"},
        "sweep_pool": {"surface": "submit", "submissions": [pool],
                       "expect": "separate"},
        "sweep_warm": {"surface": "submit",
                       "submissions": [copy.deepcopy(pool),
                                       copy.deepcopy(batched)],
                       "replays": 2 if quick else 5, "warm": True},
        "cli_cold": {"surface": "cli", "submissions": [], "argv": cli_argv},
    }
    for name, spec in out.items():
        spec["name"] = name
        spec["why"] = WHY[name]
        spec.setdefault("replays", 1)
        spec.setdefault("warm", False)
        spec.setdefault("expect", None)
    return {name: out[name] for name in ORDER}


def twin(spec: dict) -> dict:
    """The zero-step twin: the identical submission with every
    ``max_steps`` = 0, so its wall is everything that is not stepping.
    Every surface accepts 0 steps (the CLI through ``--max-steps 0``)."""
    out = copy.deepcopy(spec)
    out["name"] = spec["name"] + "#twin"
    for sub in out["submissions"]:
        sub["configs"] = [dict(c, max_steps=0) for c in sub["configs"]]
    if out["surface"] == "cli":
        out["argv"] = out["argv"] + ["--max-steps", "0"]
    return out


def n_ops(spec: dict) -> int:
    """Operations (jobs / runs) one sample of ``spec`` attempts."""
    if spec["surface"] == "cli":
        return 1
    return spec["replays"] * sum(len(s["configs"])
                                 for s in spec["submissions"])


def check_sweep(spec: dict, summaries: list, schedule_logs: list) -> list:
    """Shape failures of one executed sample: every job of a sweep has
    its own canonical key; ``sweep_pool`` coalesces nothing and
    ``sweep_batched`` everything.  Takes the fleet summary documents
    and schedule logs, one per submission; returns failure strings."""
    failures = []
    for summary, log in zip(summaries, schedule_logs):
        jobs = summary["jobs"]
        keys = [j["key"] for j in jobs]
        if len(set(keys)) != len(keys):
            failures.append(f"{spec['name']}: canonical keys collide")
        batched = sum(1 for j in jobs if j["backend"] == "ensemble")
        batches = sum(1 for e in log if e["event"] == "ensemble_batch")
        if spec["expect"] == "separate" and (batched or batches):
            failures.append(f"{spec['name']}: {batched} jobs coalesced")
        if spec["expect"] == "coalesced" and batched != len(jobs):
            failures.append(
                f"{spec['name']}: only {batched}/{len(jobs)} jobs batched")
    return failures


def host_block() -> dict:
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": affinity,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def manifest(seed: int, quick: bool, specs: dict, keys: dict,
             versions: dict) -> dict:
    """The run manifest: what was submitted, why, and on what host.
    ``keys`` maps workload -> canonical job keys as the fleet reported
    them; ``versions`` is the child's numpy/repro version block."""
    return {
        "seed": seed,
        "quick": quick,
        "host": dict(host_block(), **versions),
        "workloads": [
            {"name": name, "why": spec["why"], "surface": spec["surface"],
             "replays": spec["replays"], "submissions": spec["submissions"],
             "argv": spec.get("argv"), "canonical_keys": keys.get(name),
             "twin": "every max_steps = 0"}
            for name, spec in specs.items()
        ],
    }
