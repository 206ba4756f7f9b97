"""The sample server: the one bench process that imports ``repro``.

``run.py`` starts this file once per benchmark run.  It imports
``repro.api`` and nothing else, then serves requests (one JSON object
per line on stdin): every request is executed in a **fresh forked
child**, so each sample starts from an interpreter that has imported
the public API and done no work — no warmed in-process cache, mesh or
plan survives from one sample to the next — without paying the 0.6 s
import per sample.  (``cli_cold`` is the workload that pays imports; it
does not come through here, ``run.py`` spawns ``python -m repro``.)

Request  ``{"op": ..., "timeout": seconds, ...}``
Response one JSON line; ``{"error": text}`` when the child raised, was
killed or ran out of time.  The forked child leads its own process
group, so a timeout kills rank and worker processes with it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

#: the end-to-end path touches only these; every probe that reaches
#: deeper lives in probes.py behind an "absent" guard
from repro.api import RunConfig, run, submit  # noqa: E402

import metrics  # noqa: E402
import spans as harness_spans  # noqa: E402
import workloads  # noqa: E402

DIGEST_FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "q")
CORE_KERNELS = metrics.KERNELS
ALE_KERNELS = ("alestep", "alegetmesh", "alegetfvol", "aleadvect",
               "aleupdate")
COMM_COUNTS = ("messages", "bytes", "halo_exchanges", "dt_hops")
#: per-layer metrics only the traced decomposition of api.run yields
DECOMPOSED_ONLY = ("parallel.prepare_s", "parallel.gather_s",
                   "parallel.exchange_s", "parallel.imbalance")
MASS_TOL = 1e-12
FIELD_TOL = 1e-10
#: sod.in (100x4 cells, t=0.2) has an L1 density error of 0.0042457
#: against the exact Riemann solution on the commit that added this
#: benchmark; pinned with 5% room
SOD_L1_BOUND = 0.00446


# ----------------------------------------------------------------------
# outcomes: what one finished job looks like to the harness
# ----------------------------------------------------------------------
def state_digest(state, nstep, time_reached) -> str:
    """Digest of a run's outcome — final-state bytes and the clocks.
    The harness's own (no golden values are stored: they would pin
    numpy's build, not this code); it only ever compares two runs made
    by the same checkout."""
    h = hashlib.sha256()
    for name in DIGEST_FIELDS:
        h.update(name.encode())
        h.update(getattr(state, name).tobytes())
    h.update(f"nstep={int(nstep)};time={float(time_reached)!r}".encode())
    return h.hexdigest()


class MassBook:
    """Initial total mass per distinct config, built once per sample."""

    def __init__(self):
        self._initial = {}

    def drift(self, config, state) -> float:
        key = json.dumps(config.canonical_dict(), sort_keys=True,
                         default=repr)
        if key not in self._initial:
            self._initial[key] = config.build_setup().state.total_mass()
        m0 = self._initial[key]
        return abs(state.total_mass() - m0) / abs(m0)


def outcome(config, book: MassBook, *, state, nstep, time_reached, backend,
            wall_seconds, kernels, comm_total, cache_hit=False) -> dict:
    """The harness's view of one finished job."""
    return {
        "ncell": int(state.mesh.ncell),
        "nstep": int(nstep),
        "backend": backend,
        "cache_hit": bool(cache_hit),
        "wall_seconds": float(wall_seconds),
        "mass_drift": book.drift(config, state),
        "digest": state_digest(state, nstep, time_reached),
        "kernels": kernels,
        "comm_total": comm_total,
    }


def result_outcome(config, result, book: MassBook) -> dict:
    """:func:`outcome` of a RunResult; the kernel table comes from its
    report, which a cache- or spool-restored result carries verbatim."""
    return outcome(
        config, book, state=result.state, nstep=result.nstep,
        time_reached=result.time, backend=result.backend,
        wall_seconds=result.wall_seconds, cache_hit=result.cache_hit,
        kernels={k: {"seconds": v["seconds"], "calls": v["calls"]}
                 for k, v in result.report()["kernels"].items()},
        comm_total=result.comm_total)


def rss_kb() -> int:
    """Peak resident set of this sample: its own plus the largest of
    its reaped children (ranks, pool workers)."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def tree_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


# ----------------------------------------------------------------------
# the timed region
# ----------------------------------------------------------------------
def _options(sub: dict, dirs: dict) -> dict:
    return dict(sub["options"], **{d: dirs[d] for d in sub["dirs"]})


def _make_dirs(spec: dict, tmp: str) -> list:
    """One directory per fleet option that names one, per submission."""
    out = []
    for i, sub in enumerate(spec["submissions"]):
        dirs = {d: os.path.join(tmp, f"{d}-{i}") for d in sub["dirs"]}
        for path in dirs.values():
            os.makedirs(path, exist_ok=True)
        out.append(dirs)
    return out


def _run_decomposed(config, tracer, book: MassBook):
    """``api.run`` taken apart into the public calls ``_execute_run``
    makes, with a harness span around each.  Returns the job's outcome
    and the per-rank layer numbers only this path can see."""
    from repro.parallel.distributed import DistributedHydro

    with tracer.span("problems.build_setup", "problems"):
        setup = config.build_setup()
    with tracer.span("parallel.prepare", "parallel"):
        driver = DistributedHydro(
            setup, config.nranks, method=config.partition,
            backend=config.resolved_backend(), comm_plan=config.comm_plan)
    with tracer.span("core.step_loop", "core") as loop:
        driver.run(max_steps=config.max_steps)
    with tracer.span("parallel.gather", "parallel"):
        state = driver.gather()
    done = outcome(
        config, book, state=state, nstep=driver.nstep,
        time_reached=driver.time, backend=driver.backend_name,
        wall_seconds=harness_spans.duration(loop),
        kernels={n: {"seconds": t.seconds, "calls": t.calls}
                 for n, t in driver.merged_timers().timers.items()},
        comm_total=driver.comm_totals() if config.nranks > 1 else None)
    layers = {}
    if driver.result is not None and len(driver.result.timers) > 1:
        ranks = driver.result.timers
        busy = [sum(t.seconds(k) for k in CORE_KERNELS + ("alestep",))
                for t in ranks]
        layers = {
            "parallel.exchange_s": max(t.seconds("exchange") for t in ranks),
            "parallel.imbalance": max(busy) * len(busy) / sum(busy),
        }
    return done, layers


def sample(req: dict) -> dict:
    """Execute one sample of a workload (surface ``run`` or
    ``submit``): the timed public call, then the untimed checks."""
    spec = req["spec"]
    traced = req.get("traced", False)
    tracer = harness_spans.Tracer(spec["name"])
    dirs = req.get("dirs") or _make_dirs(spec, req["tmp"])
    book = MassBook()
    outcomes, handles, layers = [], [], {}
    results, configs = [], []

    start = time.perf_counter()
    with tracer.span(spec["name"], "bench"):
        if spec["surface"] == "run":
            config = RunConfig(**spec["submissions"][0]["configs"][0])
            if traced:
                try:
                    done, layers = _run_decomposed(config, tracer, book)
                    outcomes.append(done)
                except (ImportError, AttributeError, TypeError) as exc:
                    why = f"absent: {type(exc).__name__}: {exc}"
                    layers = {name: why for name in DECOMPOSED_ONLY}
            if not outcomes:
                with tracer.span("api.run", "api"):
                    results.append(run(config))
                configs.append(config)
        else:
            for _ in range(spec["replays"]):
                for sub, d in zip(spec["submissions"], dirs):
                    sub_configs = [RunConfig(**c) for c in sub["configs"]]
                    with tracer.span("api.submit", "fleet"):
                        handle = submit(sub_configs,
                                        control_overrides=sub["overrides"],
                                        **_options(sub, d))
                    with tracer.span("fleet.results", "fleet"):
                        results.extend(handle.results())
                    configs.extend(sub_configs)
                    handles.append(handle)
    wall = time.perf_counter() - start

    outcomes += [result_outcome(c, r, book)
                 for c, r in zip(configs, results)]
    summaries = [h.summary() for h in handles]
    failures = [
        {"job": i, "what": f"{spec['name']} job {i}: "
                           f"mass drift {o['mass_drift']:.3e}"}
        for i, o in enumerate(outcomes) if o["mass_drift"] > MASS_TOL]
    failures += [{"job": None, "what": what} for what in
                 workloads.check_sweep(spec, summaries,
                                       [h.schedule_log for h in handles])]
    cold = req.get("cold_digests")
    if cold is not None:
        for i, o in enumerate(outcomes):
            what = None
            if not o["cache_hit"]:
                what = "not served from the cache"
            elif o["digest"] != cold[i % len(cold)]:
                what = "warm digest differs from the cold run's"
            if what:
                failures.append(
                    {"job": i, "what": f"{spec['name']} job {i}: {what}"})

    out = {
        "wall_s": wall,
        "ops": len(outcomes),
        "failures": failures,
        "work": sum(o["ncell"] * o["nstep"] for o in outcomes),
        "rss_kb": rss_kb(),
        "digests": [o["digest"] for o in outcomes],
        "keys": [j["key"] for s in summaries for j in s["jobs"]],
    }
    if traced:
        layers.update(_sample_layers(spec, outcomes, summaries, handles,
                                     dirs, wall, tracer.spans))
        out["layers"] = layers
        out["spans"] = tracer.spans
    return out


# ----------------------------------------------------------------------
# per-layer numbers a traced sample yields by itself
# ----------------------------------------------------------------------
def _sample_layers(spec, outcomes, summaries, handles, dirs, wall,
                   spans) -> dict:
    layers = {}

    # core / ale: kernel seconds of every job the core kernels stepped
    # (ensemble lanes share one registry under the same region names —
    # that time belongs to the ensemble layer, not to core)
    core_jobs = [o for o in outcomes
                 if o["backend"] != "ensemble" and not o["cache_hit"]]
    for k in CORE_KERNELS + ALE_KERNELS:
        layer = "ale" if k in ALE_KERNELS else "core"
        layers[f"{layer}.{k}_s"] = sum(
            o["kernels"].get(k, {}).get("seconds", 0.0) for o in core_jobs)
        if layer == "core":
            layers[f"core.{k}_calls"] = sum(
                o["kernels"].get(k, {}).get("calls", 0) for o in core_jobs)
    if spec["surface"] == "run":
        loop = outcomes[0]["wall_seconds"]
        nranks = spec["submissions"][0]["configs"][0].get("nranks", 1)
        in_kernels = sum(layers[f"core.{k}_s"] for k in CORE_KERNELS) \
            + layers["ale.alestep_s"]
        layers["core.step_loop_s"] = loop
        layers["core.residue_frac"] = 1.0 - in_kernels / (nranks * loop)
        layers["ale.share"] = layers["ale.alestep_s"] / (nranks * loop)
        for s in spans:
            if s["name"] in ("parallel.prepare", "parallel.gather"):
                layers[s["name"] + "_s"] = harness_spans.duration(s)
        comm = outcomes[0]["comm_total"]
        if comm:
            nstep = max(1, outcomes[0]["nstep"])
            for name in COMM_COUNTS:
                layers[f"parallel.{name}_per_step"] = comm[name] / nstep
    else:
        layers["core.step_loop_s"] = sum(o["wall_seconds"]
                                         for o in core_jobs)

    # fleet: what the sweep itself reports about scheduling and caches
    if handles:
        jobs = len(outcomes)
        workers = max([1] + [s["options"].get("workers", 0)
                             for s in spec["submissions"]])
        live = [o for o in outcomes if not o["cache_hit"]]
        batch_walls = {o["wall_seconds"] for o in live
                       if o["backend"] == "ensemble"}
        job_wall = sum(o["wall_seconds"] for o in live
                       if o["backend"] != "ensemble") + sum(batch_walls)
        layers["fleet.sched_overhead_s"] = wall - job_wall / workers
        layers["fleet.pool_utilisation"] = job_wall / (workers * wall)
        layers["fleet.cache_hit_frac"] = \
            sum(1 for o in outcomes if o["cache_hit"]) / jobs
        layers["fleet.coalesced_frac"] = \
            sum(1 for o in outcomes if o["backend"] == "ensemble") / jobs
        layers["fleet.artifact_hits"] = sum(
            s["artifacts"]["hits"] for s in summaries)
        layers["fleet.ckpt_writes"] = sum(
            1 for h in handles for e in h.events
            if e["event"] == "job_checkpointed")
        # a warm sample's checkpoint directory is what the cold run left
        layers["fleet.ckpt_bytes"] = 0 if spec["warm"] else sum(
            tree_bytes(d["checkpoint_dir"]) for d in dirs
            if "checkpoint_dir" in d)
        cache_bytes = sum(tree_bytes(d["cache_dir"]) for d in dirs
                          if "cache_dir" in d)
        distinct = len({j["key"] for s in summaries for j in s["jobs"]})
        layers["fleet.cache_bytes_per_job"] = cache_bytes / max(1, distinct)
    return layers


# ----------------------------------------------------------------------
# untimed ops: cache filling and cross-checks
# ----------------------------------------------------------------------
def prepare(req: dict) -> dict:
    """Fill a warm workload's caches (outside every timed region) and
    return the directories plus each job's cold digest."""
    spec = dict(req["spec"], replays=1)
    dirs = _make_dirs(spec, req["tmp"])
    cold = sample({"spec": spec, "tmp": req["tmp"], "dirs": dirs})
    return {"dirs": dirs, "cold_digests": cold["digests"],
            "failures": [f["what"] for f in cold["failures"]]}


def _fields_gap(a, b) -> float:
    """Largest difference between two final states, relative to each
    quantity's own scale (coordinates and velocities as vectors: Sod's
    transverse velocity is round-off around zero)."""
    import numpy as np

    worst = 0.0
    for names in (("x", "y"), ("u", "v"), ("rho",), ("e",)):
        scale = max(float(np.abs(getattr(b, n)).max()) for n in names)
        for n in names:
            gap = float(np.abs(getattr(a, n) - getattr(b, n)).max())
            worst = max(worst, gap / (scale or 1.0))
    return worst


def verify(req: dict) -> dict:
    """The cross-checks of one workload (ISSUE 11, first satellite).
    ``sample_digests`` are the digests the timed samples reported."""
    spec = req["spec"]
    name = spec["name"]
    seen = req.get("sample_digests") or []
    failures, info = [], {}
    if name == "strong_p2":
        p2 = RunConfig(**spec["submissions"][0]["configs"][0])
        serial = p2.replace(nranks=1, backend="serial")
        t0 = time.perf_counter()
        rs = run(serial)
        info["serial_wall_s"] = time.perf_counter() - t0
        rp = run(p2)
        gap = _fields_gap(rp.state, rs.state)
        info["serial_gap"] = gap
        if gap > FIELD_TOL:
            failures.append(f"strong_p2 vs serial fields differ by {gap:.2e}")
        digest = state_digest(rp.state, rp.nstep, rp.time)
        if any(d != [digest] for d in seen):
            failures.append("strong_p2 samples disagree with the check run")
        short = p2.replace(max_steps=5)
        a = run(short)
        b = run(short.replace(backend="threads"))
        if state_digest(a.state, a.nstep, a.time) != \
                state_digest(b.state, b.nstep, b.time):
            failures.append("processes x2 and threads x2 digests differ")
        if any(a.comm_total[k] != b.comm_total[k] for k in COMM_COUNTS):
            failures.append("processes x2 and threads x2 comm counts differ")
    elif name == "sweep_batched":
        sub = spec["submissions"][0]
        lane = RunConfig(**dict(sub["configs"][0],
                                problem_kwargs=sub["overrides"][0]))
        solo = run(lane)
        digest = state_digest(solo.state, solo.nstep, solo.time)
        if any(d[0] != digest for d in seen):
            failures.append("sweep_batched lane 0 differs from its solo run")
    elif name == "cli_cold":
        from repro.analytic.riemann import sod_solution

        argv = spec["argv"]
        config = RunConfig(deck=argv[1])
        if "--time-end" in argv:
            config = config.replace(
                time_end=float(argv[argv.index("--time-end") + 1]))
        r = run(config)
        xc, _ = r.state.mesh.cell_centroids(r.state.x, r.state.y)
        exact, _, _ = sod_solution().sample((xc - 0.5) / r.time)
        info["sod_l1"] = float(abs(r.state.rho - exact).mean())
        info["nstep"] = int(r.nstep)
        info["mass"] = float(r.state.total_mass())
        if "--time-end" not in argv and info["sod_l1"] > SOD_L1_BOUND:
            failures.append(
                f"Sod L1 density error {info['sod_l1']:.6f} > {SOD_L1_BOUND}")
    if len({json.dumps(d) for d in seen}) > 1:
        failures.append(f"{name}: samples of one config disagree")
    return {"failures": failures, "info": info}


def versions(_req: dict) -> dict:
    import numpy

    import repro

    return {"numpy": numpy.__version__,
            "repro": getattr(repro, "__version__", None)}


def probes(req: dict) -> dict:
    import probes as probe_module

    return probe_module.run_probes(req["spec"], req["tmp"])


OPS = {"sample": sample, "prepare": prepare, "verify": verify,
       "versions": versions, "probes": probes}


# ----------------------------------------------------------------------
# the fork server
# ----------------------------------------------------------------------
def _serve_one(req: dict) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.setsid()
            # stdout carries the server's replies: anything the program
            # prints goes to stderr instead
            os.dup2(2, 1)
            try:
                reply = OPS[req["op"]](req)
            except BaseException:  # reported to the parent, then exit
                reply = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "w") as fh:
                json.dump(reply, fh, default=repr)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    deadline = time.monotonic() + float(req.get("timeout", 150))
    chunks = []
    timed_out = False
    with os.fdopen(read_fd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fh], [], [], left)[0]:
                timed_out = True
                break
            chunk = os.read(fh.fileno(), 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    # The group dies with the sample: ranks and pool workers of a hung
    # or finished job never outlive it.
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    os.waitpid(pid, 0)
    if timed_out:
        return {"error": f"timed out after {req.get('timeout', 150)} s"}
    try:
        return json.loads(b"".join(chunks).decode())
    except ValueError:
        return {"error": "sample process died without a reply"}


def main() -> int:
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        reply = _serve_one(json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
