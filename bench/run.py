#!/usr/bin/env python3
"""bench/run.py — the end-to-end + per-layer benchmark.

Two ways in, one engine:

* ``python bench/run.py [--seed N] [--quick] [--trace]`` runs all seven
  workloads round-robin, prints every metric by name with unit, median,
  quartiles and sample count, verifies the outputs and writes
  ``bench/out/results.json`` and ``manifest.json`` (plus one
  ``trace-<workload>.json`` per workload with ``--trace``).
* ``python bench/run.py --workload W --seed N --seconds S --trace 0|1``
  is the form the PR driver calls: one workload, measured for S
  seconds, one JSON object as the last line of stdout.

End-to-end numbers come from untraced samples through the public
surfaces only (``repro.api.run`` / ``submit`` in a forked sample
process, ``python -m repro run`` in a fresh interpreter).  The traced
pass alternates plain and traced samples, so their wall difference is
the tracing overhead, and adds the direct layer probes.  This file
never imports ``repro``; ``child.py`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import spans as harness_spans  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 3
SUITE_ROUNDS = 6
QUICK_ROUNDS = 2
OP_TIMEOUT = 150.0
SHORT_TWIN_S = 0.25


# ----------------------------------------------------------------------
# processes and scratch space
# ----------------------------------------------------------------------
class Harness:
    """Owns everything a run leaves behind while it runs: the sample
    server, CLI children and a scratch directory inside ``bench/out``
    (the benchmark writes nowhere else).  Leaving the ``with`` block
    stops every process and removes the scratch directory."""

    def __enter__(self):
        os.makedirs(OUT, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
        self.env = dict(os.environ, **workloads.THREAD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src")]
            + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.env["TMPDIR"] = self.tmp
        # Users run with bytecode caches; a sandbox that disables them
        # would charge a recompile to every cold start.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._count = 0
        self.server = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=ROOT, start_new_session=True)
        return self

    def __exit__(self, *exc):
        try:
            self.server.stdin.close()
            self.server.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            pass
        try:
            os.killpg(self.server.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.server.wait()
        self.server.stdout.close()
        shutil.rmtree(self.tmp, ignore_errors=True)

    def fresh_dir(self) -> str:
        self._count += 1
        path = os.path.join(self.tmp, f"s{self._count}")
        os.makedirs(path)
        return path

    def call(self, op: str, keep_tmp: bool = False, **request) -> dict:
        """One request to the sample server, in its own scratch dir."""
        tmp = self.fresh_dir()
        request.update(op=op, tmp=tmp, timeout=OP_TIMEOUT)
        try:
            self.server.stdin.write(json.dumps(request) + "\n")
            self.server.stdin.flush()
            line = self.server.stdout.readline()
        except OSError as exc:
            line = ""
            reply = {"error": f"sample server unreachable: {exc}"}
        if line:
            reply = json.loads(line)
        elif self.server.poll() is not None:
            reply = {"error": "sample server exited "
                              f"({self.server.returncode}); is src/repro "
                              "importable?"}
        if not keep_tmp:
            shutil.rmtree(tmp, ignore_errors=True)
        return reply

    def spawn(self, argv: list, timeout: float = OP_TIMEOUT) -> dict:
        """Run ``python <argv>`` in a fresh interpreter: wall from spawn
        to exit, peak RSS from the child's own rusage (``wait4``)."""
        tmp = self.fresh_dir()
        paths = [os.path.join(tmp, n) for n in ("stdout", "stderr")]
        with open(paths[0], "w") as out, open(paths[1], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                    stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        texts = []
        for path in paths:
            with open(path, encoding="utf-8", errors="replace") as fh:
                texts.append(fh.read())
        shutil.rmtree(tmp, ignore_errors=True)
        return {"wall_s": wall, "code": proc.returncode,
                "rss_kb": usage.ru_maxrss, "stdout": texts[0],
                "stderr": texts[1]}


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
def cli_sample(h: Harness, spec: dict) -> dict:
    """One ``cli_cold`` sample: spawn ``python -m repro run <deck>
    --report <tmp>`` and read back what it printed and wrote."""
    tmp = h.fresh_dir()
    report_path = os.path.join(tmp, "report.json")
    res = h.spawn(["-m", "repro"] + spec["argv"] + ["--report", report_path])
    out = {"wall_s": res["wall_s"], "rss_kb": res["rss_kb"], "ops": 1,
           "failures": [], "work": 0, "digests": [], "keys": []}
    if res["code"] != 0:
        out["failures"].append(
            {"job": 0, "what": f"cli exited {res['code']}: "
                               f"{res['stderr'].strip()[-300:]}"})
    else:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        out["report"] = report
        out["work"] = report["problem"]["ncell"] * report["run"]["steps"]
        match = re.search(r"mass=(\S+)", res["stdout"])
        out["mass"] = float(match.group(1)) if match else None
        out["digests"] = [[report["run"]["steps"], report["run"]["time"]]]
    shutil.rmtree(tmp, ignore_errors=True)
    return out


def take_sample(h: Harness, spec: dict, state: dict,
                traced: bool = False) -> dict:
    if spec["surface"] == "cli":
        return cli_sample(h, spec)
    reply = h.call("sample", spec=spec, traced=traced,
                   dirs=state.get("dirs"),
                   cold_digests=state.get("cold_digests"))
    if "error" in reply:
        return {"error": reply["error"], "ops": workloads.n_ops(spec)}
    return reply


class Record:
    """Everything measured for one workload in one benchmark run."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.twin = workloads.twin(spec)
        self.state = {}       # warm workloads: cache dirs + cold digests
        self.twin_state = {}
        self.prepared = False
        # end-to-end samples (untraced)
        self.walls, self.setups, self.rss, self.rates = [], [], [], []
        # traced pass: its own plain/traced wall pairs, layer samples
        self.plain_walls, self.traced_walls = [], []
        self.layers = {}
        self.absent = {}
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = []
        self.keys = []
        self.cli = []          # cli_cold: what each sample reported
        self.info = {}

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)

    def prepare(self, h: Harness) -> None:
        """Fill a warm workload's caches outside every timed region,
        then one discarded zero-step sample (imports, bytecode)."""
        if self.prepared:
            return
        self.prepared = True
        if self.spec["warm"]:
            for spec, state in ((self.spec, self.state),
                                (self.twin, self.twin_state)):
                reply = h.call("prepare", keep_tmp=True, spec=spec)
                if "error" in reply or reply["failures"]:
                    self.fail(f"{spec['name']}: cache fill failed: "
                              f"{reply.get('error') or reply['failures']}")
                else:
                    state.update(dirs=reply["dirs"],
                                 cold_digests=reply["cold_digests"])
        self.add_twin(h, keep=False)

    def add_twin(self, h: Harness, keep: bool = True) -> None:
        """Zero-step twin samples: one, or three when they are short
        (tens of milliseconds repeat worse than seconds do)."""
        for _ in range(3):
            res = take_sample(h, self.twin, self.twin_state)
            if "error" in res or res["failures"]:
                self.fail(f"{self.twin['name']}: "
                          f"{res.get('error') or res['failures'][:3]}", 0)
                return
            if keep:
                self.setups.append(res["wall_s"])
            if not keep or res["wall_s"] > SHORT_TWIN_S:
                return

    def add_sample(self, h: Harness, traced: bool = False):
        """One sample with its bookkeeping (attempted / failed /
        digests); returns the sample, or None when it crashed."""
        res = take_sample(h, self.spec, self.state, traced=traced)
        self.attempted += res["ops"]
        if "error" in res:
            self.fail(f"{self.spec['name']}: {res['error']}", res["ops"])
            return None
        self.failed += len({f["job"] for f in res["failures"]})
        self.failures += [f["what"] for f in res["failures"]]
        self.digests.append(res["digests"])
        self.keys = res["keys"] or self.keys
        if "report" in res:
            self.cli.append({"steps": res["report"]["run"]["steps"],
                             "mass": res["mass"]})
        return res

    def add_timed(self, h: Harness) -> None:
        res = self.add_sample(h)
        if res is not None:
            self.walls.append(res["wall_s"])
            self.rates.append(res["work"] / res["wall_s"])
            self.rss.append(res["rss_kb"])

    def add_layers(self, values: dict) -> None:
        for name, value in values.items():
            if isinstance(value, (int, float)):
                self.layers.setdefault(name, []).append(value)
            elif value is not None:
                self.absent[name] = str(value)

    def verify(self, h: Harness) -> None:
        """The workload's cross-checks (untimed)."""
        reply = h.call("verify", spec=self.spec,
                       sample_digests=self.digests)
        if "error" in reply:
            self.fail(f"{self.spec['name']}: verification crashed: "
                      f"{reply['error']}")
            return
        for what in reply["failures"]:
            self.fail(what)
        self.info.update(reply["info"])
        for sample in self.cli:
            steps, mass = self.info.get("nstep"), self.info.get("mass")
            if sample["steps"] != steps:
                self.fail(f"cli took {sample['steps']} steps, "
                          f"api.run {steps}")
            if (sample["mass"] is None or mass is None
                    or abs(sample["mass"] - mass) > 1e-5 * abs(mass)):
                self.fail(f"cli printed mass {sample['mass']}, "
                          f"api.run has {mass}")

    # -- results -------------------------------------------------------
    def end_to_end(self) -> dict:
        values = {
            "wall_s": self.walls,
            "cell_updates_per_s": self.rates,
            "setup_s": self.setups,
            "peak_rss_mb": [kb / 1024.0 for kb in self.rss],
            "failed_frac": [self.failed / max(1, self.attempted)],
        }
        return {name: summarise(samples, metrics.E2E_UNITS[name])
                for name, samples in values.items()}

    def per_layer(self) -> dict:
        """Every per-layer metric: the median of its samples, 0 where
        this workload bypasses the layer, null where a probe's target
        no longer exists."""
        out = {}
        for name, unit, _ in metrics.PER_LAYER:
            if name in self.absent:
                out[name] = {"unit": unit, "value": None, "n": 0,
                             "reason": self.absent[name]}
            else:
                samples = self.layers.get(name, [])
                out[name] = {"unit": unit, "n": len(samples),
                             "value": (statistics.median(samples)
                                       if samples else 0.0)}
        return out


def summarise(samples: list, unit: str) -> dict:
    if not samples:
        return {"unit": unit, "median": None, "q1": None, "q3": None,
                "n": 0, "samples": []}
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"unit": unit, "median": statistics.median(samples),
            "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


# ----------------------------------------------------------------------
# the two passes
# ----------------------------------------------------------------------
def run_rounds(one_round, rounds=None, seconds=None, min_rounds=1):
    """Call ``one_round`` a fixed number of times, or for ``seconds``:
    at least ``min_rounds``, and never starting a round that the last
    one says would not finish in time."""
    start = time.perf_counter()
    done, last = 0, 0.0
    while True:
        if rounds is not None:
            if done >= rounds:
                return
        elif done >= min_rounds and \
                time.perf_counter() - start + last > seconds:
            return
        t0 = time.perf_counter()
        one_round()
        last = time.perf_counter() - t0
        done += 1


def timed_pass(h: Harness, records: list, rounds=None, seconds=None):
    """Untraced end-to-end samples: per round and workload one zero-step
    twin (-> setup_s) and one full sample, workloads interleaved
    round-robin so slow drift of the host hits them alike."""
    for record in records:
        record.prepare(h)

    def one_round():
        for record in records:
            # cli_cold's samples are short: two per round, so a full
            # run has >= 9
            for _ in range(2 if record.spec["surface"] == "cli" else 1):
                record.add_twin(h)
                record.add_timed(h)

    run_rounds(one_round, rounds, seconds, min_rounds=MIN_ROUNDS)


IMPORT_ROW = re.compile(r"import time:\s+(\d+) \|\s+\d+ \| +(\S+)$")


def cli_probes(h: Harness) -> dict:
    """Interpreter start, import cost, and the three packages whose
    modules take the most import time of their own (``-X importtime``
    self times, summed by top-level package) — each from fresh
    interpreters."""
    def wall(argv):
        return statistics.median(h.spawn(argv)["wall_s"] for _ in range(3))

    interp = wall(["-c", "pass"])
    imported = wall(["-c", "import repro.api"])
    listing = h.spawn(["-X", "importtime", "-c", "import repro.api"])
    by_package = {}
    for line in listing["stderr"].splitlines():
        match = IMPORT_ROW.match(line)
        if match:
            package = match.group(2).split(".")[0]
            by_package[package] = by_package.get(package, 0) \
                + int(match.group(1))
    top = sorted(by_package.items(), key=lambda kv: -kv[1])[:3]
    return {"values": {"cli.interp_s": interp,
                       "cli.import_s": imported - interp,
                       "cli.import_top3": sum(us for _, us in top) / 1e6},
            "import_top3": [{"package": name, "self_s": us / 1e6}
                            for name, us in top]}


def cli_layers(sample: dict, probe_values: dict) -> dict:
    """cli_cold's per-layer numbers: the kernels from its own report;
    the residue is the wall that interpreter start, imports and the
    step loop do not account for (deck, registry, report write)."""
    report = sample["report"]
    layers = {}
    for k, entry in report["kernels"].items():
        layer = "ale" if k.startswith("ale") else "core"
        layers[f"{layer}.{k}_s"] = entry["seconds"]
        if layer == "core":
            layers[f"core.{k}_calls"] = entry["calls"]
    loop = report["run"]["wall_seconds"]
    in_kernels = sum(e["seconds"] for k, e in report["kernels"].items()
                     if k in metrics.KERNELS or k == "alestep")
    layers["core.step_loop_s"] = loop
    layers["core.residue_frac"] = 1.0 - in_kernels / loop if loop else 0.0
    covered = loop + (probe_values.get("cli.interp_s") or 0.0) \
        + (probe_values.get("cli.import_s") or 0.0)
    layers["bench.residue_frac"] = 1.0 - covered / sample["wall_s"]
    return {k: v for k, v in layers.items() if k in metrics.LAYER_UNITS}


def traced_pass(h: Harness, record: Record, rounds=None, seconds=None):
    """Per-layer numbers for one workload: the direct probes, then plain
    and traced samples alternated — their wall difference is the
    tracing overhead."""
    start = time.perf_counter()
    spec = record.spec
    record.prepare(h)
    reply = h.call("probes", spec=spec)
    probe_values = {}
    if "error" in reply:
        record.fail(f"{spec['name']}: probes crashed: {reply['error']}")
    else:
        probe_values = reply["values"]
        record.absent.update(reply["absent"])
    if spec["surface"] == "cli":
        cli = cli_probes(h)
        probe_values.update(cli["values"])
        record.info["import_top3"] = cli["import_top3"]
    record.add_layers(probe_values)

    def one_round():
        plain = record.add_sample(h)
        traced = record.add_sample(h, traced=True)
        if plain is None or traced is None:
            return
        record.plain_walls.append(plain["wall_s"])
        record.traced_walls.append(traced["wall_s"])
        if "report" in traced:
            # a CLI spawn has nothing to switch on: both samples are
            # plain, the second is read for its layers
            record.add_layers(cli_layers(traced, probe_values))
        else:
            record.add_layers(traced["layers"])
            record.add_layers({"bench.residue_frac":
                               harness_spans.residue_frac(traced["spans"])})
            record.spans = traced["spans"]

    # The first full sample after an idle stretch reads slow (seen at
    # +40% on strong_p2); with one or two pairs a median cannot absorb
    # it, so it is taken and dropped here.
    record.add_sample(h)
    if seconds is not None:
        seconds = max(0.0, seconds - (time.perf_counter() - start))
    run_rounds(one_round, rounds, seconds)
    if record.plain_walls:
        record.add_layers({
            "bench.trace_overhead_frac":
                statistics.median(record.traced_walls)
                / statistics.median(record.plain_walls) - 1.0})


def finish(h: Harness, records: dict) -> None:
    """Verification, and the one metric that needs two workloads."""
    for record in records.values():
        record.verify(h)
    p2 = records.get("strong_p2")
    if p2 is not None and p2.plain_walls:
        lag = records.get("lag_serial")
        serial = (statistics.median(lag.walls) if lag and lag.walls
                  else p2.info.get("serial_wall_s"))
        if serial:
            p2.add_layers({"parallel.efficiency": serial / (
                2.0 * statistics.median(p2.walls or p2.plain_walls))})


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def print_tables(records: dict, traced: bool) -> None:
    row = "{:<15}{:<36}{:>13}{:>13}{:>13}{:>4}  {}"

    def fmt(v):
        return "-" if v is None else f"{v:.6g}"

    print(row.format("workload", "metric", "median", "q1", "q3", "n",
                     "unit"))
    for name, record in records.items():
        for metric, s in record.end_to_end().items():
            print(row.format(name, metric, fmt(s["median"]), fmt(s["q1"]),
                             fmt(s["q3"]), s["n"], s["unit"]))
    if not traced:
        return
    print("\nper layer (traced pass; layers a workload bypasses read 0 "
          "and are not listed)")
    for name, record in records.items():
        layer = record.per_layer()
        for metric, s in layer.items():
            if s["value"] is None:
                print(row.format(name, metric, "null", "", "", 0,
                                 s["reason"][:50]))
            elif s["value"]:
                print(row.format(name, metric, fmt(s["value"]), "", "",
                                 s["n"], s["unit"]))
        residue = layer["bench.residue_frac"]["value"] or 0.0
        if residue > 0.05:
            print(f"warning: {name}: bench.residue_frac {residue:.3f} "
                  "> 0.05 — harness spans miss part of this wall")
    lag = records.get("lag_serial")
    if lag is not None and "core.step_loop_s" in lag.layers:
        layer = lag.per_layer()
        loop = layer["core.step_loop_s"]["value"]
        print("\nTable II as measured here (lag_serial): kernel, "
              "seconds, calls, share of the step loop")
        for k in sorted(metrics.KERNELS,
                        key=lambda k: -layer[f"core.{k}_s"]["value"]):
            sec = layer[f"core.{k}_s"]["value"]
            print(f"  {k:<10}{sec:>10.4f}"
                  f"{int(layer[f'core.{k}_calls']['value']):>8d}"
                  f"{100.0 * sec / loop:>8.1f}%")
        print(f"  {'(no kernel)':<28}"
              f"{100.0 * layer['core.residue_frac']['value']:>8.1f}%")


def results_doc(args, records: dict, versions: dict) -> dict:
    return {
        "schema": 1,
        "seed": args.seed,
        "quick": args.quick,
        "comparable": not args.quick,
        "host": dict(workloads.host_block(), **versions),
        "workloads": {
            name: {
                "end_to_end": r.end_to_end(),
                "per_layer": r.per_layer() if r.layers else {},
                "attempted": r.attempted,
                "failed": r.failed,
                "failures": r.failures,
                "info": r.info,
                "self_s": harness_spans.self_times(r.spans),
            } for name, r in records.items()
        },
    }


def write_outputs(args, specs, records, versions) -> None:
    def dump(name, doc):
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    dump("results.json", results_doc(args, records, versions))
    keys = {n: list(dict.fromkeys(r.keys)) for n, r in records.items()}
    dump("manifest.json", workloads.manifest(args.seed, args.quick, specs,
                                             keys, versions))
    if args.trace:
        for name, record in records.items():
            dump(f"trace-{name}.json",
                 harness_spans.chrome_trace(record.spans))


def contract_line(record: Record, traced: bool) -> str:
    """The driver's result object: the end-to-end metrics untraced,
    every per-layer metric traced (0 where the workload bypasses the
    layer or a probe's target is gone)."""
    if traced:
        values = {name: {"value": entry["value"] or 0.0,
                         "unit": entry["unit"]}
                  for name, entry in record.per_layer().items()}
    else:
        e2e = record.end_to_end()
        values = {name: {"value": e2e[name]["median"] or 0.0, "unit": unit}
                  for name, unit, _, _ in metrics.END_TO_END}
    return json.dumps({
        "correct": not record.failures and record.attempted > 0,
        "attempted": max(1, record.attempted),
        "failed": record.failed, "metrics": values})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--quick", action="store_true",
                    help="every workload at <= 1/8 size, 2 samples; "
                         "numbers not comparable with a full run")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    help="also run the traced per-layer pass")
    ap.add_argument("--workload", choices=workloads.ORDER,
                    help="driver mode: measure this one workload and "
                         "print one JSON result line")
    ap.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                    help="driver mode: how long to measure")
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2

    specs = workloads.generate(args.seed, quick=args.quick)
    with Harness() as h:
        versions = h.call("versions")
        if "error" in versions:
            print(f"bench: {versions['error']}", file=sys.stderr)
            return 2
        if args.workload:
            record = Record(specs[args.workload])
            if args.trace:
                traced_pass(h, record, seconds=args.seconds)
            else:
                timed_pass(h, [record], seconds=args.seconds)
            finish(h, {args.workload: record})
            for what in record.failures:
                print(f"FAILED: {what}", file=sys.stderr)
            print(contract_line(record, bool(args.trace)))
            return 0
        records = {name: Record(spec) for name, spec in specs.items()}
        timed_pass(h, list(records.values()),
                   rounds=QUICK_ROUNDS if args.quick else SUITE_ROUNDS)
        if args.trace:
            for record in records.values():
                traced_pass(h, record, rounds=1 if args.quick else 2)
        finish(h, records)
        write_outputs(args, specs, records, versions)
    print_tables(records, bool(args.trace))
    failures = [f for r in records.values() for f in r.failures]
    for what in failures:
        print(f"FAILED: {what}")
    if args.quick:
        print("note: --quick numbers are not comparable with a full run")
    print(f"wrote {os.path.relpath(os.path.join(OUT, 'results.json'))}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
