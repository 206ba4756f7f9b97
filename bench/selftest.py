#!/usr/bin/env python3
"""bench/selftest.py — plain asserts over a ``--quick`` run (not a
pytest module: the tier-1 suite must not collect a benchmark).

    python bench/selftest.py

Checks that the quick suite exits 0, that every metric ``BENCHMARK.json``
names is in ``results.json`` with a unit, that ``BENCHMARK.json`` is what
``metrics.py`` generates, that the driver form prints a well-formed
result line, and that no scratch directory or child process is left.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import workloads  # noqa: E402


def leftovers() -> list:
    """Scratch directories in bench/out and live processes whose
    command line names a bench file."""
    found = [p for p in os.listdir(OUT) if p.startswith("tmp-")] \
        if os.path.isdir(OUT) else []
    for pid in os.listdir("/proc"):
        if not pid.isdigit() or int(pid) == os.getpid():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmd = fh.read().decode(errors="replace")
        except OSError:
            continue
        if os.path.join(HERE, "child.py") in cmd \
                or os.path.join(HERE, "run.py") in cmd:
            found.append(f"pid {pid}: {cmd}")
    return found


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert declared == metrics.benchmark_json(), \
        "BENCHMARK.json is stale: python bench/metrics.py > BENCHMARK.json"

    run = [sys.executable, os.path.join(HERE, "run.py")]
    quick = subprocess.run(run + ["--quick", "--trace"], cwd=ROOT,
                           capture_output=True, text=True)
    assert quick.returncode == 0, quick.stdout[-3000:] + quick.stderr[-3000:]
    assert not leftovers(), leftovers()

    with open(os.path.join(OUT, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    assert results["comparable"] is False, "--quick must flag its numbers"
    assert list(results["workloads"]) == list(workloads.ORDER)
    for name, block in results["workloads"].items():
        assert block["failed"] == 0 and not block["failures"], \
            (name, block["failures"])
        for metric in declared["end_to_end"]:
            entry = block["end_to_end"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric, entry)
            assert entry["median"] and entry["n"] >= 2, (name, metric, entry)
        for metric in declared["per_layer"]:
            entry = block["per_layer"][metric["name"]]
            assert entry["unit"] == metric["unit"], (name, metric, entry)
            assert entry["value"] is not None or entry["reason"], \
                (name, metric, entry)
    for name in workloads.ORDER:
        assert os.path.exists(os.path.join(OUT, f"trace-{name}.json")), name
    with open(os.path.join(OUT, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["host"]["nproc"] and manifest["host"]["numpy"]
    assert all(w["why"] for w in manifest["workloads"])

    for trace in ("0", "1"):
        driver = subprocess.run(
            run + ["--workload", "sweep_warm", "--seed", "3", "--seconds",
                   "1", "--trace", trace], cwd=ROOT, capture_output=True,
            text=True)
        assert driver.returncode == 0, driver.stderr[-3000:]
        line = json.loads(driver.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0, line
        want = declared["per_layer"] if trace == "1" \
            else declared["end_to_end"]
        assert set(line["metrics"]) == {m["name"] for m in want}
        assert all(isinstance(v["value"], (int, float)) and v["unit"]
                   for v in line["metrics"].values())
    assert not leftovers(), leftovers()
    print("bench selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
