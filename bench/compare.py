#!/usr/bin/env python3
"""bench/compare.py — judge two ``results.json`` files by the bounds in
``BENCHMARK.json``, one row per workload x end-to-end metric.

    python bench/compare.py OLD.json NEW.json
        no-regression check: NEW's median may be worse than OLD's by at
        most the metric's bound.  A row whose run-to-run spread (the
        wider inter-quartile range of the two sides, over OLD's median)
        exceeds the bound is *unresolved*, not unchanged — unless every
        NEW sample reads better than every OLD sample.
    python bench/compare.py --aa A.json B.json
        two result sets of the SAME commit: every row must agree within
        its bound in both directions and the exact counters
        (parallel.*_per_step, core.*_calls, fleet.ckpt_writes,
        fleet.cache_hit_frac) must be identical.
    python bench/compare.py --pairs DIR --workload W --metric M
        a gain claim (choosing-metrics section 8): DIR holds at least ten
        pairs ``<n>.old.json`` / ``<n>.new.json`` measured alternately;
        the claim holds when NEW wins at least 9/10 of the pairs and
        the medians differ by more than OLD's own inter-quartile range.

Exit code 0 when nothing regressed (``--aa``: all rows agree;
``--pairs``: the claim holds), 1 otherwise.  Unresolved rows do not
fail the check; they are printed so nobody reads them as "unchanged".
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
          encoding="utf-8") as _fh:
    #: (name, better, bound) per end-to-end metric, as the driver reads them
    BOUNDS = [(m["name"], m["better"], m["bound"])
              for m in json.load(_fh)["end_to_end"]]


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not doc.get("comparable", True):
        print(f"note: {path} is a --quick run; its numbers are not "
              "comparable with a full run's")
    return doc


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``
    (negative = better)."""
    change = (new - old) / old
    return change if better == "lower" else -change


def iqr(entry: dict) -> float:
    return (entry["q3"] - entry["q1"]) if entry["n"] > 1 else 0.0


def all_better(old: dict, new: dict, better: str) -> bool:
    if better == "lower":
        return max(new["samples"]) < min(old["samples"])
    return min(new["samples"]) > max(old["samples"])


def rows(old: dict, new: dict):
    """(workload, metric, better, bound, old entry, new entry)."""
    for workload, block in old["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            continue
        for name, better, bound in BOUNDS:
            a = block["end_to_end"].get(name)
            b = other["end_to_end"].get(name)
            if a and b and a["median"] and b["median"]:
                yield workload, name, better, bound, a, b


def compare(old: dict, new: dict, aa: bool) -> int:
    fmt = "{:<15}{:<20}{:>13}{:>13}{:>9}{:>8}{:>8}  {}"
    print(fmt.format("workload", "metric", "old", "new", "worse%",
                     "bound%", "spread%", "verdict"))
    bad = 0
    for workload, name, better, bound, a, b in rows(old, new):
        worse = worse_by(a["median"], b["median"], better)
        spread = max(iqr(a), iqr(b)) / abs(a["median"])
        if aa:
            ok = abs(worse) <= bound
            verdict = "agree" if ok else "DISAGREE"
        elif spread > bound and not all_better(a, b, better):
            ok, verdict = True, "unresolved (spread > bound)"
        else:
            ok = worse <= bound
            verdict = "ok" if ok else "REGRESSION"
        bad += not ok
        print(fmt.format(workload, name, f"{a['median']:.6g}",
                         f"{b['median']:.6g}", f"{100 * worse:+.1f}",
                         f"{100 * bound:.0f}", f"{100 * spread:.1f}",
                         verdict))
    for workload, block in old["workloads"].items():
        other = new["workloads"].get(workload, {})
        fa, fb = block["failed"], other.get("failed", 0)
        if fb > fa or (aa and fa != fb):
            bad += 1
            print(f"{workload}: failed operations {fa} -> {fb}  FAILED")
        if aa:
            bad += exact_counters(workload, block, other)
    return bad


def exact_counters(workload: str, a: dict, b: dict) -> int:
    bad = 0
    for name in metrics.EXACT:
        va = a.get("per_layer", {}).get(name, {}).get("value")
        vb = b.get("per_layer", {}).get(name, {}).get("value")
        if va != vb:
            bad += 1
            print(f"{workload}: {name} {va} != {vb}  NOT EXACT")
    return bad


def pairs(directory: str, workload: str, metric: str) -> int:
    directions = {name: better for name, better, _ in BOUNDS}
    if metric not in directions:
        print(f"unknown end-to-end metric {metric!r}")
        return 1
    better = directions[metric]
    olds = sorted(glob.glob(os.path.join(directory, "*.old.json")))
    values = []
    for old_path in olds:
        new_path = old_path[:-len(".old.json")] + ".new.json"
        if os.path.exists(new_path):
            a = load(old_path)["workloads"][workload]["end_to_end"][metric]
            b = load(new_path)["workloads"][workload]["end_to_end"][metric]
            values.append((a["median"], b["median"]))
    if len(values) < 10:
        print(f"{len(values)} pairs in {directory}; a claim needs >= 10")
        return 1
    wins = sum(1 for a, b in values if worse_by(a, b, better) < 0)
    ties = sum(1 for a, b in values if a == b)
    old_vals = [a for a, _ in values]
    new_vals = [b for _, b in values]
    q1, _, q3 = statistics.quantiles(old_vals, n=4)
    gap = abs(statistics.median(new_vals) - statistics.median(old_vals))
    decided = len(values) - ties
    holds = decided > 0 and wins >= 0.9 * decided and gap > (q3 - q1)
    print(f"{workload} {metric}: {wins}/{decided} pairs won "
          f"({ties} ties); old median {statistics.median(old_vals):.6g} "
          f"[IQR {q3 - q1:.3g}], new median "
          f"{statistics.median(new_vals):.6g}, gap {gap:.3g}")
    print("claim holds" if holds else "claim NOT met")
    return 0 if holds else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--aa", action="store_true",
                    help="OLD and NEW are two runs of the same commit")
    ap.add_argument("--pairs", metavar="DIR",
                    help="judge a gain claim from alternating pairs")
    ap.add_argument("--workload")
    ap.add_argument("--metric")
    args = ap.parse_args(argv)
    if args.pairs:
        if not (args.workload and args.metric):
            ap.error("--pairs needs --workload and --metric: a claim "
                     "names both")
        return pairs(args.pairs, args.workload, args.metric)
    if not (args.old and args.new):
        ap.error("give OLD.json and NEW.json")
    return 1 if compare(load(args.old), load(args.new), args.aa) else 0


if __name__ == "__main__":
    sys.exit(main())
