#!/usr/bin/env python
"""Merge ``BENCH_*.json`` artifacts into one ``BENCH_summary.json``.

Each bench harness (``benchmarks/bench_backends.py``,
``benchmarks/bench_scaling.py``, ...) writes a self-describing JSON
document tagged by its ``"bench"`` key.  CI runs them on every push,
but a single run is noisy; this tool folds any number of bench
documents — including a previous ``BENCH_summary.json`` — into one
best-observed summary, so the summary improves monotonically as
history accumulates:

    python tools/bench_history.py BENCH_*.json -o BENCH_summary.json

Merge rules (per bench kind, keyed by the rung/case identity):

* ``comm-backend-comparison``: per ``(problem, nx, backend, nranks)``
  keep the minimum ``seconds`` / ``seconds_per_step``.
* ``commplan-scaling``: per ``(backend, nranks, comm_plan)`` keep the
  minimum wall/comm seconds and the best efficiency; the comm volume
  (``bytes_per_step``/``messages_per_step``) is deterministic, so the
  latest document's values are carried verbatim, as are the
  packed-vs-legacy duel and the mailbox-shrink block.
* ``comm-overlap-scaling``: same keying and rules as
  ``commplan-scaling`` with the split comm accounting — the blocking
  ``comm_seconds`` and the overlapped ``comm_overlap_seconds`` each
  take their minimum — and the overlap-vs-packed duel block carried
  from the latest document.
* ``fleet-scheduler``: per ``(nx, jobs)`` keep the fastest cold/warm
  cache sweep and fast-path duel seconds, and the best warm-cache and
  fast-path speedups.
* ``sweep-observability``: per ``(nx, max_steps, mode)`` rung keep the
  minimum ``seconds`` and the minimum ``overhead_frac`` ever observed
  (the overhead claim, like the timings, improves monotonically).
* anything else: kept verbatim under ``"other"``, last-writer-wins by
  ``bench`` name (so new bench kinds flow through without code here).

Every folded slot carries two honest counters: ``documents`` (how many
bench documents contributed to it) and ``samples`` (the total *timed
samples* behind it, summed from each run's own ``samples`` count or
its recorded ``sample_seconds``).  Summary schema v1 conflated the
two — its ``samples`` counter actually counted documents — so v1
summaries are migrated on read (``samples`` -> ``documents``; the true
sample totals restart from the raw artifacts folded after migration).

Output is deterministic (sorted keys, sorted entries) so committing
the summary produces reviewable diffs.  Exit codes: 0 on success, 2
when no input documents could be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

SUMMARY_SCHEMA_VERSION = 2

BACKENDS = "comm-backend-comparison"
SCALING = "commplan-scaling"
OVERLAP = "comm-overlap-scaling"
FLEET = "fleet-scheduler"
OBSERVABILITY = "sweep-observability"


def _fold_min(slot: dict, row: dict, key: str) -> None:
    if key in row:
        have = slot.get(key)
        slot[key] = row[key] if have is None else min(have, row[key])


def _fold_max(slot: dict, row: dict, key: str) -> None:
    if key in row:
        have = slot.get(key)
        slot[key] = row[key] if have is None else max(have, row[key])


def _fold_counts(slot: dict, row: dict) -> None:
    """Accumulate the document and timed-sample counters honestly.

    ``row`` is either a raw bench entry (one document's contribution;
    its ``samples``/``sample_seconds`` give the real timed count) or a
    previously folded summary slot (its counters transfer verbatim).
    """
    slot["documents"] = (slot.get("documents", 0)
                         + int(row.get("documents", 1)))
    n = row.get("samples")
    if isinstance(n, list):
        # Legacy artifacts recorded the timed seconds *list* under
        # ``samples`` (today split into samples/sample_seconds).
        n = len(n)
    if n is None:
        n = len(row.get("sample_seconds", []))
    if n:
        slot["samples"] = slot.get("samples", 0) + int(n)


def fold_backends(summary: dict, doc: dict) -> None:
    """Best-of per (problem, nx, backend, nranks) leg."""
    slots: Dict[tuple, dict] = {
        (r["problem"], r["nx"], r["backend"], r["nranks"]): r
        for r in summary.get("runs", [])
    }
    for case in doc.get("cases", []):
        for run in case.get("runs", []):
            key = (case["problem"], case["nx"],
                   run["backend"], run["nranks"])
            slot = slots.setdefault(key, {
                "problem": case["problem"], "nx": case["nx"],
                "backend": run["backend"], "nranks": run["nranks"],
            })
            slot.setdefault("ncell", case.get("ncell"))
            _fold_min(slot, run, "seconds")
            _fold_min(slot, run, "seconds_per_step")
            _fold_counts(slot, run)
    summary["runs"] = [slots[k] for k in sorted(slots)]


def fold_fleet(summary: dict, doc: dict) -> None:
    """Best-of per (nx, jobs) fleet-scheduler run: fastest cold/warm
    cache sweep and fast-path duel, highest speedups."""
    slots: Dict[tuple, dict] = {
        (r["nx"], r["jobs"]): r for r in summary.get("runs", [])
    }
    cache, duel = doc.get("cache"), doc.get("duel")
    if cache is not None:
        key = (doc.get("nx"), cache.get("jobs"))
        slot = slots.setdefault(key, {"nx": doc.get("nx"),
                                      "jobs": cache.get("jobs")})
        _fold_min(slot, cache, "cold_seconds")
        _fold_min(slot, cache, "warm_seconds")
        _fold_max(slot, cache, "warm_speedup")
        if duel is not None:
            _fold_min(slot, duel, "seconds")
            _fold_min(slot, duel, "seconds_perjob")
            _fold_max(slot, duel, "speedup")
        _fold_counts(slot, cache)
    else:
        # a previously folded summary slot round-trips verbatim
        for row in doc.get("runs", []):
            key = (row.get("nx"), row.get("jobs"))
            slot = slots.setdefault(key, {"nx": row.get("nx"),
                                          "jobs": row.get("jobs")})
            for field in ("cold_seconds", "warm_seconds", "seconds",
                          "seconds_perjob"):
                _fold_min(slot, row, field)
            for field in ("warm_speedup", "speedup"):
                _fold_max(slot, row, field)
            _fold_counts(slot, row)
    summary["runs"] = [slots[k] for k in sorted(slots)]


def fold_observability(summary: dict, doc: dict) -> None:
    """Best-of per (nx, max_steps, mode) telemetry-overhead rung."""
    slots: Dict[tuple, dict] = {
        (r["nx"], r["max_steps"], r["mode"]): r
        for r in summary.get("runs", [])
    }
    nx = doc.get("nx")
    max_steps = doc.get("max_steps")
    for rung in doc.get("rungs", []):
        row_nx = rung.get("nx", nx)
        row_steps = rung.get("max_steps", max_steps)
        key = (row_nx, row_steps, rung["mode"])
        slot = slots.setdefault(key, {
            "nx": row_nx, "max_steps": row_steps,
            "mode": rung["mode"],
        })
        _fold_min(slot, rung, "seconds")
        _fold_min(slot, rung, "overhead_frac")
        _fold_counts(slot, rung)
    summary["runs"] = [slots[k] for k in sorted(
        slots, key=lambda k: (k[0] or 0, k[1] or 0, k[2]))]
    if doc.get("target_profile_overhead") is not None:
        summary["target_profile_overhead"] = doc["target_profile_overhead"]


def fold_scaling(summary: dict, doc: dict) -> None:
    """Best-of per (backend, nranks, comm_plan) scaling rung."""
    slots: Dict[tuple, dict] = {
        (r["backend"], r["nranks"], r.get("comm_plan", "packed")): r
        for r in summary.get("runs", [])
    }
    for case in doc.get("cases", []):
        key = (case["backend"], case["nranks"],
               case.get("comm_plan", "packed"))
        slot = slots.setdefault(key, {
            "backend": case["backend"], "nranks": case["nranks"],
            "comm_plan": case.get("comm_plan", "packed"),
        })
        _fold_min(slot, case, "wall_seconds")
        _fold_min(slot, case, "comm_seconds")
        if case.get("efficiency") is not None:
            _fold_max(slot, case, "efficiency")
        # comm volume is schedule-driven, not noisy: carry verbatim
        for det in ("bytes_per_step", "messages_per_step", "steps"):
            if det in case:
                slot[det] = case[det]
        _fold_counts(slot, case)
    summary["runs"] = [slots[k] for k in sorted(slots)]
    for block in ("packed_vs_legacy", "mailbox"):
        if doc.get(block) is not None:
            summary[block] = doc[block]


def fold_overlap(summary: dict, doc: dict) -> None:
    """Best-of per (backend, nranks, comm_plan) overlap-scaling rung."""
    slots: Dict[tuple, dict] = {
        (r["backend"], r["nranks"], r["comm_plan"]): r
        for r in summary.get("runs", [])
    }
    for case in doc.get("cases", []):
        key = (case["backend"], case["nranks"], case["comm_plan"])
        slot = slots.setdefault(key, {
            "backend": case["backend"], "nranks": case["nranks"],
            "comm_plan": case["comm_plan"],
        })
        _fold_min(slot, case, "wall_seconds")
        _fold_min(slot, case, "comm_seconds")
        _fold_min(slot, case, "comm_overlap_seconds")
        if case.get("efficiency") is not None:
            _fold_max(slot, case, "efficiency")
        # comm volume is schedule-driven, not noisy: carry verbatim
        for det in ("bytes_per_step", "messages_per_step", "steps"):
            if det in case:
                slot[det] = case[det]
        _fold_counts(slot, case)
    summary["runs"] = [slots[k] for k in sorted(slots)]
    for block in ("overlap_vs_packed", "mailbox"):
        if doc.get(block) is not None:
            summary[block] = doc[block]


def _migrate_v1(doc: dict) -> None:
    """Upgrade a schema-v1 summary in place before refolding.

    v1's per-slot ``samples`` counter actually counted folded
    *documents* (each fold added 1 regardless of how many timed
    samples the run took), so it is renamed to ``documents``; the real
    sample totals cannot be reconstructed and restart from the raw
    artifacts folded after migration.
    """
    for section in doc.get("benches", {}).values():
        for row in section.get("rungs", []) + section.get("runs", []):
            if "documents" not in row and "samples" in row:
                row["documents"] = row.pop("samples")


def merge(documents: List[dict]) -> dict:
    """Fold bench documents (oldest first) into one summary dict."""
    summary: dict = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "benches": {},
        "other": {},
        "documents_merged": 0,
    }
    for doc in documents:
        if "benches" in doc and "schema_version" in doc:
            # A previous summary: recurse into its per-bench sections
            # so summaries compose (old summary + new raw artifacts).
            if doc.get("schema_version", 1) < 2:
                _migrate_v1(doc)
            summary["documents_merged"] += doc.get("documents_merged", 0)
            for name, section in sorted(doc.get("benches", {}).items()):
                fold = {BACKENDS: fold_backends,
                        SCALING: fold_scaling,
                        OVERLAP: fold_overlap,
                        FLEET: fold_fleet,
                        OBSERVABILITY: fold_observability}.get(name)
                if fold is None:
                    # e.g. a retired kind in an old summary
                    summary["other"][name] = section
                    continue
                target = summary["benches"].setdefault(name, {})
                if name == SCALING:
                    fold(target, {
                        "cases": section.get("runs", []),
                        "packed_vs_legacy": section.get("packed_vs_legacy"),
                        "mailbox": section.get("mailbox"),
                    })
                elif name == OVERLAP:
                    fold(target, {
                        "cases": section.get("runs", []),
                        "overlap_vs_packed": section.get("overlap_vs_packed"),
                        "mailbox": section.get("mailbox"),
                    })
                elif name == FLEET:
                    fold(target, {"runs": section.get("runs", [])})
                elif name == OBSERVABILITY:
                    fold(target, {
                        "rungs": section.get("runs", []),
                        "target_profile_overhead":
                            section.get("target_profile_overhead"),
                    })
                else:
                    # Re-fold summary runs as one-run cases.
                    cases = [{"problem": r["problem"], "nx": r["nx"],
                              "ncell": r.get("ncell"), "runs": [r]}
                             for r in section.get("runs", [])]
                    fold(target, {"cases": cases})
            summary["other"].update(doc.get("other", {}))
            continue
        name = doc.get("bench")
        summary["documents_merged"] += 1
        if name == BACKENDS:
            fold_backends(summary["benches"].setdefault(name, {}), doc)
        elif name == SCALING:
            fold_scaling(summary["benches"].setdefault(name, {}), doc)
        elif name == OVERLAP:
            fold_overlap(summary["benches"].setdefault(name, {}), doc)
        elif name == FLEET:
            fold_fleet(summary["benches"].setdefault(name, {}), doc)
        elif name == OBSERVABILITY:
            fold_observability(summary["benches"].setdefault(name, {}),
                               doc)
        else:
            summary["other"][str(name)] = doc
    return summary


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_history",
        description="merge BENCH_*.json artifacts into BENCH_summary.json",
    )
    parser.add_argument("inputs", nargs="+",
                        help="bench JSON files (a previous summary may "
                             "be among them)")
    parser.add_argument("-o", "--output", default="BENCH_summary.json",
                        help="summary path (default: %(default)s)")
    args = parser.parse_args(argv)

    documents = []
    for path in args.inputs:
        try:
            documents.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as exc:
            print(f"bench_history: skipping {path}: {exc}",
                  file=sys.stderr)
    if not documents:
        print("bench_history: no readable input documents",
              file=sys.stderr)
        return 2

    summary = merge(documents)
    out = Path(args.output)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    nb = len(summary["benches"]) + len(summary["other"])
    print(f"wrote {out} ({summary['documents_merged']} document(s), "
          f"{nb} bench kind(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
