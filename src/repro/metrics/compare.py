"""``repro compare`` — diff two run reports or two fleet sweep summaries.

Given two schema-versioned run reports (``--report out.json``) or two
fleet sweep summaries (``fleet --summary``) it prints a per-metric
table (old, new, ratio) and exits nonzero when any gated metric
regressed beyond the threshold, which is what lets a CI step fail a PR
instead of merely attaching artifacts.  Performance is not judged
here: ``bench/`` is the benchmark, and ``bench/compare.py`` its judge.

Gating rules:

* **run reports** — per-kernel ``seconds`` are gated (lower is
  better); kernels below the ``min_seconds`` floor in *both* runs are
  reported but never gated (sub-millisecond timings are noise).
  Comm counters and the embedded diagnostics (energy/mass drift) are
  informational rows: a comm-count change means the algorithm changed,
  which is a review question, not a timing regression.  With
  ``gate_comm=True`` (CLI ``--gate-comm``) the derived
  ``comm.bytes_per_step`` IS gated — comm volume is deterministic
  (schedule-driven), so CI can fail a comm-volume regression without
  any timing-noise floor.
* **fleet summaries** (``repro.fleet`` sweep documents, classified by
  their ``fleet_sweep`` marker) — jobs are matched across documents by
  ``(canonical config key, occurrence)`` and the *intersection's*
  outcome **digests** are gated bit-for-bit: the digest covers the
  exact final-state bytes, clocks and diagnostics stream, so any
  mismatch is a determinism regression regardless of threshold.  Jobs
  present in only one document surface as explicit added/removed rows
  (a grown sweep is not a regression); wall seconds and cache-hit
  counts are informational (a warm cache is *supposed* to change
  them).  ``--gate-outliers`` additionally fails the comparison when
  the new sweep carries harmful cross-job anomaly flags
  (:mod:`repro.metrics.anomaly`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: kernels faster than this in both runs are never gated (timing noise)
DEFAULT_MIN_SECONDS = 1e-3

#: default allowed fractional slowdown before a row counts as regressed
DEFAULT_THRESHOLD = 0.25


@dataclass
class Row:
    """One comparison line: a metric in the old and new documents."""

    name: str
    old: Optional[float]
    new: Optional[float]
    #: "ok" | "regression" | "improved" | "info"
    status: str = "info"
    #: True when this row can flip the exit code
    gated: bool = False

    @property
    def ratio(self) -> Optional[float]:
        if self.old is None or self.new is None or self.old == 0:
            return None
        return self.new / self.old


@dataclass
class CompareResult:
    kind: str                       # "report" | "fleet"
    rows: List[Row] = field(default_factory=list)

    @property
    def regressions(self) -> List[Row]:
        return [r for r in self.rows if r.status == "regression"]

    @property
    def exit_code(self) -> int:
        return 1 if self.regressions else 0


# ----------------------------------------------------------------------
# document classification and loading
# ----------------------------------------------------------------------
def load_document(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def classify(doc: dict) -> str:
    if "fleet_sweep" in doc:
        return "fleet"
    if "kernels" in doc and "run" in doc:
        return "report"
    raise ValueError(
        "not a run report or fleet sweep summary (expected the output "
        "of `run --report` or `fleet --summary`)"
    )


# ----------------------------------------------------------------------
# run-report comparison
# ----------------------------------------------------------------------
def _judge(old: Optional[float], new: Optional[float],
           threshold: float) -> str:
    """Lower is better: every gated report metric is seconds or bytes."""
    if old is None or new is None or old == 0:
        return "info"
    ratio = new / old
    if ratio > 1.0 + threshold:
        return "regression"
    if ratio < 1.0 - threshold:
        return "improved"
    return "ok"


def _comm_bytes_per_step(doc: dict) -> Optional[float]:
    """Comm volume per step, derived (the report schema pins the comm
    entry fields, so the derivation lives here, not in the report)."""
    total = doc.get("comm", {}).get("total", {}).get("bytes")
    steps = doc.get("run", {}).get("steps")
    if total is None or not steps:
        return None
    return total / steps


def compare_reports(old: dict, new: dict, threshold: float,
                    min_seconds: float,
                    gate_comm: bool = False) -> CompareResult:
    result = CompareResult(kind="report")
    kernels = sorted(set(old.get("kernels", {})) | set(new.get("kernels", {})))
    for name in kernels:
        a = old.get("kernels", {}).get(name, {}).get("seconds")
        b = new.get("kernels", {}).get(name, {}).get("seconds")
        gate = (a is not None and b is not None
                and max(a, b) >= min_seconds)
        status = _judge(a, b, threshold) if gate else "info"
        result.rows.append(Row(f"kernels.{name}.seconds", a, b,
                               status=status, gated=gate))
    a, b = _comm_bytes_per_step(old), _comm_bytes_per_step(new)
    if gate_comm and a is not None and b is not None:
        # Comm volume is deterministic (schedule-driven, no timing
        # noise), so it is gated exactly — unlike kernel seconds, no
        # noise floor applies.
        result.rows.append(Row("comm.bytes_per_step", a, b, gated=True,
                               status=_judge(a, b, threshold)))
    else:
        result.rows.append(Row("comm.bytes_per_step", a, b))
    old_total = old.get("comm", {}).get("total", {})
    new_total = new.get("comm", {}).get("total", {})
    for counter in sorted(set(old_total) | set(new_total)):
        result.rows.append(Row(f"comm.total.{counter}",
                               old_total.get(counter),
                               new_total.get(counter)))
    for metric in ("energy_drift", "mass_drift", "total_energy",
                   "hourglass_energy"):
        a = (old.get("diagnostics") or {}).get(metric)
        b = (new.get("diagnostics") or {}).get(metric)
        if a is not None or b is not None:
            result.rows.append(Row(f"diagnostics.{metric}", a, b))
    a, b = old.get("run", {}).get("wall_seconds"), \
        new.get("run", {}).get("wall_seconds")
    result.rows.append(Row("run.wall_seconds", a, b))
    return result


# ----------------------------------------------------------------------
# fleet-summary comparison
# ----------------------------------------------------------------------
def _jobs_by_occurrence(doc: dict) -> Dict[Tuple[str, int], dict]:
    """Index a summary's jobs by ``(key, occurrence)``.

    Submitting the same config twice in one sweep is legal (the second
    is a cache hit), so the canonical key alone is not unique; the
    occurrence counter disambiguates repeats while still lining jobs up
    across documents regardless of submission order.
    """
    seen: Dict[str, int] = {}
    out: Dict[Tuple[str, int], dict] = {}
    for job in doc.get("jobs", []):
        n = seen.get(job["key"], 0)
        seen[job["key"]] = n + 1
        out[(job["key"], n)] = job
    return out


def compare_fleets(old: dict, new: dict,
                   gate_outliers: bool = False) -> CompareResult:
    """Diff two fleet sweep summaries by per-job outcome digest.

    Jobs line up by ``(canonical config key, occurrence)`` — submission
    order may change between sweeps, and the two documents may cover
    *different* job lists (a grown or shrunk sweep).  Only the
    intersection is gated: a digest mismatch on a shared job is a
    bit-exactness regression (no threshold applies); jobs present in
    only one document are reported as explicit ``added``/``removed``
    rows, never gated.  Wall time and cache-hit counts are
    informational.

    ``gate_outliers=True`` additionally gates the *new* document's
    harmful anomaly flags (:mod:`repro.metrics.anomaly`): a job flagged
    slow/heavy against its sweep siblings fails the comparison even
    when its digest matches (bit-identical but 10x slower is still a
    regression).
    """
    result = CompareResult(kind="fleet")
    jobs_old = _jobs_by_occurrence(old)
    jobs_new = _jobs_by_occurrence(new)

    def name_of(key: str, n: int) -> str:
        return (f"jobs[{key[:12]}].digest" if n == 0
                else f"jobs[{key[:12]}#{n}].digest")

    shared = sorted(set(jobs_old) & set(jobs_new))
    removed = sorted(set(jobs_old) - set(jobs_new))
    added = sorted(set(jobs_new) - set(jobs_old))
    for key, n in shared:
        a, b = jobs_old[(key, n)], jobs_new[(key, n)]
        match = a.get("digest") == b.get("digest")
        result.rows.append(Row(
            name_of(key, n), 1.0, 1.0 if match else 0.0, gated=True,
            status="ok" if match else "regression"))
        result.rows.append(Row(name_of(key, n).replace(
            ".digest", ".nstep"), a.get("nstep"), b.get("nstep")))
    for key, n in removed:
        result.rows.append(Row(
            name_of(key, n).replace(".digest", ".removed"), 1.0, None))
    for key, n in added:
        result.rows.append(Row(
            name_of(key, n).replace(".digest", ".added"), None, 1.0))
    if removed or added:
        result.rows.append(Row("jobs.shared", float(len(shared)),
                               float(len(shared))))
    if gate_outliers:
        anomalies = new.get("anomalies")
        if anomalies is None:
            from .anomaly import detect_anomalies

            anomalies = detect_anomalies(new.get("jobs", []))
        harmful = [f for f in anomalies if f.get("harmful")]
        result.rows.append(Row(
            "anomalies.harmful", 0.0, float(len(harmful)), gated=True,
            status="ok" if not harmful else "regression"))
        for flag in harmful:
            result.rows.append(Row(
                f"anomalies.job{flag['job']}.{flag['metric']}.zscore",
                None, flag.get("zscore")))
    for counter in ("jobs", "cache_hits", "ensemble_jobs",
                    "anomalies"):
        a = (old.get("counts") or {}).get(counter)
        b = (new.get("counts") or {}).get(counter)
        if a is not None or b is not None:
            result.rows.append(Row(f"counts.{counter}", a, b))
    result.rows.append(Row("wall_seconds", old.get("wall_seconds"),
                           new.get("wall_seconds")))
    return result


# ----------------------------------------------------------------------
# entry point + table rendering
# ----------------------------------------------------------------------
def compare_files(path_old: str, path_new: str,
                  threshold: float = DEFAULT_THRESHOLD,
                  min_seconds: float = DEFAULT_MIN_SECONDS,
                  gate_comm: bool = False,
                  gate_outliers: bool = False) -> CompareResult:
    old, new = load_document(path_old), load_document(path_new)
    kind_old, kind_new = classify(old), classify(new)
    if kind_old != kind_new:
        raise ValueError(
            f"cannot compare a {kind_old} against a {kind_new}"
        )
    if kind_old == "fleet":
        return compare_fleets(old, new, gate_outliers=gate_outliers)
    return compare_reports(old, new, threshold, min_seconds,
                           gate_comm=gate_comm)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.6g}"


def format_table(result: CompareResult) -> str:
    headers = ("metric", "old", "new", "ratio", "status")
    body = []
    for row in result.rows:
        ratio = row.ratio
        body.append((
            row.name, _fmt(row.old), _fmt(row.new),
            "-" if ratio is None else f"{ratio:.3f}",
            row.status if row.gated else "info",
        ))
    widths = [max(len(h), *(len(r[i]) for r in body)) if body else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in body:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    n = len(result.regressions)
    lines.append("")
    lines.append(f"{n} regression(s)" if n else "no regressions")
    return "\n".join(lines)
