"""The Prometheus text exposition, rendered from a finished run.

Nothing accumulates metrics while a run executes: a snapshot is a pure
view of what the run already recorded.  A *sample* is one
``(name, kind, labels, value)`` tuple — ``kind`` is ``"counter"`` or
``"gauge"`` with a number for ``value``, or ``"histogram"`` with the
list of observed values — and :func:`exposition` renders any list of
them in the standard text format, in a deterministic order.
:func:`run_samples` gives one run's samples from what a
:class:`~repro.api.RunResult` holds: the merged kernel timers, the
per-rank comm counters and the diagnostics rows
(``bookleaf run --metrics-prom``); the fleet renders its per-job
samples through the same function (``bookleaf fleet --prom``).
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

#: histogram bucket upper bounds (seconds-flavoured, +Inf added)
BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0,
)

#: the diagnostics-record fields a run exposes as gauges (the value of
#: its last sample)
GAUGES = ("mass", "total_energy", "mass_drift", "energy_drift",
          "hourglass_energy", "vol_min", "rho_min", "p_min", "dt")

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")

Sample = Tuple[str, str, Dict[str, object], object]


def run_samples(timers, comm_per_rank: Sequence[dict],
                metrics_rows: Optional[Sequence[dict]]) -> List[Sample]:
    """One finished run's samples: per-kernel ``kernel_seconds_total``
    and ``kernel_calls_total``, one ``comm_<counter>_total`` per rank
    and counter, and — when the probe sampled — the sample count, the
    last sample's :data:`GAUGES` and the histogram of every sample's
    dt, labelled with rank 0 (the rank that records them)."""
    samples: List[Sample] = []
    for kernel, timer in timers.timers.items():
        samples.append(("kernel_seconds_total", "counter",
                        {"kernel": kernel}, timer.seconds))
        samples.append(("kernel_calls_total", "counter",
                        {"kernel": kernel}, timer.calls))
    for rank, entry in enumerate(comm_per_rank):
        samples += [(f"comm_{name}_total", "counter", {"rank": rank}, value)
                    for name, value in entry.items()]
    if metrics_rows:
        labels = {"rank": 0}
        last = metrics_rows[-1]
        samples.append(("diagnostics_samples_total", "counter", labels,
                        len(metrics_rows)))
        samples += [(name, "gauge", labels, last[name]) for name in GAUGES]
        samples.append(("dt_seconds", "histogram", labels,
                        [row["dt"] for row in metrics_rows]))
    return samples


def exposition(samples: Sequence[Sample]) -> str:
    """The text exposition of ``samples``: metrics by name (prefixed
    ``bookleaf_``), each series by its sorted label set, one ``# TYPE``
    line per metric (the kind of its first series)."""
    keyed = sorted(
        (((name, tuple(sorted((k, str(v)) for k, v in labels.items()))),
          kind, value) for name, kind, labels, value in samples),
        key=lambda entry: entry[0])
    lines: List[str] = []
    previous = None
    for (name, labels), kind, value in keyed:
        labels = dict(labels)
        metric = _NAME_RE.sub("_", f"bookleaf_{name}")
        if name != previous:
            lines.append(f"# TYPE {metric} {kind}")
            previous = name
        if kind != "histogram":
            lines.append(f"{metric}{_labelset(labels)} {_fmt(value)}")
            continue
        for bound in BUCKETS:
            count = sum(1 for v in value if v <= bound)
            lines.append(f"{metric}_bucket"
                         f"{_labelset(labels, le=repr(bound))} {count}")
        lines.append(f"{metric}_bucket{_labelset(labels, le='+Inf')} "
                     f"{len(value)}")
        total = 0.0
        for v in value:  # a running total, in observation order
            total += v
        lines.append(f"{metric}_sum{_labelset(labels)} {_fmt(total)}")
        lines.append(f"{metric}_count{_labelset(labels)} {len(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _labelset(labels: dict, **extra) -> str:
    merged = {**labels, **extra}
    if not merged:
        return ""
    inner = ",".join(
        f'{_LABEL_RE.sub("_", k)}="{_escape(v)}"'
        for k, v in sorted((k, str(v)) for k, v in merged.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
