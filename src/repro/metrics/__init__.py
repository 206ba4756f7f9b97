"""Live metrics & health: in-situ diagnostics for running simulations.

PR 2 gave the repository *post-hoc* observability — trace spans and a
JSON run report you read after the run ends (docs/OBSERVABILITY.md).
This package is the *live* half: what a production system would watch
while the run executes.

* :class:`~repro.metrics.probe.DiagnosticsProbe` — sampled every N
  steps by the hydro loop; computes the conserved totals (mass,
  internal + kinetic energy) and their drift against step 0, the
  hourglass-energy proxy, field extrema and the dt control, and scans
  hard health **sentinels** (NaN/Inf, non-positive volume/density,
  negative energy) that raise a structured
  :class:`~repro.utils.errors.HealthError` with a forensic state
  snapshot on disk.
* :mod:`~repro.metrics.prometheus` — the Prometheus text exposition,
  a pure rendering of a finished run's timers, comm counters and
  diagnostics rows (and of a fleet's per-job samples).
* :mod:`~repro.metrics.watchdog` — the rank heartbeat board the
  ``threads``/``processes`` launchers and the fleet pool poll from
  their wait loops (:class:`~repro.utils.errors.StalledRankWarning`).
* :mod:`~repro.metrics.compare` — the ``repro compare`` CLI: diff two
  run reports or two fleet sweep summaries with a regression
  threshold, for CI gating.
* :mod:`~repro.metrics.anomaly` — cross-job outlier detection for
  fleet sweeps (robust modified z-scores over kernel seconds, comm
  bytes and step rate; ``compare --gate-outliers``).

Everything here is opt-in: with no probe attached the step loop pays
one ``is None`` check per step and stays bit-identical.  The names
below resolve on first use (:mod:`repro.utils.lazy`): a probed serial
run loads the probe, not the renderer or the heartbeat board.
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "METRICS_SCHEMA_VERSION": ".probe",
    "DiagnosticsProbe": ".probe",
    "exposition": ".prometheus",
    "run_samples": ".prometheus",
    "HeartbeatBoard": ".watchdog",
    "Heartbeat": ".watchdog",
    "dump_snapshot": ".health",
    "detect_anomalies": ".anomaly",
    "robust_zscores": ".anomaly",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
