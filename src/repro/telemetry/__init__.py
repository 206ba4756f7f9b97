"""Run telemetry — hierarchical trace spans, run reports, Chrome traces.

The paper's whole evaluation is a per-kernel time breakdown plus
communication-volume accounting (Table II, Figures 1-4).  This package
turns the repository's ad-hoc instrumentation — :class:`TimerRegistry`
accumulators and Typhon's :class:`CommStats` counters — into first-class
observability artefacts:

* :class:`~repro.utils.timers.Span` — hierarchical trace spans (run →
  step → phase → kernel) recorded with monotonic clocks by each rank's
  :class:`~repro.utils.timers.TimerRegistry` (its one recorder),
  merged deterministically by
  :meth:`~repro.parallel.distributed.DistributedHydro.merged_spans`,
* :mod:`repro.telemetry.report` — the schema-versioned JSON run report
  (``bookleaf run --report out.json``), one view of the finished run
  (merged timers, per-rank comm counters, the driver's step rows
  ``Hydro.step_rows``, the last diagnostics sample); the Prometheus
  snapshot (:mod:`repro.metrics.prometheus`) is another,
* :mod:`repro.telemetry.trace` — the Chrome trace-event file loadable
  in Perfetto (``bookleaf run --trace out.trace.json``),
* :mod:`repro.telemetry.table2` — the measured-vs-modeled Table II
  (``bookleaf model table2-measured``),
* :mod:`repro.telemetry.live` — the fleet's schema-versioned lifecycle
  event bus (NDJSON stream, ``fleet --watch`` renderer, progress/ETA),
* :mod:`repro.telemetry.sweep_trace` — ONE merged Perfetto trace for a
  whole sweep (worker process rows, per-job thread rows, flow events),
* :mod:`repro.telemetry.sampling` — the low-overhead collapsed-stack
  sampling profiler (``run --profile``, ``fleet --profile-dir``),
* :mod:`repro.telemetry.dashboard` — the self-contained HTML sweep
  dashboard.

Telemetry is off by default and adds nothing to the hot loop beyond a
``spans is None`` check per timer region and the one step row
``Hydro`` keeps per step; see docs/OBSERVABILITY.md.
It adds nothing to start-up either: the names below resolve on first
use (:mod:`repro.utils.lazy`), so ``--report`` loads the report
module and not the sampler, the sweep trace or — through
``table2`` — the whole performance model.
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "SCHEMA_VERSION": ".report",
    "build_report": ".report",
    "schema_shape": ".report",
    "validate_report": ".report",
    "write_report": ".report",
    "LIVE_SCHEMA_VERSION": ".bus",
    "EventBus": ".bus",
    "ProgressReporter": ".live",
    "WatchRenderer": ".live",
    "read_events": ".live",
    "validate_live_event": ".live",
    "validate_live_stream": ".live",
    "SamplingProfiler": ".sampling",
    "merge_folded": ".sampling",
    "read_collapsed": ".sampling",
    "write_collapsed": ".sampling",
    "Span": "..utils.timers",
    "SweepTraceBuilder": ".sweep_trace",
    "strip_nondeterminism": ".sweep_trace",
    "write_sweep_trace": ".sweep_trace",
    "format_measured_vs_modeled": ".table2",
    "measured_vs_modeled": ".table2",
    "update_experiments": ".table2",
    "trace_events": ".trace",
    "validate_trace": ".trace",
    "write_trace": ".trace",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
