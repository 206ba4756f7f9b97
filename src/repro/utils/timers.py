"""Hierarchical kernel timers mirroring BookLeaf's timer regions.

The Fortran mini-app wraps every hydro kernel in a named timer region
(``getq``, ``getacc``, ...) and prints a per-kernel breakdown at the end
of the run — that breakdown is exactly what the paper's Table II
reports.  This module provides the same facility:

* :class:`TimerRegistry` — a registry of named accumulating timers,
* :func:`TimerRegistry.region` — a context manager charging wall time to
  a region,
* call counting, so the performance model can be driven by *measured*
  kernel-invocation counts rather than assumptions,
* an optional :class:`~repro.telemetry.spans.Tracer` hook
  (``registry.tracer = Tracer(...)``): every region entry is then also
  recorded as an individual trace span, which is how the telemetry
  layer (docs/OBSERVABILITY.md) sees the kernels without any change to
  the kernel call sites — the cost when no tracer is attached is one
  ``is None`` check per region,
* an optional ``tracemalloc``-backed allocation counter
  (``trace_allocations=True``), which charges the *net* allocated bytes
  and the peak allocation observed inside each region — the
  observability half of the allocation-free-hot-loop work: the
  workspace tests assert that a warm ``lagstep`` stops allocating.

Timers are cheap (one ``perf_counter`` pair per region entry) and can be
disabled wholesale for benchmarking the raw kernels.  Allocation tracing
is *not* cheap (tracemalloc intercepts every allocation) — enable it for
diagnosis and tests, never for benchmark timing runs.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


@dataclass
class Timer:
    """A single accumulating timer: total seconds and invocation count.

    When allocation tracing is enabled, ``alloc_bytes`` accumulates the
    net bytes allocated inside the region across calls (allocations
    minus frees — steady-state buffer reuse nets to ~zero) and
    ``alloc_peak`` holds the largest single-call peak allocation.
    """

    name: str
    seconds: float = 0.0
    calls: int = 0
    alloc_bytes: int = 0
    alloc_peak: int = 0

    def add(self, dt: float) -> None:
        self.seconds += dt
        self.calls += 1

    def add_alloc(self, net: int, peak: int) -> None:
        self.alloc_bytes += net
        if peak > self.alloc_peak:
            self.alloc_peak = peak


@dataclass
class TimerRegistry:
    """A named collection of :class:`Timer` objects.

    The registry is hierarchical only by naming convention (BookLeaf uses
    flat names, so do we).  ``enabled=False`` turns every region into a
    no-op with near-zero overhead.  ``trace_allocations=True`` starts
    ``tracemalloc`` on first use and charges per-region allocation
    deltas; nested regions attribute peaks to the innermost region.
    """

    enabled: bool = True
    trace_allocations: bool = False
    timers: Dict[str, Timer] = field(default_factory=dict)
    #: optional :class:`~repro.telemetry.spans.Tracer`; when attached,
    #: every region entry is also recorded as one trace span
    tracer: Optional[object] = None

    def get(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = Timer(name)
            self.timers[name] = timer
        return timer

    @contextmanager
    def region(self, name: str, cat: str = "kernel") -> Iterator[None]:
        """Charge the wall time spent inside the ``with`` block to ``name``.

        ``cat`` is only meaningful when a tracer is attached: it sets
        the recorded span's category (the ``alestep`` region is a
        *phase* in the span hierarchy, the rest are kernels).
        """
        if not self.enabled:
            yield
            return
        timer = self.get(name)
        tracing = self.trace_allocations
        tracer = self.tracer
        if tracer is not None and not tracer.enabled:
            tracer = None
        if tracing:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            size0, _ = tracemalloc.get_traced_memory()
        start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            dur_ns = time.perf_counter_ns() - start_ns
            timer.add(dur_ns * 1e-9)
            net = None
            if tracing and tracemalloc.is_tracing():
                size1, peak = tracemalloc.get_traced_memory()
                net = size1 - size0
                timer.add_alloc(net, peak - size0)
                # Re-arm the peak so an enclosing region's remainder is
                # measured on its own, not against this region's peak.
                tracemalloc.reset_peak()
            if tracer is not None:
                tracer.record(name, cat, start_ns, dur_ns,
                              alloc_bytes=net)

    def trace_span(self, name: str, cat: str = "phase",
                   args: Optional[dict] = None):
        """A tracer span *without* a timer — the structural levels of
        the span hierarchy (run, step, lagstep) that must not double-
        charge the kernel accumulators.  A shared no-op context when no
        tracer is attached, so untraced runs pay nothing."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return nullcontext()
        return tracer.span(name, cat, args)

    def trace_instant(self, name: str, cat: str = "phase",
                      args: Optional[dict] = None) -> None:
        """Record a zero-duration marker event on the attached tracer."""
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.instant(name, cat, args)

    def seconds(self, name: str) -> float:
        timer = self.timers.get(name)
        return 0.0 if timer is None else timer.seconds

    def calls(self, name: str) -> int:
        timer = self.timers.get(name)
        return 0 if timer is None else timer.calls

    def alloc_bytes(self, name: str) -> int:
        timer = self.timers.get(name)
        return 0 if timer is None else timer.alloc_bytes

    def alloc_peak(self, name: str) -> int:
        timer = self.timers.get(name)
        return 0 if timer is None else timer.alloc_peak

    def total(self) -> float:
        return sum(t.seconds for t in self.timers.values())

    def reset(self) -> None:
        self.timers.clear()

    def merge(self, other: "TimerRegistry") -> None:
        """Accumulate another registry into this one (used by the
        distributed driver to aggregate per-rank timers)."""
        for name, timer in other.timers.items():
            mine = self.get(name)
            mine.seconds += timer.seconds
            mine.calls += timer.calls
            mine.alloc_bytes += timer.alloc_bytes
            if timer.alloc_peak > mine.alloc_peak:
                mine.alloc_peak = timer.alloc_peak

    def breakdown(self, kernels: Optional[List[str]] = None) -> str:
        """Format a BookLeaf-style per-kernel breakdown table.

        ``kernels`` restricts and orders the rows; by default all timers
        are shown sorted by accumulated time (descending).  When
        allocation tracing was on, an allocations column (net bytes +
        worst single-call peak) extends the Table II format.
        """
        names = kernels if kernels is not None else sorted(
            self.timers, key=lambda n: -self.timers[n].seconds
        )
        total = self.total()
        traced = any(t.alloc_bytes or t.alloc_peak
                     for t in self.timers.values())
        header = f"{'kernel':<16}{'seconds':>12}{'calls':>10}{'share':>9}"
        if traced:
            header += f"{'net alloc':>14}{'peak':>12}"
        lines = [header]
        for name in names:
            timer = self.timers.get(name)
            if timer is None:
                continue
            share = 100.0 * timer.seconds / total if total > 0 else 0.0
            row = (f"{name:<16}{timer.seconds:>12.4f}"
                   f"{timer.calls:>10d}{share:>8.1f}%")
            if traced:
                row += f"{timer.alloc_bytes:>14d}{timer.alloc_peak:>12d}"
            lines.append(row)
        lines.append(f"{'total':<16}{total:>12.4f}")
        return "\n".join(lines)
