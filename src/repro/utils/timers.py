"""Hierarchical kernel timers mirroring BookLeaf's timer regions, and
the trace spans they record.

The Fortran mini-app wraps every hydro kernel in a named timer region
(``getq``, ``getacc``, ...) and prints a per-kernel breakdown at the end
of the run — that breakdown is exactly what the paper's Table II
reports.  This module provides the same facility:

* :class:`TimerRegistry` — a registry of named accumulating timers,
  one per rank and that rank's only recorder,
* :func:`TimerRegistry.region` — a context manager charging wall time to
  a region,
* call counting, so the performance model can be driven by *measured*
  kernel-invocation counts rather than assumptions,
* optional span tracing (:meth:`TimerRegistry.traced`): every region is
  then also one :class:`Span` of the rank's stream, pushed on the
  open-span stack at entry and closed from the same clock pair the
  accumulator charges — which is how the telemetry layer
  (docs/OBSERVABILITY.md) sees the kernels without any change to the
  kernel call sites.  The structural levels (run, step, phase) and the
  Typhon comm spans are timer-free :meth:`TimerRegistry.span` blocks on
  the same stream and stack; the cost when not tracing is one
  ``is None`` check per region,
* an optional ``tracemalloc``-backed allocation counter
  (``trace_allocations=True``), which charges the *net* allocated bytes
  and the peak allocation observed inside each region (and, traced,
  stamps every span with its net bytes) — the observability half of
  the allocation-free-hot-loop work: the workspace tests assert that a
  warm ``lagstep`` stops allocating.

A region is one small object (:class:`_Region`, ``__enter__`` and
``__exit__`` around one ``perf_counter_ns`` pair): four Python-level
calls per ``with`` block untraced, where the ``@contextmanager``
generator it replaced made eight, at about half its cost
(docs/PERFORMANCE.md, "A step's fixed cost").  A warm step has sixteen
regions.  Timers can be disabled wholesale for benchmarking the raw
kernels.  Allocation tracing is *not* cheap (tracemalloc intercepts
every allocation) — enable it for diagnosis and tests, never for
benchmark timing runs.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

#: the span categories, outermost first — the hierarchy levels of the
#: run → step → phase → kernel span model (plus ``comm`` for the
#: Typhon exchange/reduction spans nested inside kernels)
CATEGORIES = ("run", "step", "phase", "kernel", "comm")

#: a :class:`Timer`'s counters: the fields of one kernel entry
KERNEL_FIELDS = ("seconds", "calls", "alloc_bytes", "alloc_peak")


@dataclass
class Span:
    """One timed interval of a rank's stream — the whole run, one
    timestep, one phase or one kernel region.

    ``t0_ns`` counts from the registry's ``epoch_ns``, a
    ``perf_counter_ns`` origin every rank of a run shares, so the
    per-rank streams line up on one time axis.  ``depth`` is the number
    of spans open on the rank when this one began; a rank's stream is
    in opening order and properly bracketed, so ``depth`` rebuilds the
    tree.
    """

    name: str
    cat: str
    rank: int
    t0_ns: int              #: start, ns since the registry's epoch
    dur_ns: int = -1        #: -1 while the span is still open
    depth: int = 0          #: spans open on this rank when this began
    args: Dict[str, object] = field(default_factory=dict)
    alloc_bytes: Optional[int] = None

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "cat": self.cat,
            "rank": self.rank,
            "t0_ns": self.t0_ns,
            "dur_ns": self.dur_ns,
            "depth": self.depth,
        }
        if self.args:
            out["args"] = dict(self.args)
        if self.alloc_bytes is not None:
            out["alloc_bytes"] = self.alloc_bytes
        return out


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
    """A named collection of :class:`Timer` objects, and one rank's
    span stream when tracing.

    The registry is hierarchical only by naming convention (BookLeaf uses
    flat names, so do we).  ``enabled=False`` turns every region into a
    no-op with near-zero overhead.  ``trace_allocations=True`` starts
    ``tracemalloc`` on first use and charges per-region allocation
    deltas; nested regions attribute peaks to the innermost region.
    A registry built by :meth:`traced` also records every region and
    :meth:`span` as a :class:`Span` in ``spans``.
    """

    enabled: bool = True
    trace_allocations: bool = False
    timers: Dict[str, Timer] = field(default_factory=dict)
    #: the rank's span stream in opening order; ``None`` when not
    #: tracing (the one check an untraced region pays)
    spans: Optional[List[Span]] = field(default=None, repr=False)
    #: rank id stamped on every span (the Chrome-trace ``tid``)
    rank: int = 0
    #: the ``perf_counter_ns`` origin of every span's ``t0_ns``
    epoch_ns: int = 0
    #: the spans open right now, outermost first — what the sampling
    #: profiler snapshots
    stack: List[Span] = field(default_factory=list, repr=False)

    @classmethod
    def traced(cls, rank: int = 0, epoch_ns: Optional[int] = None,
               trace_allocations: bool = False) -> "TimerRegistry":
        """A registry that records rank ``rank``'s span stream.  Every
        rank of a run must get the *same* ``epoch_ns`` so the streams
        align; the default takes this instant."""
        if epoch_ns is None:
            epoch_ns = time.perf_counter_ns()
        return cls(trace_allocations=trace_allocations, spans=[],
                   rank=rank, epoch_ns=epoch_ns)

    def get(self, name: str) -> Timer:
        timer = self.timers.get(name)
        if timer is None:
            timer = Timer(name)
            self.timers[name] = timer
        return timer

    def region(self, name: str, cat: str = "kernel") -> "_Region":
        """Charge the wall time spent inside the ``with`` block to ``name``.

        ``cat`` is only meaningful when tracing: it sets the recorded
        span's category (the ``alestep`` region is a *phase* in the
        span hierarchy, the rest are kernels).
        """
        return _Region(self, name, cat)

    def span(self, name: str, cat: str = "phase",
             args: Optional[dict] = None):
        """A span *without* a timer — the structural levels of the span
        hierarchy (run, step, lagstep), which must not double-charge
        the kernel accumulators, and the Typhon comm spans.  Yields the
        live :class:`Span` (callers may fill ``args`` before the block
        closes); a shared no-op context yielding ``None`` when not
        tracing."""
        if self.spans is None:
            return _NO_SPAN
        return self._span(name, cat, args)

    @contextmanager
    def _span(self, name: str, cat: str,
              args: Optional[dict]) -> Iterator[Span]:
        alloc0 = None
        if self.trace_allocations and tracemalloc.is_tracing():
            alloc0, _ = tracemalloc.get_traced_memory()
        span = Span(name, cat, self.rank,
                    time.perf_counter_ns() - self.epoch_ns,
                    depth=len(self.stack),
                    args=dict(args) if args else {})
        self.spans.append(span)
        self.stack.append(span)
        try:
            yield span
        finally:
            span.dur_ns = (time.perf_counter_ns() - self.epoch_ns
                           - span.t0_ns)
            if alloc0 is not None and tracemalloc.is_tracing():
                alloc1, _ = tracemalloc.get_traced_memory()
                span.alloc_bytes = alloc1 - alloc0
            self.stack.pop()

    def instant(self, name: str, cat: str = "phase",
                args: Optional[dict] = None) -> None:
        """Record a zero-duration marker event (e.g. a skipped remap)
        when tracing."""
        if self.spans is None:
            return
        self.spans.append(Span(
            name, cat, self.rank,
            time.perf_counter_ns() - self.epoch_ns, 0,
            depth=len(self.stack), args=dict(args) if args else {},
        ))

    @contextmanager
    def allocation_scope(self) -> Iterator[None]:
        """The extent of one run under ``trace_allocations``: starts
        ``tracemalloc`` unless it is already running and stops what it
        started on the way out, so a traced run does not leave every
        later allocation of the process intercepted."""
        if not self.trace_allocations or tracemalloc.is_tracing():
            yield
            return
        tracemalloc.start()
        try:
            yield
        finally:
            tracemalloc.stop()

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

    def entries(self) -> Dict[str, dict]:
        """Every timer as a JSON-ready :data:`KERNEL_FIELDS` entry, in
        name order: the report's ``kernels`` map, a cache entry's."""
        return {name: {key: getattr(timer, key) for key in KERNEL_FIELDS}
                for name, timer in sorted(self.timers.items())}

    @classmethod
    def from_entries(cls, entries: Dict[str, dict]) -> "TimerRegistry":
        """The registry whose :meth:`entries` these are."""
        return cls(timers={name: Timer(name, **entry)
                           for name, entry in entries.items()})

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


class _Region:
    """One ``with registry.region(name):`` block: a timer charge, and
    when the registry traces, a span on its stream and stack."""

    __slots__ = ("registry", "name", "cat", "timer", "span", "start_ns",
                 "size0")

    def __init__(self, registry: TimerRegistry, name: str, cat: str):
        self.registry = registry
        self.name = name
        self.cat = cat

    def __enter__(self) -> None:
        registry = self.registry
        if not registry.enabled:
            self.timer = None
            return
        timer = registry.timers.get(self.name)
        if timer is None:
            timer = registry.timers[self.name] = Timer(self.name)
        self.timer = timer
        self.span = None
        if registry.spans is not None:
            # Opened before the clocks start, so the span's own
            # bookkeeping is charged to the enclosing region, not here.
            self.span = Span(self.name, self.cat, registry.rank, 0,
                             depth=len(registry.stack))
            registry.spans.append(self.span)
            registry.stack.append(self.span)
        self.size0 = None
        if registry.trace_allocations:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            tracemalloc.reset_peak()
            self.size0 = tracemalloc.get_traced_memory()[0]
        self.start_ns = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        timer = self.timer
        if timer is None:
            return
        dur_ns = time.perf_counter_ns() - self.start_ns
        timer.seconds += dur_ns * 1e-9
        timer.calls += 1
        net = None
        if self.size0 is not None and tracemalloc.is_tracing():
            size1, peak = tracemalloc.get_traced_memory()
            net = size1 - self.size0
            timer.add_alloc(net, peak - self.size0)
            # Re-arm the peak so an enclosing region's remainder is
            # measured on its own, not against this region's peak.
            tracemalloc.reset_peak()
        span = self.span
        if span is not None:
            self.registry.stack.pop()
            span.t0_ns = self.start_ns - self.registry.epoch_ns
            span.dur_ns = dur_ns
            span.alloc_bytes = net


#: the shared no-op context :meth:`TimerRegistry.span` returns when the
#: registry does not trace
_NO_SPAN = nullcontext()
