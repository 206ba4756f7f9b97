"""Low-overhead sampling profiler over the live span stack.

The tracer already maintains, per rank, the stack of currently-open
spans (:attr:`repro.telemetry.spans.Tracer._open`) — the run → step →
phase → kernel hierarchy the instrumented code is inside *right now*.
This module samples that stack from a background thread at a fixed
interval and accumulates collapsed call stacks, so a run's wall time
is attributed to kernels/phases at a cost bounded by the sampling
rate, not by instrumentation density.

Why sample a stack we also trace exactly?  Scale: a sweep of hundreds
of jobs cannot afford to keep (or merge) every span of every job, but
a few hundred samples per job folds into one flamegraph line set —
``repro.fleet`` aggregates the per-job files into one per-sweep
profile.  Overhead is bounded by the sampling rate (last measured at
about 1% of a Noh 64² run); the sampler reads the stack under the GIL
with a plain list snapshot, never locking the hot loop.

Output is the collapsed-stack format flamegraph.pl / speedscope /
inferno consume directly::

    run;step;lagstep;viscosity 42

Step spans are normalised (``step 17`` → ``step``) so stacks fold by
phase identity instead of exploding one line per timestep.
"""

from __future__ import annotations

import time
from collections import Counter
from threading import Event, Thread
from typing import Dict, Iterable, List, Optional

#: default sampling interval in seconds (200 Hz — coarse enough that a
#: Python-level sampler stays in the noise, fine enough for per-kernel
#: attribution over a few seconds of run)
DEFAULT_INTERVAL = 0.005

#: the stack frame recorded when a tracer has no open span
IDLE_FRAME = "<idle>"


def _normalise(name: str) -> str:
    """Collapse per-instance span names to their identity: ``step 17``
    -> ``step`` (every timestep folds into one frame)."""
    if name.startswith("step ") and name[5:].isdigit():
        return "step"
    return name


class SamplingProfiler:
    """Background thread sampling the open-span stacks of tracers.

    Parameters
    ----------
    tracers:
        The live :class:`~repro.telemetry.spans.Tracer` objects to
        sample (one per in-process rank).  Multi-rank stacks are
        prefixed ``rank N`` so the per-rank profiles stay separable.
    interval:
        Seconds between samples.
    """

    def __init__(self, tracers: Iterable, interval: float = DEFAULT_INTERVAL):
        self.tracers = list(tracers)
        self.interval = float(interval)
        self.counts: Counter = Counter()
        self.samples = 0
        self.wall_seconds = 0.0
        self._halt = Event()
        self._thread: Optional[Thread] = None
        self._t0: Optional[float] = None

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._halt.clear()
        self._t0 = time.perf_counter()
        self._thread = Thread(target=self._run, name="span-sampler",
                              daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._halt.set()
        self._thread.join()
        self._thread = None
        self.wall_seconds += time.perf_counter() - self._t0

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def _run(self) -> None:
        multi = len(self.tracers) > 1
        while not self._halt.wait(self.interval):
            self.sample_once(multi=multi)

    def sample_once(self, multi: Optional[bool] = None) -> None:
        """Take one sample of every tracer's open-span stack (public
        for deterministic tests; the thread calls it on a timer)."""
        if multi is None:
            multi = len(self.tracers) > 1
        self.samples += 1
        for tracer in self.tracers:
            # list() snapshots under the GIL; the tracer only ever
            # appends/pops, so the worst case is one off-by-one frame.
            stack = [_normalise(span.name)
                     for span in list(tracer._open)]
            if not stack:
                stack = [IDLE_FRAME]
            if multi:
                stack = [f"rank {tracer.rank}"] + stack
            self.counts[tuple(stack)] += 1

    # ------------------------------------------------------------------
    def folded(self) -> Dict[str, int]:
        """The collapsed-stack lines: ``"run;step;lagstep" -> count``."""
        return {";".join(stack): count
                for stack, count in self.counts.items()}


# ----------------------------------------------------------------------
# collapsed-stack files
# ----------------------------------------------------------------------
def write_collapsed(folded: Dict[str, int], path: str) -> str:
    """Write ``stack -> count`` as a flamegraph.pl collapsed file
    (sorted by stack for deterministic output)."""
    import os

    root = os.path.dirname(os.path.abspath(path))
    os.makedirs(root, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for stack in sorted(folded):
            fh.write(f"{stack} {folded[stack]}\n")
    return path


def read_collapsed(path: str) -> Dict[str, int]:
    """Load a collapsed-stack file back into ``stack -> count``."""
    out: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            stack, _, count = line.rpartition(" ")
            out[stack] = out.get(stack, 0) + int(count)
    return out


def merge_folded(profiles: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum collapsed profiles (the per-sweep aggregation)."""
    total: Counter = Counter()
    for folded in profiles:
        total.update(folded)
    return dict(total)


def top_stacks(folded: Dict[str, int], n: int = 10) -> List[tuple]:
    """The ``n`` hottest stacks as ``(stack, count, fraction)`` rows."""
    total = sum(folded.values()) or 1
    ranked = sorted(folded.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(stack, count, count / total)
            for stack, count in ranked[:n]]
