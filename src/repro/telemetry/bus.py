"""The fleet's lifecycle event recorder — the producer half of
:mod:`repro.telemetry.live`.

Every sweep, a single serial ``run()`` included, records its scheduling
facts on one :class:`EventBus`, so the engine imports this module with
:mod:`repro.api`.  The consumers — the ``--watch`` renderer, the
progress/ETA observer, the stream validators — are needed by few sweeps
and stay in :mod:`repro.telemetry.live`, which re-exports both names
below.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, List, Optional, Sequence, TextIO

#: live-event record layout version (bumped on any field change)
LIVE_SCHEMA_VERSION = 2


class EventBus:
    """One sweep's lifecycle event stream.

    Every :meth:`emit` stamps the record (schema version, sequence
    number, seconds since the sweep epoch), appends it to
    :attr:`events`, writes it to the NDJSON sink (if any, flushed so a
    crash leaves a readable prefix) and fans it out to the listeners.
    A listener that raises does not break the sweep — the error is
    swallowed after detaching the listener.
    """

    def __init__(self, path: Optional[str] = None,
                 listeners: Optional[Sequence[Callable]] = None,
                 epoch_ns: Optional[int] = None):
        self.path = path
        self.listeners: List[Callable] = list(listeners or [])
        self.epoch_ns = (time.perf_counter_ns()
                         if epoch_ns is None else int(epoch_ns))
        self.events: List[dict] = []
        self._seq = 0
        self._fh: Optional[TextIO] = None
        if path:
            root = os.path.dirname(os.path.abspath(path))
            os.makedirs(root, exist_ok=True)
            self._fh = open(path, "w", encoding="utf-8")

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> float:
        """Seconds since the sweep epoch."""
        return (time.perf_counter_ns() - self.epoch_ns) / 1e9

    def emit(self, event: str, **payload) -> dict:
        rec = {
            "schema_version": LIVE_SCHEMA_VERSION,
            "event": event,
            "seq": self._seq,
            "t": round(self.elapsed, 6),
            **payload,
        }
        self._seq += 1
        self.events.append(rec)
        if self._fh is not None:
            self._fh.write(json.dumps(rec, default=repr) + "\n")
            self._fh.flush()
        for listener in list(self.listeners):
            try:
                listener(rec)
            except Exception:
                self.listeners.remove(listener)
        return rec

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
