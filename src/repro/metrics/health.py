"""Forensic state snapshots for health-sentinel trips.

When a :class:`~repro.metrics.probe.DiagnosticsProbe` sentinel trips
(NaN in the energy field, a negative volume, …) the interesting state
is *gone* by the time anyone reads the exception — the run aborted and
the arrays were garbage-collected.  :func:`dump_snapshot` freezes the
offending driver at trip time so the failure can be dissected offline.

The dump is an ordinary snapshot (:mod:`repro.output.restart`) with the
mesh block, so it is readable without the deck —
``read_restart(path).arrays`` holds every field plus
``mesh_x0 mesh_y0 cell_nodes`` — and it can be overlaid into a freshly
built ``Hydro`` (``thaw``) to step the sick state under a debugger.
Its ``extra`` carries the rank and the sentinel names and ids.
"""

from __future__ import annotations

import os
from typing import Optional


def dump_path(tag: str, directory: Optional[str] = None) -> str:
    """The one name of a ``HealthError`` dump, ``tag`` being
    ``rank<r>`` or ``lane<i>``: ``HEALTH_snapshot_<tag>.state`` in
    ``directory``, or in the current directory when it is unset."""
    return os.path.join(directory or "", f"HEALTH_snapshot_{tag}.state")


def dump_snapshot(hydro, path, *, rank: Optional[int] = None,
                  violations: Optional[dict] = None) -> str:
    """Write a forensic snapshot of ``hydro`` to ``path``; returns the
    path written.  ``violations`` is the sentinel dict from
    :meth:`~repro.core.state.HydroState.sentinel_scan`."""
    from ..output.restart import freeze

    return str(freeze(path, hydro, extra={
        "rank": rank,
        "violations": {
            name: [int(i) for i in ids]
            for name, ids in (violations or {}).items()
        },
    }))
