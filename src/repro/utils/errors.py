"""Exception hierarchy for the BookLeaf reproduction.

BookLeaf (the Fortran mini-app) aborts with an error code and a short
message (e.g. negative volume detected in ``getgeom``, timestep collapse
in ``getdt``).  We map those failure modes onto a small exception
hierarchy so callers can distinguish *user* errors (bad decks, bad
meshes) from *numerical* failures (tangling, dt collapse).
"""

from __future__ import annotations


class BookLeafError(Exception):
    """Base class for all errors raised by this package."""


class DeckError(BookLeafError):
    """An input deck is malformed or contains inconsistent options."""


class MeshError(BookLeafError):
    """A mesh is topologically or geometrically invalid."""


class TangledMeshError(MeshError):
    """The Lagrangian step produced a non-positive cell or corner volume.

    Carries the indices of the offending cells so drivers can report the
    location of the failure, as the Fortran code does.
    """

    def __init__(self, cells, time=None):
        self.cells = cells
        self.time = time
        where = f" at t={time:.6g}" if time is not None else ""
        super().__init__(f"mesh tangled{where}: non-positive volume in cells {cells}")


class TimestepCollapseError(BookLeafError):
    """The CFL timestep fell below the configured minimum.

    This is BookLeaf's ``dt < dtmin`` abort; it usually indicates an
    instability or a tangling mesh one step before it goes negative.
    """

    def __init__(self, dt, dtmin, cell=None, time=None):
        self.dt = dt
        self.dtmin = dtmin
        self.cell = cell
        self.time = time
        where = f" (controlling cell {cell})" if cell is not None else ""
        super().__init__(
            f"timestep collapse: dt={dt:.6g} < dtmin={dtmin:.6g}{where}"
        )


class EosError(BookLeafError):
    """An equation-of-state evaluation left the physical regime."""


class PartitionError(BookLeafError):
    """A domain decomposition request could not be satisfied."""


class CommError(BookLeafError):
    """Misuse of the simulated Typhon communication layer."""


class HealthError(BookLeafError):
    """A live-health sentinel tripped: non-finite or unphysical state.

    Raised by the in-situ :class:`~repro.metrics.probe.DiagnosticsProbe`
    when a sampled state carries NaN/Inf values or negative
    volume/density/energy (the invariant-domain bounds a healthy step
    must maintain).  Carries the violations keyed by sentinel name
    (``"nonfinite:e"`` -> offending cell/node ids) and, when the probe
    dumped one, the path of the on-disk state snapshot for forensics.
    """

    def __init__(self, violations, nstep=None, time=None,
                 snapshot=None, rank=None):
        self.violations = {
            name: [int(i) for i in ids] for name, ids in violations.items()
        }
        self.nstep = nstep
        self.time = time
        self.snapshot = str(snapshot) if snapshot is not None else None
        self.rank = rank
        where = ""
        if nstep is not None:
            where += f" at step {nstep}"
        if time is not None:
            where += f" (t={time:.6g})"
        if rank is not None:
            where += f" on rank {rank}"
        parts = "; ".join(
            f"{name} at {ids[:8]}{'...' if len(ids) > 8 else ''}"
            for name, ids in sorted(self.violations.items())
        )
        msg = f"health sentinel tripped{where}: {parts}"
        if self.snapshot:
            msg += f" — state snapshot written to {self.snapshot}"
        super().__init__(msg)

    def cells(self):
        """Sorted union of every offending cell/node id."""
        out = set()
        for ids in self.violations.values():
            out.update(ids)
        return sorted(out)


class DeprecatedOptionError(BookLeafError):
    """A removed option was used after its deprecation window closed.

    PR 3 aliased ``ranks=``/``method=`` to ``nranks=``/``partition=``
    with a one-release ``DeprecationWarning``; that release has passed,
    so the aliases now fail loudly instead of silently drifting.  The
    error is structured — ``option`` and ``replacement`` are attributes
    — so embedding code and the CLI can render a precise fix.
    """

    def __init__(self, option, replacement, context="repro.api.run"):
        self.option = option
        self.replacement = replacement
        self.context = context
        super().__init__(
            f"{context}: option {option!r} was removed; "
            f"use {replacement!r} instead (see docs/FLEET.md, "
            "'Migrating from the removed aliases')"
        )


class FleetError(BookLeafError):
    """The fleet scheduler could not execute or recover a job."""


class SnapshotError(BookLeafError):
    """A stored state (snapshot, checkpoint, HEALTH dump, cache entry)
    cannot be used: the file is missing, truncated, of another format
    version (an older ``.npz`` snapshot included), has an undecodable
    header or meta document, fails its digest, or lacks a member.  The
    fleet turns it into an event (a cache miss, an absent checkpoint)
    instead of a traceback."""


class StalledRankWarning(UserWarning):
    """The rank watchdog saw no heartbeat from a rank within the
    configured timeout — the run was aborted instead of hanging at the
    next collective.  The message carries every rank's last-seen step."""


class EnsembleDowngradeWarning(UserWarning):
    """A fleet job was routed off the same-mesh batched fast path.

    Tracing, allocation tracking and profiling are per-job telemetry
    and a batch steps all its lanes in one kernel pass, so a job
    requesting them under ``ensemble="auto"`` silently losing the fast
    path would be a surprise slowdown.  The warning (and the paired
    ``fast_path_downgrade`` schedule-log event) names the job and the
    reason; see docs/FLEET.md, 'Fast-path eligibility'."""
