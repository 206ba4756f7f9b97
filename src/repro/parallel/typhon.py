"""Simulated Typhon — BookLeaf's unstructured-mesh comm library.

The real BookLeaf communicates through Typhon, a thin distributed
communication library over MPI that provides halo exchanges and
collectives for unstructured meshes.  MPI is not available in this
environment, so this module reimplements Typhon the way the paper
describes it — *one* library with the transport underneath:

* :class:`TyphonComms` is the protocol, written once: the split-phase
  halo exchanges over the compiled CommPlans, the ascending-rank
  nodal-sum fold, the binomial-tree dt reduction, the scalar
  collectives, the traffic counters and the trace spans.  It is the
  only distributed endpoint; every rank of every backend runs it.
* a :class:`Transport` owns nothing but memory and waiting: three
  float64 boards every rank can see, ``wait``/``notify`` to sleep until
  a peer has published, ``allgather`` for the scalar collectives and
  ``abort``.  :class:`TyphonContext` (below) keeps the boards in
  process memory for rank *threads*;
  :class:`~repro.parallel.backends.processes.SharedMemoryTransport`
  keeps them in anonymous shared mappings for rank *processes*.

Every exchange and reduction is counted (messages and bytes), giving
the performance model measured communication volumes exactly where the
real mini-app would have MPI traffic — two halo exchanges and one
global reduction per step (paper Section IV-A).

Determinism: partial nodal sums are combined in ascending rank order
on every rank, so shared interface nodes receive *bit-identical*
values everywhere and a decomposed run tracks the serial one to
floating-point round-off only.

Every exchange is split-phase, and the kernels speak nothing else:
``post_*`` packs and publishes, ``complete_*`` waits only on the
*neighbouring* ranks' post counters (no global barrier) and scatters or
folds; the kernels compute whatever needs no halo between the two
halves.  The schedule (``comm_plan``) is a fact only the endpoint
knows: an ``"overlap"`` endpoint lands the peers' data at *complete*,
a ``"packed"`` one at *post* — post and complete back to back, the
complete half then hands back what is already there.  The kernels
cannot tell, which is what makes ``packed`` the equivalence reference:
a kernel that read halo-dependent data between the halves would
diverge between the two.  One protocol, two schedules, bit-identical
because packing is a pure reorder and the nodal-sum completion replays
the exact ascending-rank fold.

The per-step dt reduction runs a **binomial-tree combining reduction**
(min is exact, so the tree result is bitwise equal to a root gather):
each rank combines its children's candidates, forwards one candidate
to its parent, and the root's result flows back down — O(log P) hops
on the critical path, visible in ``CommStats.dt_hops``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.timestep import Candidate
from ..perf.workspace import Workspace
from ..utils.errors import CommError
from ..utils.timers import TimerRegistry
from .commplan import CommPlan, SECTIONS, _widths, compile_plans
from .halo import Subdomain
from .interface import COMM_FIELDS, CommStats

_FLOAT_BYTES = 8

#: honest payload of the dt reduction: every rank publishes a
#: ``(dt, reason, cell, rank)`` tuple — four values, not one scalar
DT_REDUCE_VALUES = 4

#: the only dt-limiter reasons that cross the seam (``getdt``'s local
#: candidates); a dt cell carries them as small ints
DT_REASONS = ("cfl", "div")

#: one dt combining cell: (generation, dt, reason code, global cell,
#: source rank) — generation guards reuse, the rest is the candidate
DT_CELL = 5

#: column of each section in the post/complete counter board
_SECTION_COL = {name: i for i, name in enumerate(SECTIONS)}

#: seconds a wait may starve before declaring the run wedged (the
#: backends' watchdogs normally fire first)
SPIN_TIMEOUT = 120.0

#: what every waiter raises once a peer has called ``abort()``
PEER_FAILED = "a peer rank failed; aborting collective"

#: shared no-op context for untraced comm calls (stateless, reusable)
_NULL_SPAN = nullcontext()


def tree_parent(rank: int) -> int:
    """Parent of ``rank`` in the binomial reduction tree (root 0):
    clear the lowest set bit."""
    return rank & (rank - 1)


def tree_children(rank: int, size: int) -> List[int]:
    """Children of ``rank`` in the binomial tree over ``size`` ranks,
    ascending.  Rank r owns r + 2^k for every k with r's low k+1 bits
    zero — the root's child count is ⌈log2 P⌉, the tree's depth bound."""
    children: List[int] = []
    k = 0
    while True:
        bit = 1 << k
        if rank & ((bit << 1) - 1):
            break
        child = rank + bit
        if child >= size:
            break
        children.append(child)
        k += 1
    return children


class Transport:
    """What the protocol needs from below: memory and waiting.

    The memory is three zero-initialised float64 boards, laid out here
    once for every transport, each cell written by exactly one rank:

    * ``staging[rank]`` — the rank's double-buffered packed staging,
      sized by its :class:`~repro.parallel.commplan.CommPlan`;
    * ``counters`` — ``(size, nsections, 2)`` cumulative posts and
      completes per (rank, section);
    * ``dt_cells`` — ``(size, 2, DT_CELL)`` generation-stamped dt
      candidates (row 0 the up-sweep, row 1 the down-sweep result).

    A concrete transport supplies ``board(name, shape)`` (the storage)
    and the four primitives the protocol sleeps and wakes through:
    ``wait(rank, ready, what)`` returns once ``ready()`` holds and
    raises :class:`CommError` on peer failure or after
    ``SPIN_TIMEOUT``; ``notify(ranks)`` wakes the ranks whose
    predicates watch a cell this rank just wrote;
    ``allgather(rank, value)`` returns every rank's value in ascending
    rank order (fully synchronising); ``abort()`` fails every waiter.
    A waiter sleeps until notified — on a condition variable between
    threads, in ``select`` on its wake pipe between processes — and
    never polls.
    """

    def __init__(self, plans: List[CommPlan]):
        self.plans = plans
        self.size = len(plans)
        #: one counter set per rank — each rank only writes its own
        self.stats: List[CommStats] = [CommStats() for _ in plans]
        self.staging: List[np.ndarray] = [
            self.board(f"commplan.staging.rank{plan.rank}",
                       (plan.staging_doubles(),))
            for plan in plans
        ]
        self.counters = self.board("typhon.counters",
                                   (self.size, len(SECTIONS), 2))
        self.dt_cells = self.board("typhon.dt_cells",
                                   (self.size, 2, DT_CELL))


class TyphonContext(Transport):
    """The in-process transport: all ranks are threads of one process.

    Boards live in a Workspace arena (the PR-1 allocator extended into
    the comm layer) — peers read each other's staging directly.  Waits
    sleep on per-rank condition variables: a publisher notifies exactly
    the ranks whose predicates watch the cell it advanced, so waiters
    neither burn the quantum the awaited peer needs (virtual ranks
    oversubscribe the host) nor wake as a thundering herd.
    """

    def __init__(self, subdomains: List[Subdomain], plans=None):
        self.subdomains = subdomains
        self.comm_ws = Workspace()
        # callers with an artifact cache hand in the precompiled plans
        super().__init__(plans if plans is not None
                         else compile_plans(subdomains))
        self.rank_cv = [threading.Condition() for _ in range(self.size)]
        self._slots: List[object] = [None] * self.size
        self._gathered: Tuple[object, ...] = ()
        # The last arrival snapshots the slots before anyone leaves, so
        # a fast rank's next publication cannot reach a slow reader.
        self.barrier = threading.Barrier(self.size, action=self._snapshot)
        self._failure = threading.Event()

    def board(self, name: str, shape) -> np.ndarray:
        return self.comm_ws.zeros(name, shape)

    def _snapshot(self) -> None:
        self._gathered = tuple(self._slots)

    def wait(self, rank: int, ready, what: str) -> None:
        """The fast path (already satisfied) takes no lock; otherwise
        sleep on this rank's condition, re-checking whenever a watched
        peer publishes.  The 100 ms guard timeout only serves the
        failure/deadline checks."""
        if ready():
            return
        deadline = time.monotonic() + SPIN_TIMEOUT
        cv = self.rank_cv[rank]
        with cv:
            while not cv.wait_for(ready, timeout=0.1):
                if self._failure.is_set():
                    raise CommError(PEER_FAILED)
                if time.monotonic() > deadline:
                    raise CommError(
                        f"rank {rank} timed out waiting for {what}")

    def notify(self, ranks) -> None:
        for r in ranks:
            cv = self.rank_cv[r]
            with cv:
                cv.notify_all()

    def allgather(self, rank: int, value) -> Tuple[object, ...]:
        self._slots[rank] = value
        if self._failure.is_set():
            raise CommError(PEER_FAILED)
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            raise CommError(PEER_FAILED) from None
        return self._gathered

    def abort(self) -> None:
        """Mark the run failed and release everyone stuck in the
        barrier or a wait."""
        self._failure.set()
        self.barrier.abort()
        self.notify(range(self.size))

    # ------------------------------------------------------------------
    # whole-run views (every rank's counters live in this process)
    # ------------------------------------------------------------------
    def total_stats(self) -> CommStats:
        return CommStats(**{name: sum(getattr(s, name) for s in self.stats)
                            for name in COMM_FIELDS})

    def traffic_matrix(self) -> np.ndarray:
        """(size, size) static bytes-per-step estimate between rank
        pairs, from the halo schedules: kinematic halo (4 fields) plus
        nodal-sum completion (3 fields) — the map a communication-
        topology study would draw."""
        matrix = np.zeros((self.size, self.size))
        for sub in self.subdomains:
            for src, idx in sub.recv_nodes.items():
                matrix[src, sub.rank] += 4 * idx.size * _FLOAT_BYTES
            for peer, idx in sub.shared_nodes.items():
                matrix[peer, sub.rank] += 3 * idx.size * _FLOAT_BYTES
        return matrix


class TyphonComms:
    """One rank's communication endpoint (plugs into the comms seam).

    Every exchange runs the split-phase protocol over the compiled
    :class:`~repro.parallel.commplan.CommPlan`: ``post_*`` packs at
    parity ``k & 1`` of the per-section op counter and publishes the
    rank's post counter; ``complete_*`` waits only on the *source*
    neighbours' post counters, and a post may only reuse a parity half
    once every *reader* neighbour's complete counter shows the k−2 read
    finished.  No global barrier is involved, so ranks slide past each
    other by up to one exchange.  ``comm_plan="packed"`` is post +
    complete back to back at post time (:meth:`_post`).

    ``ctx`` is the :class:`Transport`; nothing here knows whether the
    peers are threads or processes.

    Packed nodal-sum totals are returned as rows of a reused arena
    buffer: they stay valid until the *next-but-one* completion with
    the same field count (double-buffered by parity), which covers
    every caller in the step loop — long-lived results must be
    committed by copy, the same contract as the PR-1 kernel arena.
    """

    #: declares conformance to repro.parallel.interface.CommEndpoint
    __comm_endpoint__ = True

    def __init__(self, ctx: Transport, sub: Subdomain,
                 timers: Optional[TimerRegistry] = None,
                 plan: Optional[CommPlan] = None, mode: str = "overlap"):
        self.ctx = ctx
        self.sub = sub
        self.rank = sub.rank
        self.size = ctx.size
        self.stats = ctx.stats[self.rank]
        #: the rank's :class:`~repro.utils.timers.TimerRegistry`; when
        #: it traces, every exchange/reduction records a ``comm`` span
        #: on this rank's stream (the span covers the waits too — in a
        #: trace, load imbalance shows up as long comm spans, and the
        #: span's ``wait_s``/``waited_on`` args say who was waited for)
        self.timers = timers if timers is not None else TimerRegistry()
        self.plan = plan if plan is not None else ctx.plans[self.rank]
        #: the schedule (``comm_plan``, validated by DistributedHydro):
        #: read by ``_post`` and nowhere else
        self.mode = mode
        #: per-section op counts (the parity source) and the in-flight
        #: post bookkeeping
        self._ops: Dict[str, int] = dict.fromkeys(SECTIONS, 0)
        self._pending: Dict[str, int] = {}
        self._pending_totals: Optional[tuple] = None
        #: results of the exchanges a packed endpoint finished at post
        #: time, by exchange name, until their complete half collects
        self._landed: Dict[str, object] = {}
        #: dt-reduction generation (guards the combining cells' reuse)
        self._dt_gen = 0
        #: ``(seconds, peer, leg)`` per wait of the open traced span;
        #: ``None`` whenever nothing is being traced
        self._waits: Optional[list] = None
        #: arena for the reusable nodal-sum totals buffers
        self._ws = Workspace()

    # ------------------------------------------------------------------
    # the two halves of every exchange, and the schedule between them
    # ------------------------------------------------------------------
    def _post(self, what: str, post, complete, *args) -> None:
        """Start exchange ``what`` — the one place the schedule is read.

        An overlap endpoint packs and publishes and returns; a packed
        one also completes on the spot (one ``typhon.complete_*`` span
        around both, so a packed run records no ``typhon.post_*``
        span) and parks the result for :meth:`_complete`.
        """
        if self.mode == "overlap":
            with self._span("typhon.post_" + what):
                post(*args)
            return
        if what in self._landed:
            raise CommError(
                f"rank {self.rank}: {what} exchange already posted — "
                "a second post must wait for complete"
            )
        with self._span("typhon.complete_" + what):
            post(*args)
            self._landed[what] = complete(*args)

    def _complete(self, what: str, complete, *args):
        """Finish exchange ``what``: hand back what :meth:`_post`
        already landed, else wait for the peers and land it now."""
        if what in self._landed:
            return self._landed.pop(what)
        with self._span("typhon.complete_" + what):
            return complete(*args)

    # ------------------------------------------------------------------
    # spans and wait attribution
    # ------------------------------------------------------------------
    def _span(self, name: str):
        if self.timers.spans is None:
            return _NULL_SPAN
        return self._traced(name)

    @contextmanager
    def _traced(self, name: str):
        """A ``comm`` span whose args say how long this call slept and
        on whom: ``wait_s`` sums its waits, ``waited_on`` names the
        peer rank (``None`` for an allgather) and the section / ``dt``
        leg of the longest one."""
        self._waits = waits = []
        with self.timers.span(name, cat="comm") as span:
            try:
                yield
            finally:
                self._waits = None
                span.args["wait_s"] = sum(w[0] for w in waits)
                span.args["waited_on"] = None
                if waits:
                    _, peer, leg = max(waits, key=lambda w: w[0])
                    span.args["waited_on"] = {"rank": peer, "leg": leg}

    def _wait(self, peer: int, leg: str, ready, what: str) -> None:
        """Sleep until ``ready()`` — the endpoint's only way to wait on
        a board cell.  Untraced, nothing is timed or recorded."""
        waits = self._waits
        if waits is None:
            self.ctx.wait(self.rank, ready, what)
            return
        t0 = time.perf_counter()
        self.ctx.wait(self.rank, ready, what)
        waits.append((time.perf_counter() - t0, peer, leg))

    def _allgather(self, value):
        waits = self._waits
        if waits is None:
            return self.ctx.allgather(self.rank, value)
        t0 = time.perf_counter()
        entries = self.ctx.allgather(self.rank, value)
        waits.append((time.perf_counter() - t0, None, "allgather"))
        return entries

    # ------------------------------------------------------------------
    # split-phase neighbour synchronisation
    # ------------------------------------------------------------------
    def _region(self, rank: int, section: str, parity: int) -> np.ndarray:
        """``rank``'s staged ``section`` block at ``parity``."""
        ctx = self.ctx
        return ctx.plans[rank].region(ctx.staging[rank], section, parity)

    def _post_section(self, name: str, arrays) -> int:
        """Pack op k of ``name`` and publish the post counter.

        Guards: at most one in-flight post per section (a same-parity
        double post would overwrite the half a peer may still read),
        and the parity half of op k is only reclaimed once every
        reader's complete counter proves the op k−2 read finished.
        """
        if name in self._pending:
            raise CommError(
                f"rank {self.rank}: {name} exchange already posted — "
                "a second same-parity post must wait for complete"
            )
        k = self._ops[name]
        sec = self.plan.section(name)
        col = _SECTION_COL[name]
        counters = self.ctx.counters
        for peer in sec.send_peers:
            self._wait(
                peer, name,
                lambda p=peer: counters[p, col, 1] >= k - 1,
                f"rank {peer} to finish reading {name} op {k - 2}",
            )
        sec.pack(self._region(self.rank, name, k & 1), arrays)
        counters[self.rank, col, 0] = k + 1
        # readers of this staging block wait on the post counter
        self.ctx.notify(sec.send_peers)
        self._pending[name] = k
        return k

    def _begin_complete(self, name: str) -> int:
        """Wait for every source neighbour's op-k post; return k."""
        k = self._pending.get(name)
        if k is None:
            raise CommError(
                f"rank {self.rank}: complete_{name} without a post"
            )
        col = _SECTION_COL[name]
        counters = self.ctx.counters
        for peer in self.plan.section(name).recv_peers:
            self._wait(
                peer, name,
                lambda p=peer: counters[p, col, 0] >= k + 1,
                f"rank {peer} to post {name} op {k}",
            )
        return k

    def _end_complete(self, name: str, k: int) -> None:
        self.ctx.counters[self.rank, _SECTION_COL[name], 1] = k + 1
        # ranks that send to us wait on the complete counter before
        # reclaiming the parity half we just finished reading
        self.ctx.notify(self.plan.section(name).recv_peers)
        del self._pending[name]
        self._ops[name] = k + 1

    # ------------------------------------------------------------------
    # kinematic halo exchange (before the viscosity kernel)
    # ------------------------------------------------------------------
    def post_kinematics(self, state) -> None:
        """Start the refresh of ghost-only nodes' x, y, u, v from their
        owner ranks: pack this rank's send blocks and publish — the
        caller may now compute whatever reads no ghost node."""
        self._post("kinematics", self._post_kinematics,
                   self._complete_kinematics, state)

    def complete_kinematics(self, state) -> Tuple[np.ndarray, np.ndarray]:
        """Finish a posted kinematic refresh: wait for the source
        neighbours' posts, scatter the ghost rows.  Returns the stale
        strip ``(plan.halo_cells, plan.halo_nodes)``."""
        return self._complete("kinematics", self._complete_kinematics, state)

    def _post_kinematics(self, state) -> None:
        self._post_section("kin", (state.x, state.y, state.u, state.v))

    def _complete_kinematics(self, state) -> Tuple[np.ndarray, np.ndarray]:
        k = self._begin_complete("kin")
        self._unpack_kinematics(state, k & 1)
        self._end_complete("kin", k)
        return self.plan.halo_cells, self.plan.halo_nodes

    def _unpack_kinematics(self, state, parity: int) -> None:
        """Scatter every source neighbour's staged (4, n) block."""
        sec = self.plan.kin
        for src_rank, local_idx in self.sub.recv_nodes.items():
            bx, by, bu, bv = sec.peer_blocks(
                src_rank, self._region(src_rank, "kin", parity),
                (1, 1, 1, 1)
            )
            state.x[local_idx] = bx
            state.y[local_idx] = by
            state.u[local_idx] = bu
            state.v[local_idx] = bv
            self.stats.account(4 * local_idx.size)
        self.stats.halo_exchanges += 1

    # ------------------------------------------------------------------
    # nodal sum completion (inside the acceleration kernel)
    # ------------------------------------------------------------------
    def post_node_sums(self, state, *partials: np.ndarray) -> None:
        """Start a nodal-sum completion.  ``partials`` are this rank's
        per-node sums accumulated from *owned* cells only: stage the
        shared-node blocks and pre-fill the totals with the local
        partials — every node *not* shared with a peer is final
        immediately; the complete half re-folds only the shared union
        strip."""
        self._post("node_sums", self._post_node_sums,
                   self._complete_node_sums, state, *partials)

    def complete_node_sums(self, state, *partials: np.ndarray
                           ) -> Tuple[np.ndarray, ...]:
        """Finish a posted nodal-sum completion (pass the same arrays):
        wait for the peers' posts, then fold the shared-node union
        (re-zeroed first) in ascending rank order with this rank's own
        partial in its sorted position, so shared nodes accumulate in a
        fixed order bit for bit on every rank."""
        return self._complete("node_sums", self._complete_node_sums,
                              state, *partials)

    def _post_node_sums(self, state, *partials: np.ndarray) -> None:
        k = self._post_section("nodesum", partials)
        # zeroed arena rows, double-buffered by parity (valid until the
        # next-but-one same-width completion)
        nf = len(partials)
        buf = self._ws.zeros(f"commplan.totals{nf}.{k & 1}",
                             (nf, partials[0].shape[0]))
        totals = tuple(buf[i] for i in range(nf))
        # 0 + p elementwise — the fold's first visit, so interior
        # (unshared) nodes are already bit-final
        for total, p in zip(totals, partials):
            total += p
        self._pending_totals = totals

    def _complete_node_sums(self, state, *partials: np.ndarray
                            ) -> Tuple[np.ndarray, ...]:
        k = self._begin_complete("nodesum")
        totals = self._pending_totals
        self._pending_totals = None
        sec = self.plan.nodesum
        union = self.plan.shared_union
        widths = _widths(partials)
        nf = len(partials)
        for total in totals:
            total[union] = 0.0
        ranks = sorted(set(self.sub.shared_nodes) | {self.rank})
        for r in ranks:
            if r == self.rank:
                for total, p in zip(totals, partials):
                    total[union] += p[union]
            else:
                mine = self.sub.shared_nodes[r]
                blocks = sec.peer_blocks(
                    r, self._region(r, "nodesum", k & 1), widths
                )
                for total, block in zip(totals, blocks):
                    total[mine] += block
                self.stats.account(nf * mine.size)
        self.stats.halo_exchanges += 1
        self._end_complete("nodesum", k)
        return totals

    # ------------------------------------------------------------------
    # the single global reduction (getdt)
    # ------------------------------------------------------------------
    def reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Global minimum-dt candidate, with the cell id globalised."""
        with self._span("typhon.reduce_dt"):
            return self._reduce_dt(candidates)

    def _write_dt_cell(self, row: int, g: int, cand: tuple) -> None:
        """Publish a candidate into this rank's combining cell: payload
        first, generation stamp last (x86 stores are not reordered, so
        a reader that observes the stamp observes the payload)."""
        dt, reason, gcell, src = cand
        try:
            code = DT_REASONS.index(reason)
        except ValueError:
            raise CommError(
                f"unencodable dt reason {reason!r}; expected one of "
                f"{DT_REASONS}"
            ) from None
        cell = self.ctx.dt_cells[self.rank, row]
        cell[1] = dt
        cell[2] = float(code)
        cell[3] = float(gcell)
        cell[4] = float(src)
        cell[0] = float(g)

    def _read_dt_cell(self, rank: int, row: int) -> tuple:
        cell = self.ctx.dt_cells[rank, row]
        return (float(cell[1]), DT_REASONS[int(cell[2])],
                int(cell[3]), int(cell[4]))

    def _reduce_dt(self, candidates: List[Candidate]) -> Candidate:
        """Binomial-tree combining reduction.

        Up-sweep: combine the children's candidates into this rank's
        local best and hand one candidate to the parent; down-sweep:
        the root's winner flows back along the same edges.  min over
        the ``(dt, src_rank)`` key is exact and associative, so the
        result is bitwise equal to a flat gather — but the critical
        path is ⌈log2 P⌉ combining messages instead of a rank-0 root's
        P−1.  Fully synchronising (no rank can leave before every rank
        has entered), which is what lets generation g+1 overwrite the
        cells of generation g.
        """
        dt, reason, cell = min(candidates, key=lambda c: c[0])
        gcell = int(self.sub.cell_global[cell]) if cell >= 0 else -1
        cells = self.ctx.dt_cells
        self._dt_gen += 1
        g = self._dt_gen
        best = (dt, reason, gcell, self.rank)
        children = tree_children(self.rank, self.size)
        for child in children:
            self._wait(
                child, "dt", lambda c=child: cells[c, 0, 0] >= g,
                f"dt candidate from child rank {child} (gen {g})",
            )
            best = min(best, self._read_dt_cell(child, 0),
                       key=lambda c: (c[0], c[3]))
        if self.rank == 0:
            result = best
        else:
            parent = tree_parent(self.rank)
            self._write_dt_cell(0, g, best)
            self.ctx.notify((parent,))
            self._wait(
                parent, "dt", lambda: cells[parent, 1, 0] >= g,
                f"dt result from parent rank {parent} (gen {g})",
            )
            result = self._read_dt_cell(parent, 1)
        self._write_dt_cell(1, g, result)
        self.ctx.notify(children)
        self.stats.reductions += 1
        self.stats.dt_reductions += 1
        self.stats.dt_hops += len(children)
        self.stats.account(DT_REDUCE_VALUES)
        return (result[0], result[1], result[2])

    def allreduce_max(self, value: float) -> float:
        """Global maximum of a scalar across ranks."""
        with self._span("typhon.allreduce_max"):
            result = max(self._allgather(float(value)))
            self.stats.reductions += 1
            self.stats.account(1)
            return float(result)

    def allreduce_sum(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global sum of a small vector across ranks."""
        with self._span("typhon.allreduce_sum"):
            return self._allreduce_combine(values, np.add)

    def allreduce_min(self, values: np.ndarray) -> np.ndarray:
        """Element-wise global minimum of a small vector across ranks."""
        with self._span("typhon.allreduce_min"):
            return self._allreduce_combine(values, np.minimum)

    def _allreduce_combine(self, values: np.ndarray, op) -> np.ndarray:
        # A left fold in ascending rank order on every rank, so every
        # rank of every backend produces bit-identical results.
        entries = self._allgather(np.array(values, dtype=np.float64))
        result = np.array(entries[0], dtype=np.float64)
        for entry in entries[1:]:
            result = op(result, entry)
        self.stats.reductions += 1
        self.stats.account(result.size)
        return result

    # ------------------------------------------------------------------
    def owned_cell_mask(self, state) -> Optional[np.ndarray]:
        return self.sub.owned_cell_mask

    # ------------------------------------------------------------------
    # cell-field halo (the distributed ALE remap)
    # ------------------------------------------------------------------
    def post_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Start a refresh of the ghost-cell rows of per-cell arrays
        from their owner ranks (every rank must pass the same array
        list): pack and publish this rank's owned-cell blocks (scalars
        and (n, 4) corner fields interleave by the plan's per-array
        widths)."""
        self._post("cell_arrays", self._post_cell_arrays,
                   self._complete_cell_arrays, *arrays)

    def complete_cell_arrays(self, *arrays: np.ndarray) -> None:
        """Finish a posted ghost-cell refresh (pass the same arrays)."""
        self._complete("cell_arrays", self._complete_cell_arrays, *arrays)

    def _post_cell_arrays(self, *arrays: np.ndarray) -> None:
        self._post_section("cell", arrays)

    def _complete_cell_arrays(self, *arrays: np.ndarray) -> None:
        k = self._begin_complete("cell")
        self._unpack_cell_arrays(arrays, k & 1)
        self._end_complete("cell", k)

    def _unpack_cell_arrays(self, arrays, parity: int) -> None:
        sec = self.plan.cell
        widths = _widths(arrays)
        for src_rank, local_idx in self.sub.recv_cells.items():
            blocks = sec.peer_blocks(
                src_rank, self._region(src_rank, "cell", parity), widths
            )
            nvalues = 0
            for mine, block in zip(arrays, blocks):
                mine[local_idx] = block
                nvalues += block.size
            self.stats.account(nvalues)
        self.stats.halo_exchanges += 1

    def post_cell_fields(self, state) -> None:
        """Start the ghost thermodynamic/mass refresh."""
        self.post_cell_arrays(
            state.rho, state.e, state.cell_mass, state.corner_mass
        )

    def complete_cell_fields(self, state) -> None:
        """Finish the posted ghost thermodynamic/mass refresh."""
        self.complete_cell_arrays(
            state.rho, state.e, state.cell_mass, state.corner_mass
        )

    def physical_boundary_sides(self, state) -> Optional[np.ndarray]:
        return self.sub.physical_boundary_sides()

    def physical_boundary_side_mask(self, state) -> Optional[np.ndarray]:
        return self.sub.physical_boundary_mask
