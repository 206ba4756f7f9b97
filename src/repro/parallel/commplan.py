"""Compiled communication plans — packed, coalesced halo messages.

The halo *schedules* (:class:`~repro.parallel.halo.Subdomain`) say which
values cross each rank pair; this module compiles them into a
:class:`CommPlan` per rank that says exactly **where every byte lives**
in a preallocated staging buffer, so the warm communication path makes
zero large allocations and one message per neighbour per exchange:

* the 4 kinematic fields (x, y, u, v) of one neighbour's ghost nodes
  coalesce into a single contiguous ``(4, n)`` block instead of four
  per-field fancy-indexed copies;
* the nodal-sum partials (3 fields in the Lagrangian acceleration,
  3–4 in the momentum remap) coalesce the same way — and only the
  *shared-node* values travel, never a full-array copy of the partial;
* the ALE cell fields pack into one block per neighbour with per-array
  widths (scalars and ``(n, 4)`` corner fields interleave).

A plan is pure layout: per peer, the local gather/scatter indices, the
block's base offset inside the owning rank's staging region, and the
region capacities.  Offsets are stored in *values per field* and scaled
by the live field count at pack time, so one compiled section serves
the 3-field and the 4-field nodal sums alike.  The transports supply
the storage — a :class:`~repro.perf.workspace.Workspace`-held array
in-process, a ``multiprocessing.shared_memory`` mailbox between
processes — each **double-buffered** (two parity halves) so no
exchange needs a barrier: rank A may start packing op *k+1* of a
section while a slow rank B still reads A's op-*k* block, because
consecutive ops write opposite parity halves, and a same-parity reuse
(ops *k* and *k+2*) waits for every reader's complete counter.

Packing is a pure reorder (gather on the sender, scatter/accumulate on
the receiver), so a packed run is **bit-identical** step for step;
``tests/parallel/test_commplan.py`` and ``test_overlap.py`` hold the
``packed`` and ``overlap`` schedules to that.

For the overlapped (split-phase) mode the compiler also classifies the
rank's topology once, at compile time:

* ``halo_cells`` — local cells incident to at least one *received*
  kinematic halo node (their geometry depends on the exchange);
* ``interior_cells`` — every other cell, safe to compute while the
  halo is in flight;
* ``shared_union`` — the sorted union of all shared (force-sum) nodes,
  the strip a completion must re-fold in ascending rank order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .halo import Subdomain

_FLOAT_BYTES = 8

#: the kinematic halo always carries x, y, u, v
KIN_FIELDS = 4
#: the widest nodal-sum completion (the momentum remap's vol/mass/mom)
MAX_SUM_FIELDS = 4
#: the widest cell-field exchange: rho, e, cell_mass (width 1 each)
#: plus corner_mass (width 4) — the gradient halo is only 4 wide
MAX_CELL_WIDTH = 7

#: section names in staging-layout order
SECTIONS = ("kin", "nodesum", "cell")


def _widths(arrays: Sequence[np.ndarray]) -> Tuple[int, ...]:
    """Per-array trailing widths (1 for 1-D fields, ``shape[1]`` else)."""
    return tuple(1 if a.ndim == 1 else int(a.shape[1]) for a in arrays)


@dataclass
class PackSection:
    """One exchange type's packed layout for one rank.

    ``send_base``/``recv_base`` are offsets in *values per field*:
    multiply by the live total field width to get the double offset of
    a peer's block inside the (sender's) section region.  ``recv_base``
    is the sender's ``send_base`` for *this* rank — compiled in a
    second pass over all ranks, so a receiver can index straight into
    its peer's staging without any runtime negotiation.
    """

    name: str
    max_width: int
    send_peers: Tuple[int, ...] = ()
    send_idx: Dict[int, np.ndarray] = field(default_factory=dict)
    send_base: Dict[int, int] = field(default_factory=dict)
    send_total: int = 0
    recv_peers: Tuple[int, ...] = ()
    recv_idx: Dict[int, np.ndarray] = field(default_factory=dict)
    recv_base: Dict[int, int] = field(default_factory=dict)

    @property
    def capacity(self) -> int:
        """Region size in doubles (widest message this section packs)."""
        return self.max_width * self.send_total

    # ------------------------------------------------------------------
    def pack(self, region: np.ndarray,
             arrays: Sequence[np.ndarray]) -> None:
        """Gather every peer's block into this rank's section region."""
        widths = _widths(arrays)
        total = sum(widths)
        for peer in self.send_peers:
            idx = self.send_idx[peer]
            off = total * self.send_base[peer]
            for arr, w in zip(arrays, widths):
                n = idx.size * w
                chunk = region[off:off + n]
                if w == 1:
                    np.take(arr, idx, out=chunk)
                else:
                    np.take(arr, idx, axis=0, out=chunk.reshape(idx.size, w))
                off += n

    def peer_blocks(self, peer: int, peer_region: np.ndarray,
                    widths: Sequence[int]) -> List[np.ndarray]:
        """Views of the block ``peer`` packed *for this rank*, one per
        array, shaped ``(n,)`` or ``(n, w)`` to match the originals."""
        idx = self.recv_idx[peer]
        off = sum(widths) * self.recv_base[peer]
        views: List[np.ndarray] = []
        for w in widths:
            n = idx.size * w
            chunk = peer_region[off:off + n]
            views.append(chunk if w == 1 else chunk.reshape(idx.size, w))
            off += n
        return views


@dataclass
class CommPlan:
    """One rank's complete packed-exchange layout.

    The staging buffer is one flat float64 array of
    ``2 * doubles_per_parity`` doubles: two parity halves, each holding
    the kin | nodesum | cell regions back to back.
    """

    rank: int
    kin: PackSection
    nodesum: PackSection
    cell: PackSection
    #: compile-time interior/boundary split for the overlapped mode:
    #: cells whose nodes include >= 1 received halo node ...
    halo_cells: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: ... and the complement — safe to compute during halo transit
    interior_cells: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: sorted union of every peer's shared (force-sum) nodes — the
    #: strip `complete_node_sums` re-folds in ascending rank order
    shared_union: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: ``cell_nodes[halo_cells]``, precomputed — the boundary strip's
    #: corner gather re-runs every step, so the index rows are baked
    #: at compile time instead of re-sliced per exchange
    halo_nodes: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        offset = 0
        self._offsets: Dict[str, int] = {}
        for name in SECTIONS:
            self._offsets[name] = offset
            offset += self.section(name).capacity
        #: doubles of one parity half (kin + nodesum + cell regions)
        self.doubles_per_parity = offset

    def section(self, name: str) -> PackSection:
        return getattr(self, name)

    @property
    def total_doubles(self) -> int:
        """Staging size in doubles (both parity halves)."""
        return 2 * self.doubles_per_parity

    @property
    def nbytes(self) -> int:
        return self.total_doubles * _FLOAT_BYTES

    def staging_doubles(self) -> int:
        """Allocation size for the staging buffer (never zero — a
        neighbourless rank still needs a valid, if empty, segment)."""
        return max(self.total_doubles, 1)

    def region(self, staging: np.ndarray, name: str,
               parity: int) -> np.ndarray:
        """The ``name`` section's view inside ``staging`` at ``parity``."""
        base = parity * self.doubles_per_parity + self._offsets[name]
        return staging[base:base + self.section(name).capacity]

    def describe(self) -> dict:
        """JSON-ready layout summary (bench and doc input)."""
        out: Dict[str, object] = {"rank": self.rank,
                                  "staging_bytes": self.nbytes}
        for name in SECTIONS:
            sec = self.section(name)
            out[name] = {
                "peers": len(sec.send_peers),
                "values_per_field": sec.send_total,
                "capacity_doubles": sec.capacity,
            }
        return out


def classify_interior(sub: Subdomain) -> Tuple[np.ndarray, np.ndarray]:
    """``(interior_cells, halo_cells)`` of one subdomain.

    A cell is *halo* iff one of its nodes is refreshed by the kinematic
    exchange (``recv_nodes``) — its corner gather must wait for the
    completion.  Every other cell (including all owned-interior cells)
    can be gathered while the halo is still in flight.
    """
    recv_mask = np.zeros(sub.mesh.nnode, dtype=bool)
    for idx in sub.recv_nodes.values():
        recv_mask[idx] = True
    halo = recv_mask[sub.mesh.cell_nodes].any(axis=1)
    cells = np.arange(sub.mesh.ncell, dtype=np.int64)
    return cells[~halo], cells[halo]


def shared_union(sub: Subdomain) -> np.ndarray:
    """Sorted union of all peers' shared (force-sum) node ids."""
    if not sub.shared_nodes:
        return np.zeros(0, dtype=np.int64)
    return np.unique(np.concatenate(
        [np.asarray(v, dtype=np.int64) for v in sub.shared_nodes.values()]
    ))


def _compile_section(name: str, max_width: int,
                     send: Dict[int, np.ndarray],
                     recv: Dict[int, np.ndarray]) -> PackSection:
    sec = PackSection(name=name, max_width=max_width)
    sec.send_peers = tuple(sorted(send))
    base = 0
    for peer in sec.send_peers:
        idx = np.ascontiguousarray(send[peer])
        sec.send_idx[peer] = idx
        sec.send_base[peer] = base
        base += idx.size
    sec.send_total = base
    sec.recv_peers = tuple(sorted(recv))
    for peer in sec.recv_peers:
        sec.recv_idx[peer] = np.ascontiguousarray(recv[peer])
    return sec


def compile_plans(subdomains: List[Subdomain]) -> List[CommPlan]:
    """Compile every rank's :class:`CommPlan` from the halo schedules.

    Two passes: first each rank lays out its own send blocks (ascending
    peer order), then every receiver copies its peers' block bases so
    reads need no runtime offset exchange.  The nodal-sum section is
    symmetric — ``shared_nodes[peer]`` is both what this rank packs for
    ``peer`` and where it accumulates ``peer``'s contribution.
    """
    plans = []
    for sub in subdomains:
        interior, halo = classify_interior(sub)
        plans.append(CommPlan(
            rank=sub.rank,
            kin=_compile_section("kin", KIN_FIELDS,
                                 sub.send_nodes, sub.recv_nodes),
            nodesum=_compile_section("nodesum", MAX_SUM_FIELDS,
                                     sub.shared_nodes, sub.shared_nodes),
            cell=_compile_section("cell", MAX_CELL_WIDTH,
                                  sub.send_cells, sub.recv_cells),
            halo_cells=halo,
            interior_cells=interior,
            shared_union=shared_union(sub),
            halo_nodes=sub.mesh.cell_nodes[halo],
        ))
    for plan in plans:
        for name in SECTIONS:
            sec = plan.section(name)
            for peer in sec.recv_peers:
                sec.recv_base[peer] = \
                    plans[peer].section(name).send_base[plan.rank]
    return plans


def mailbox_ratio(subdomains: List[Subdomain],
                  plans: List[CommPlan]) -> dict:
    """Legacy full-array mailbox bytes vs. the packed plan's staging
    bytes, summed over ranks — the window-shrink headline number."""
    legacy = sum(
        (8 * sub.mesh.nnode + 15 * sub.mesh.ncell) * _FLOAT_BYTES
        for sub in subdomains
    )
    packed = sum(plan.staging_doubles() * _FLOAT_BYTES for plan in plans)
    return {
        "legacy_bytes": legacy,
        "packed_bytes": packed,
        "ratio": legacy / packed if packed else float("inf"),
    }
