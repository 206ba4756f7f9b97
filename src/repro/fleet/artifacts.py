"""Compiled-artifact cache: reuse mesh-derived schedules across jobs.

A sweep re-runs the same mesh spec dozens of times; without this every
decomposed run re-partitions the mesh, rebuilds the ghosted subdomains
and recompiles the packed CommPlans.  All of those are pure functions
of the mesh *topology* plus ``(nranks, method)``, so the fleet attaches
one :class:`ArtifactCache` and every same-mesh job after the first gets
them for free.  (The per-mesh :class:`~repro.perf.plans.MeshPlans` are
not cached here: every mesh builds its own lazily, in 0.1–4.5 ms, and a
cross-job hit would need two ensemble groups on one topology in one
submission.)

The cache is keyed by a topology fingerprint — ``(ncell, nnode,
sha256(cell_nodes))`` — never by object identity, so two
independently-built but identical meshes share entries.  Everything
cached here is read-only during a run (states are restricted by copy,
plans are index tables), and reuse is *exact*: the returned objects are
the very ones a fresh compile would produce, so bit-identity is
untouched.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np


def mesh_fingerprint(mesh) -> Tuple[int, int, str]:
    """Content key of a mesh's topology (coordinates live in the
    state, not here)."""
    digest = hashlib.sha256(
        np.ascontiguousarray(mesh.cell_nodes).tobytes()).hexdigest()
    return (int(mesh.ncell), int(mesh.nnode), digest)


class ArtifactCache:
    """Memoises partitions, subdomains and CommPlans."""

    def __init__(self):
        self._decomps: Dict[Tuple, Tuple] = {}
        self._plans: Dict[Tuple, List] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def decomposition(self, mesh, nranks: int, method: str):
        """``(partition, subdomains)`` for this mesh/rank-count/method,
        compiled once."""
        from ..parallel.halo import build_subdomains
        from ..parallel.partition.interface import partition

        key = (mesh_fingerprint(mesh), int(nranks), str(method))
        entry = self._decomps.get(key)
        if entry is None:
            self.misses += 1
            part = partition(mesh, nranks, method)
            subs = build_subdomains(mesh, part, nranks)
            entry = self._decomps[key] = (part, subs)
        else:
            self.hits += 1
        return entry

    def comm_plans(self, mesh, nranks: int, method: str, subdomains):
        """The packed-exchange CommPlans for this decomposition."""
        from ..parallel.commplan import compile_plans

        key = (mesh_fingerprint(mesh), int(nranks), str(method))
        plans = self._plans.get(key)
        if plans is None:
            self.misses += 1
            plans = self._plans[key] = compile_plans(subdomains)
        else:
            self.hits += 1
        return plans

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "decompositions": len(self._decomps),
            "comm_plans": len(self._plans),
        }
