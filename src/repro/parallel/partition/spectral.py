"""Spectral recursive bisection — the METIS substitute.

BookLeaf's second decomposition option is a hypergraph strategy via
METIS; METIS is unavailable offline, so we provide the textbook
graph-partitioning equivalent: recursive spectral bisection of the
cell-adjacency graph (split at the median of the Fiedler vector of the
graph Laplacian), followed by a greedy Kernighan–Lin-style boundary
refinement that moves cells across the cut while it reduces the edge
cut and preserves balance.  The interface matches RCB (cells ->
part ids), and DESIGN.md documents the substitution.
"""

from __future__ import annotations

import numpy as np

from ...mesh.topology import QuadMesh
from ...utils.errors import PartitionError
from ...utils.lazy import require

#: seed of the eigensolver's start vector (any fixed value will do)
_START_SEED = 0


#: what the structured error names when scipy is missing
_FEATURE = "partition='spectral'"


def adjacency_matrix(mesh: QuadMesh) -> sp.csr_matrix:
    """Symmetric cell-adjacency matrix from the interior face list."""
    sp = require("scipy.sparse", _FEATURE, PartitionError)
    pairs = mesh.cell_adjacency_pairs()
    i = np.concatenate([pairs[:, 0], pairs[:, 1]])
    j = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(i.size)
    return sp.csr_matrix((data, (i, j)), shape=(mesh.ncell, mesh.ncell))


def _fiedler_split(adj: sp.csr_matrix, idx: np.ndarray, frac: float
                   ) -> np.ndarray:
    """Boolean mask over ``idx``: True for the low side of the split."""
    sp = require("scipy.sparse", _FEATURE, PartitionError)
    spla = require("scipy.sparse.linalg", _FEATURE, PartitionError)
    sub = adj[idx][:, idx]
    n = idx.size
    if n <= 2:
        mask = np.zeros(n, dtype=bool)
        mask[: max(int(round(frac * n)), 1)] = True
        return mask
    degree = np.asarray(sub.sum(axis=1)).ravel()
    lap = sp.diags(degree) - sub
    try:
        # Smallest two eigenpairs of the Laplacian; the second is the
        # Fiedler vector.  Shift-invert around 0 keeps it fast.  ARPACK
        # would otherwise start from a random vector, and on a square
        # mesh (degenerate λ₂) that picks a different Fiedler direction
        # — a different partition — every run; a fixed start (not the
        # all-ones null vector) makes the iteration reproducible.
        v0 = np.random.default_rng(_START_SEED).standard_normal(n)
        _, vecs = spla.eigsh(lap.astype(np.float64), k=2, sigma=-1e-3,
                             which="LM", tol=1e-6, v0=v0)
        fiedler = vecs[:, 1]
    except Exception:
        # Dense fallback for tiny or ill-conditioned subgraphs.
        w, v = np.linalg.eigh(lap.toarray())
        fiedler = v[:, np.argsort(w)[1]]
    # An eigenvector's sign is arbitrary; pin it so "low side" always
    # names the same cells.
    if fiedler[np.argmax(np.abs(fiedler))] < 0.0:
        fiedler = -fiedler
    order = np.argsort(fiedler, kind="stable")
    split = min(max(int(round(frac * n)), 1), n - 1)
    mask = np.zeros(n, dtype=bool)
    mask[order[:split]] = True
    return mask


def _refine(adj: sp.csr_matrix, idx: np.ndarray, mask: np.ndarray,
            frac: float, passes: int = 2) -> np.ndarray:
    """Greedy boundary refinement: flip cells whose gain is positive."""
    sub = adj[idx][:, idx].tocsr()
    n = idx.size
    lo_target = int(round(frac * n))
    slack = max(1, n // 20)
    for _ in range(passes):
        lo_size = int(mask.sum())
        indptr, indices = sub.indptr, sub.indices
        moved = 0
        # Gain of flipping i = (neighbours on other side) - (same side).
        for i in range(n):
            nbrs = indices[indptr[i]:indptr[i + 1]]
            if nbrs.size == 0:
                continue
            same = int((mask[nbrs] == mask[i]).sum())
            other = nbrs.size - same
            gain = other - same
            if gain <= 0:
                continue
            new_lo = lo_size + (1 if not mask[i] else -1)
            if abs(new_lo - lo_target) > slack:
                continue
            mask[i] = not mask[i]
            lo_size = new_lo
            moved += 1
        if moved == 0:
            break
    return mask


def spectral_partition(mesh: QuadMesh, nparts: int,
                       refine: bool = True) -> np.ndarray:
    """Partition the mesh's cells into ``nparts`` parts spectrally."""
    if nparts < 1:
        raise PartitionError(f"nparts must be >= 1, got {nparts}")
    if nparts > mesh.ncell:
        raise PartitionError(
            f"cannot split {mesh.ncell} cells into {nparts} parts"
        )
    adj = adjacency_matrix(mesh)
    part = np.zeros(mesh.ncell, dtype=np.int64)

    def recurse(idx: np.ndarray, k: int, base: int) -> None:
        if k == 1:
            part[idx] = base
            return
        k_lo = k // 2
        mask = _fiedler_split(adj, idx, k_lo / k)
        if refine:
            mask = _refine(adj, idx, mask, k_lo / k)
        recurse(idx[mask], k_lo, base)
        recurse(idx[~mask], k - k_lo, base + k_lo)

    recurse(np.arange(mesh.ncell), nparts, 0)
    return part
