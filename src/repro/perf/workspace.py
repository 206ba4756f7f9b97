"""A preallocated buffer arena for the hot kernels.

:class:`Workspace` hands out numpy arrays keyed by ``(name, shape,
dtype)``.  The first request for a key allocates; every subsequent
request returns the *same* array, so a steady-state loop that always
asks for the same buffers performs zero large allocations after its
first pass.  Buffers are plain scratch: their contents are undefined
between requests (use :meth:`Workspace.zeros` when a zero-filled
buffer is required) and they must never be stored anywhere that
outlives the loop iteration that requested them — long-lived state is
committed by copying out of the arena.

Two kinds of buffer:

* **Borrowed** (:meth:`Workspace.borrow` / :meth:`Workspace.release`) —
  the default.  A per-``(element count, dtype)`` free-list: ``borrow``
  pops the most-recently-released block (cache-hot, exactly the
  recycling ``malloc`` gives allocate-per-call code), viewed in the
  requested shape, or allocates on first use; ``release`` returns
  blocks when the value dies.  Because a released block serves whoever
  borrows that many elements next — the next kernel, the remap's
  ``(ncell, 4)`` temporaries out of the step's ``(4, ncell)`` blocks —
  the arena's footprint is the *peak live* set of the most demanding
  phase, not the sum over phases.  Only borrow sizes that recur: any
  other block just sits on the free-list (the remap's face-shaped
  temporaries are plain allocations for that reason).
* **Named** (:meth:`Workspace.array` / :meth:`Workspace.zeros`) — keyed
  by ``(name, shape, dtype)`` and never recycled, so the exception: a
  result that must stay put across several kernel calls of one phase
  with no single owner to release it (the step's gathered geometry,
  the half-step thermodynamics, the acceleration's new velocities).

A warm step makes about a hundred borrows, so a request is a few dict
hits: each distinct ``(shape, dtype)`` is normalised once and
remembered.  A pair still costs more than an ``np.empty`` of a small
block — the arena saves memory traffic, not call overhead
(docs/PERFORMANCE.md, "A step's fixed cost").

:func:`scratch` resolves the optional ``ws`` argument the kernels take:
it returns the given workspace, or a stand-in whose ``array``/``zeros``/
``borrow`` allocate fresh arrays and whose ``release`` does nothing, so
every kernel has one body, written against the workspace API, that
also runs standalone.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple, Union

import numpy as np

Shape = Union[int, Tuple[int, ...]]


def _as_shape(shape: Shape) -> Tuple[int, ...]:
    if isinstance(shape, (int, np.integer)):
        return (int(shape),)
    return tuple(int(s) for s in shape)


class Workspace:
    """Buffer arena keyed by ``(name, shape, dtype)``.

    Statistics (``hits``, ``misses``, :meth:`nbytes`) let tests assert
    that the arena stops growing once the loop reaches steady state.
    """

    def __init__(self) -> None:
        self._buffers: Dict[tuple, np.ndarray] = {}
        #: free blocks per ``(element count, np.dtype)``, last released last
        self._free: Dict[Tuple[int, np.dtype], list] = {}
        #: ``(shape, dtype)`` as requested -> ``(shape tuple, (element
        #: count, np.dtype))``
        self._keys: Dict[tuple, tuple] = {}
        #: arrays ever allocated by :meth:`borrow` (free + outstanding)
        self._borrowed_count = 0
        self._borrowed_nbytes = 0
        #: requests served from an existing buffer
        self.hits = 0
        #: requests that had to allocate
        self.misses = 0

    def _key(self, shape: Shape, dtype) -> tuple:
        """Normalise a request's ``(shape, dtype)`` and remember it."""
        full = _as_shape(shape)
        key = self._keys[shape, dtype] = (full,
                                          (math.prod(full), np.dtype(dtype)))
        return key

    def array(self, name: str, shape: Shape,
              dtype: np.dtype = np.float64) -> np.ndarray:
        """Uninitialised buffer for ``name``; contents are scratch."""
        shape, (_, dtype) = (self._keys.get((shape, dtype))
                             or self._key(shape, dtype))
        key = (name, shape, dtype)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def zeros(self, name: str, shape: Shape,
              dtype: np.dtype = np.float64) -> np.ndarray:
        """Like :meth:`array` but zero-filled on every request."""
        buf = self.array(name, shape, dtype)
        buf.fill(0)
        return buf

    def borrow(self, shape: Shape,
               dtype: np.dtype = np.float64) -> np.ndarray:
        """Scratch buffer from the free-list (most-recently-released
        first); allocates only when the list for this (element count,
        dtype) is empty.  Pair every ``borrow`` with a :meth:`release`
        when the temporary dies — a missing release shows up as arena
        growth, which the no-growth tests catch."""
        shape, key = (self._keys.get((shape, dtype))
                      or self._key(shape, dtype))
        pool = self._free.get(key)
        if pool:
            self.hits += 1
            buf = pool.pop()
            return buf if buf.shape == shape else buf.reshape(shape)
        self.misses += 1
        buf = np.empty(shape, dtype=key[1])
        self._borrowed_count += 1
        self._borrowed_nbytes += buf.nbytes
        return buf

    def release(self, *arrays: np.ndarray) -> None:
        """Return borrowed buffers to the free-list.

        The caller must not touch a buffer after releasing it; the next
        ``borrow`` of the same size/dtype will hand it out again.
        """
        free = self._free
        for buf in arrays:
            key = (buf.size, buf.dtype)
            pool = free.get(key)
            if pool is None:
                free[key] = [buf]
            else:
                pool.append(buf)

    def __len__(self) -> int:
        return len(self._buffers) + self._borrowed_count

    def nbytes(self) -> int:
        """Total bytes currently held by the arena."""
        return (sum(buf.nbytes for buf in self._buffers.values())
                + self._borrowed_nbytes)

    def clear(self) -> None:
        self._buffers.clear()
        self._free.clear()
        self._keys.clear()
        self._borrowed_count = 0
        self._borrowed_nbytes = 0
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Workspace {len(self)} buffers, "
                f"{self.nbytes() / 1e6:.2f} MB, "
                f"{self.hits} hits / {self.misses} misses>")


class _AllocScratch:
    """Workspace stand-in that always allocates (no arena supplied)."""

    def array(self, name: str, shape: Shape,
              dtype: np.dtype = np.float64) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def zeros(self, name: str, shape: Shape,
              dtype: np.dtype = np.float64) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def borrow(self, shape: Shape,
               dtype: np.dtype = np.float64) -> np.ndarray:
        return np.empty(shape, dtype=dtype)

    def release(self, *arrays: np.ndarray) -> None:
        pass


_ALLOC = _AllocScratch()


def scratch(ws: Optional[Workspace]):
    """The given workspace, or the allocating stand-in."""
    return ws if ws is not None else _ALLOC
