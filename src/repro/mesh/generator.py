"""Mesh generators for the bundled test problems.

BookLeaf generates its meshes from region descriptions in the input
deck.  All four shipped problems use logically-rectangular regions of
quadrilaterals (stored and solved as fully unstructured meshes — the
kernels never exploit the structure), with the Saltzmann problem using
the classic skewed mesh of Dukowicz & Meltz.

Generators return :class:`~repro.mesh.topology.QuadMesh` objects.  A
generator call identifies its mesh completely, so inside a
:func:`shared_meshes` scope each public generator (:func:`rect_mesh`,
:func:`saltzmann_mesh`, :func:`shell_mesh`, :func:`perturbed_mesh`,
:func:`pinwheel_mesh`) looks its memo up by the generator's name and
its normalised arguments *before* generating anything, and hands back
the mesh an identical call already built (and validated).  A mesh is
immutable, so every state built on it may share it.  Sharing is by
call, not by content: two generators (or two different calls) that
happen to produce the same bytes build two meshes.  A call that has no
key — a ``warp`` callable, an argument of an unexpected type — builds a
fresh mesh, as does every call outside a scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import (Callable, Iterator, MutableMapping, Optional, Sequence,
                    Tuple)

import numpy as np

from ..utils.errors import MeshError
from .topology import QuadMesh

#: the open :func:`shared_meshes` memo of this thread/context, if any
_SHARED: ContextVar[Optional[MutableMapping[tuple, QuadMesh]]] = ContextVar(
    "shared_meshes", default=None)


@contextmanager
def shared_meshes(memo: MutableMapping[tuple, QuadMesh]) -> Iterator[None]:
    """Serve every mesh a public generator builds in this scope from
    ``memo`` (``(generator name, *normalised arguments)`` → mesh),
    adding the ones it lacks.  ``memo`` may be a
    :class:`weakref.WeakValueDictionary`: a mesh then stays shared for
    as long as something holds it.  The scope is a
    :class:`~contextvars.ContextVar`: other threads, and builds outside
    the ``with`` block, never see it."""
    token = _SHARED.set(memo)
    try:
        yield
    finally:
        _SHARED.reset(token)


def _count(value) -> int:
    """A cell count or seed as a key: Python and numpy ints alike."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    raise TypeError(value)


def _real(value) -> float:
    """A length or angle as a key (``-0.0`` counts as ``0.0``, and the
    mesh is built from the key's value, so equal keys build equal
    bytes)."""
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value) + 0.0
    raise TypeError(value)


def _extents(value) -> Tuple[float, float, float, float]:
    """``(x0, x1, y0, y1)`` as a key: a tuple of four floats."""
    x0, x1, y0, y1 = value
    return _real(x0), _real(x1), _real(y0), _real(y1)


def _shared(name: str, build: Callable[..., QuadMesh],
            kinds: Sequence[Callable], *args) -> QuadMesh:
    """``build(*args)`` — from the normalised arguments when every one
    of ``args`` normalises by its ``kinds`` entry, and then served from
    the open :func:`shared_meshes` memo under ``(name, *normalised)``.
    A call that does not normalise is built fresh from ``args`` as
    given, so it fails (or not) exactly as it would unshared."""
    try:
        args = tuple(kind(arg) for kind, arg in zip(kinds, args))
    except (TypeError, ValueError, OverflowError):
        return build(*args)
    memo = _SHARED.get()
    if memo is None:
        return build(*args)
    key = (name,) + args
    mesh = memo.get(key)
    if mesh is None:
        mesh = memo[key] = build(*args)
    return mesh


def _grid_nodes(nx: int, ny: int, extents: Tuple[float, float, float, float]
                ) -> Tuple[np.ndarray, np.ndarray]:
    x0, x1, y0, y1 = extents
    if nx < 1 or ny < 1:
        raise MeshError(f"need nx, ny >= 1, got {nx}x{ny}")
    if not (x1 > x0 and y1 > y0):
        raise MeshError(f"degenerate extents {extents}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    return gx.ravel(), gy.ravel()


def _grid_cells(nx: int, ny: int) -> np.ndarray:
    """CCW quads over an (nx+1) x (ny+1) node grid laid out row-major."""
    j, i = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    n0 = j * (nx + 1) + i
    n1 = n0 + 1
    n2 = n1 + (nx + 1)
    n3 = n0 + (nx + 1)
    return np.stack([n0.ravel(), n1.ravel(), n2.ravel(), n3.ravel()], axis=1)


def rect_mesh(nx: int, ny: int,
              extents: Tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
              warp: Optional[Callable[[np.ndarray, np.ndarray],
                                      Tuple[np.ndarray, np.ndarray]]] = None
              ) -> QuadMesh:
    """A logically-rectangular quad mesh over ``extents``.

    ``warp(x, y) -> (x', y')`` optionally remaps node coordinates (used
    for distorted-mesh tests); the warp must preserve orientation.  A
    warped mesh is never shared (a callable has no key).
    """
    if warp is not None:
        return _rect(nx, ny, extents, warp)
    return _shared("rect_mesh", _rect, (_count, _count, _extents),
                   nx, ny, extents)


def _rect(nx, ny, extents, warp=None) -> QuadMesh:
    x, y = _grid_nodes(nx, ny, extents)
    if warp is not None:
        x, y = warp(x, y)
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
    return QuadMesh(x, y, _grid_cells(nx, ny))


def saltzmann_mesh(nx: int = 100, ny: int = 10,
                   length: float = 1.0, height: float = 0.1) -> QuadMesh:
    """The Dukowicz–Meltz skewed piston mesh.

    Interior node lines are sheared sinusoidally:

        x(ξ, η) = ξ + (height − η) · sin(π ξ) ,   y(ξ, η) = η

    so cells are maximally distorted at the lower wall and straight at
    the upper wall.  This is the standard hourglass-exacerbating mesh
    for the Saltzmann piston problem (paper Section III-B).
    """
    return _shared("saltzmann_mesh", _saltzmann,
                   (_count, _count, _real, _real), nx, ny, length, height)


def _saltzmann(nx, ny, length, height) -> QuadMesh:
    def warp(x, y):
        return x + (height - y) * np.sin(np.pi * x / length), y

    return _rect(nx, ny, (0.0, length, 0.0, height), warp)


def shell_mesh(nr: int, ntheta: int,
               r_inner: float, r_outer: float,
               theta0: float = 0.0,
               theta1: float = 0.5 * np.pi) -> QuadMesh:
    """A polar annulus sector (``nr`` radial × ``ntheta`` angular cells).

    Nodes sit at the tensor product of ``nr + 1`` radii and
    ``ntheta + 1`` angles; cells are the resulting curvilinear quads
    (straight-edged, so arcs are polygonal).  The default sector is the
    first quadrant, which is what the Kidder shell-compression problem
    meshes (symmetry walls on both axes).
    """
    return _shared("shell_mesh", _shell,
                   (_count, _count, _real, _real, _real, _real),
                   nr, ntheta, r_inner, r_outer, theta0, theta1)


def _shell(nr, ntheta, r_inner, r_outer, theta0, theta1) -> QuadMesh:
    if nr < 1 or ntheta < 1:
        raise MeshError(f"need nr, ntheta >= 1, got {nr}x{ntheta}")
    if not 0.0 < r_inner < r_outer:
        raise MeshError(
            f"need 0 < r_inner < r_outer, got [{r_inner}, {r_outer}]"
        )
    if not theta1 > theta0:
        raise MeshError(f"degenerate sector [{theta0}, {theta1}]")
    radii = np.linspace(r_inner, r_outer, nr + 1)
    angles = np.linspace(theta0, theta1, ntheta + 1)
    r, th = np.meshgrid(radii, angles, indexing="xy")
    # same row-major node layout as rect_mesh, with r playing x and
    # theta playing y; the polar map preserves orientation (Jacobian r)
    return QuadMesh((r * np.cos(th)).ravel(), (r * np.sin(th)).ravel(),
                    _grid_cells(nr, ntheta))


def perturbed_mesh(nx: int, ny: int,
                   extents: Tuple[float, float, float, float] = (0.0, 1.0, 0.0, 1.0),
                   amplitude: float = 0.2, seed: int = 0) -> QuadMesh:
    """A randomly-perturbed rectangular mesh for robustness testing.

    Interior nodes are displaced by ``amplitude`` times the local cell
    spacing in a uniform random direction.  Boundary nodes stay put so
    the domain shape (and BC classification) is unchanged.  Amplitudes
    below ~0.3 keep all cells convex.  Only an integer ``seed`` makes
    the call shareable (``seed=None`` draws a new mesh every call).
    """
    return _shared("perturbed_mesh", _perturbed,
                   (_count, _count, _extents, _real, _count),
                   nx, ny, extents, amplitude, seed)


def _perturbed(nx, ny, extents, amplitude, seed) -> QuadMesh:
    if not 0.0 <= amplitude < 0.5:
        raise MeshError(f"perturbation amplitude must be in [0, 0.5), got {amplitude}")
    x0, x1, y0, y1 = extents
    dx = (x1 - x0) / nx
    dy = (y1 - y0) / ny
    x, y = _grid_nodes(nx, ny, extents)
    rng = np.random.default_rng(seed)
    interior = (
        (x > x0 + 0.5 * dx) & (x < x1 - 0.5 * dx)
        & (y > y0 + 0.5 * dy) & (y < y1 - 0.5 * dy)
    )
    n = int(interior.sum())
    x = x.copy()
    y = y.copy()
    x[interior] += amplitude * dx * rng.uniform(-1.0, 1.0, size=n)
    y[interior] += amplitude * dy * rng.uniform(-1.0, 1.0, size=n)
    return QuadMesh(x, y, _grid_cells(nx, ny))


def pinwheel_mesh(nquads: int = 3, radius: float = 1.0) -> QuadMesh:
    """A disc of ``nquads`` quads sharing one centre node.

    The centre node has valence ``nquads`` (3, 5, 6, ... — anything but
    the regular 4), which is the defining freedom of an *unstructured*
    mesh ("the number of cells surrounding a node is arbitrary", paper
    Section III-A).  Built from a ring of ``2·nquads`` nodes; quad
    ``k`` is (centre, ring[2k], ring[2k+1], ring[2k+2]).  Used by the
    tests that prove the kernels never assume 4-valent connectivity.
    """
    return _shared("pinwheel_mesh", _pinwheel, (_count, _real),
                   nquads, radius)


def _pinwheel(nquads, radius) -> QuadMesh:
    if nquads < 3:
        raise MeshError(f"pinwheel needs >= 3 quads, got {nquads}")
    nring = 2 * nquads
    angles = np.linspace(0.0, 2.0 * np.pi, nring, endpoint=False)
    x = np.concatenate([[0.0], radius * np.cos(angles)])
    y = np.concatenate([[0.0], radius * np.sin(angles)])
    cells = np.empty((nquads, 4), dtype=np.int64)
    for k in range(nquads):
        ring = [2 * k, 2 * k + 1, (2 * k + 2) % nring]
        cells[k] = [0, 1 + ring[0], 1 + ring[1], 1 + ring[2]]
    return QuadMesh(x, y, cells)


def single_cell_mesh(coords: Optional[np.ndarray] = None) -> QuadMesh:
    """One quadrilateral — handy for kernel unit tests (never shared).

    ``coords`` is an optional (4, 2) CCW vertex array; defaults to the
    unit square.
    """
    if coords is None:
        coords = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (4, 2):
        raise MeshError("single_cell_mesh expects (4, 2) coordinates")
    return QuadMesh(coords[:, 0], coords[:, 1],
                    np.array([[0, 1, 2, 3]], dtype=np.int64))
