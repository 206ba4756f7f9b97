"""A step's fixed cost: the per-step Python call budget, and the arena
semantics the O(1) ``Workspace.borrow``/``release`` keep.

On a small mesh a warm Lagrangian step is mostly interpreter
bookkeeping, not numpy: the count of Python-level function calls one
step makes (``sys.setprofile`` ``call`` events — C functions and numpy
ufuncs raise ``c_call`` instead and are not counted) is the
hardware-independent measure of that floor.  Per module, one warm step
(after 10) of Sod 20² and Noh 32²:

=========================  ==========  ==========  ==========  ==========
module                     Sod before  Sod after   Noh before  Noh after
=========================  ==========  ==========  ==========  ==========
perf/workspace.py          454         183         708         251
core/corners.py            183         72          189         72
core/viscosity.py          158         176         96          102
contextlib + utils/timers  136         70          136         70
numpy Python wrappers      100         10          84          6
everything else            127         121         163         157
total                      1158        632         1376        658
=========================  ==========  ==========  ==========  ==========

"before" is the generator-per-borrow arena (``_as_shape``,
``math.prod`` and ``np.dtype(...).str`` on every call), the
``@contextmanager`` timer region, the bundle's descriptor → ``_get`` →
``_store`` chain on every corner-quantity read, and ``np.take``/
``np.copyto``/``np.put``/``.any()`` through numpy's Python wrappers.
The budgets below sit just above "after"; a change that puts
per-call bookkeeping back into the step trips them.
"""

import sys

import numpy as np
import pytest

from repro.core.hydro import Hydro
from repro.perf.workspace import Workspace
from repro.problems import load_problem

#: (problem, n) -> most Python calls one warm n² step may make
BUDGETS = {("sod", 20): 650, ("noh", 32): 750}


def _warm_hydro(problem: str, n: int, steps: int = 10) -> Hydro:
    setup = load_problem(problem, nx=n, ny=n)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    for _ in range(steps):
        hydro.step()
    return hydro


def _calls_in_one_step(hydro: Hydro) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        hydro.step()
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("problem, n", sorted(BUDGETS))
def test_warm_step_stays_within_its_call_budget(problem, n):
    calls = _calls_in_one_step(_warm_hydro(problem, n))
    assert calls <= BUDGETS[problem, n], (
        f"a warm {problem} {n}x{n} step made {calls} Python calls "
        f"(budget {BUDGETS[problem, n]})")


# ----------------------------------------------------------------------
# the arena's semantics under the memoised keys
# ----------------------------------------------------------------------
def test_a_cell_major_release_serves_a_corner_major_borrow():
    n = 7
    ws = Workspace()
    cells = ws.borrow((n, 4))
    ws.release(cells)
    corners = ws.borrow((4, n))
    assert corners.shape == (4, n) and corners.flags.c_contiguous
    assert np.shares_memory(corners, cells)
    assert corners.__array_interface__["data"][0] == \
        cells.__array_interface__["data"][0]
    assert (ws.hits, ws.misses) == (1, 1)


def test_a_bool_borrow_never_receives_a_float_block():
    ws = Workspace()
    floats = [ws.borrow(16) for _ in range(3)]
    ws.release(*floats)
    mask = ws.borrow(16, dtype=bool)
    assert mask.dtype == np.bool_
    assert not any(np.shares_memory(mask, f) for f in floats)
    assert ws.misses == 4
    ws.release(mask)
    assert ws.borrow(16, dtype=np.bool_) is mask
    assert ws.borrow(16) is floats[-1]


@pytest.mark.parametrize("shape", [12, np.int64(12), np.intp(12), (12,),
                                   (np.int32(12),)])
def test_int_integer_and_tuple_shapes_are_one_request(shape):
    ws = Workspace()
    first = ws.borrow((12,))
    ws.release(first)
    again = ws.borrow(shape)
    assert again is first and again.shape == (12,)
    assert (ws.hits, ws.misses) == (1, 1)
    named = ws.array("t", (12,))
    assert ws.array("t", shape) is named
    assert ws.array("t", 12) is named
    assert len(ws) == 2


#: (problem, n) -> (hits, misses, len, nbytes) of the driver's arena
#: after steps 1 and 3 — the same as the per-call arena gave
ARENA_COUNTS = {
    ("sod", 20): [(60, 38, 38, 241249), (272, 38, 38, 241249)],
    ("noh", 32): [(97, 45, 45, 818841), (397, 45, 45, 818841)],
    ("sedov", 24): [(79, 45, 45, 461705), (343, 45, 45, 461705)],
}


@pytest.mark.parametrize("problem, n", sorted(ARENA_COUNTS))
def test_hits_and_misses_are_unchanged_on_the_step_sequence(problem, n):
    setup = load_problem(problem, nx=n, ny=n)
    hydro = Hydro(setup.state, setup.table, setup.controls)
    ws, seen = hydro.workspace, []
    for step in range(3):
        hydro.step()
        if step in (0, 2):
            seen.append((ws.hits, ws.misses, len(ws), ws.nbytes()))
    assert seen == ARENA_COUNTS[problem, n]
