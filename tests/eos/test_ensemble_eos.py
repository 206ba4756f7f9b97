"""Lanes with their own materials against their solo runs.

An ensemble evaluates the EoS one of two ways: when every lane carries
an equivalent material table, lane 0's table evaluates the whole union
in one ``getpc`` ("shared"); otherwise each lane's own table evaluates
that lane's contiguous segment ("loop" — per-lane γ included).  Either
way a lane must end byte-for-byte where ``Hydro`` takes the same setup
alone.  Each implemented EoS (ideal gas, Tait, JWL, void) is pinned,
plus a mixed multimaterial mesh, the cutoffs, the uniformity
rejections and retirement.
"""

import numpy as np
import pytest

from repro.core.controls import HydroControls
from repro.core.hydro import Hydro
from repro.core.state import HydroState
from repro.ensemble.driver import EnsembleHydro
from repro.eos.ideal import IdealGas
from repro.eos.jwl import Jwl
from repro.eos.multimaterial import MaterialTable
from repro.eos.tait import Tait
from repro.eos.void import Void
from repro.mesh.generator import rect_mesh
from repro.problems.base import ProblemSetup
from repro.utils.errors import BookLeafError

FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "cs2", "q", "volume",
          "corner_volume")
STEPS = 12


def _setup(table, seed, mat=None, rho=None, e=None):
    """A noisy gas blob compressing on an 8x6 box, in ``table``'s
    materials (``mat`` assigns them per cell)."""
    mesh = rect_mesh(8, 6)
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell) if rho is None else rho
    e = 0.5 + rng.random(mesh.ncell) if e is None else e
    state = HydroState.from_initial(mesh, table, rho, e, mat=mat,
                                    u=-0.3 * (mesh.x - 0.5),
                                    v=-0.3 * (mesh.y - 0.5))
    controls = HydroControls(time_end=1.0, dt_initial=1e-4)
    return ProblemSetup("eos", state, table, controls,
                        (0.0, 1.0, 0.0, 1.0))


def _assert_lanes_match_solo(make_setups, shared, steps=None):
    """Every lane of ``EnsembleHydro(make_setups())`` ends where a solo
    ``Hydro`` takes the same setup; ``shared`` pins which dispatch ran."""
    setups = make_setups()
    steps = steps or [STEPS] * len(setups)
    batch = EnsembleHydro(setups, max_steps=steps)
    assert (batch.table is setups[0].table) == shared
    batch.run()
    for lane, (setup, limit) in enumerate(zip(make_setups(), steps)):
        solo = Hydro(setup.state, setup.table, setup.controls)
        solo.run(max_steps=limit)
        final = batch.final_states[lane]
        differing = [f for f in FIELDS if getattr(solo.state, f).tobytes()
                     != getattr(final, f).tobytes()]
        assert not differing, f"lane {lane} fields differ: {differing}"
        assert batch.lanes[lane].nstep == solo.nstep
        assert batch.lanes[lane].time == solo.time
    return batch


# ----------------------------------------------------------------------
# per-EoS pins
# ----------------------------------------------------------------------
def test_ideal_mode_per_lane_gamma():
    _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[IdealGas(g)]), seed=1)
                 for g in (1.4, 5.0 / 3.0, 2.2)], shared=False)


def test_shared_mode_tait():
    _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[Tait(
            1.0, 3.0, 7.0, cavitation_pressure=-0.1)]), seed)
            for seed in (2, 3, 4)], shared=True)


def test_shared_mode_jwl():
    _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[Jwl(
            1.84, 8.545, 0.205, 4.6, 1.35, 0.25)]), seed)
            for seed in (5, 6)], shared=True)


def test_shared_mode_void():
    _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[Void()]), seed)
                 for seed in (7, 8)], shared=True)


def _three_materials(seed, gamma=1.4):
    mat = np.random.default_rng(9).integers(0, 3, 48)
    return _setup(MaterialTable(eos=[IdealGas(gamma), Tait(1.0, 3.0, 7.0),
                                     Void()]), seed, mat=mat)


def test_shared_mode_multimaterial_mesh():
    """Mixed ideal/Tait/void cells dispatched per material mask, the
    mask tiled over the union."""
    _assert_lanes_match_solo(
        lambda: [_three_materials(seed) for seed in (10, 11, 12)],
        shared=True)


def test_loop_mode_heterogeneous_tables():
    """Different EoS types per lane, and a multimaterial mesh whose
    first material differs per lane: each lane's own table on its own
    segment."""
    _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[eos]), seed=13) for eos in (
            IdealGas(1.4), Tait(1.0, 3.0, 7.0),
            Jwl(1.84, 8.545, 0.205, 4.6, 1.35, 0.25))], shared=False)
    _assert_lanes_match_solo(
        lambda: [_three_materials(14, gamma) for gamma in (1.4, 1.8)],
        shared=False)


def test_ideal_mode_applies_cutoffs():
    """pcut snap-to-zero and the ccut floor act on a lane exactly as
    in its solo run (cold near-vacuum gas)."""
    def make():
        return [_setup(MaterialTable(eos=[IdealGas(g)], pcut=1e-2,
                                     ccut=1e-3), seed=15,
                       rho=np.full(48, 1e-4), e=np.full(48, 1e-4))
                for g in (1.4, 1.6)]
    batch = _assert_lanes_match_solo(make, shared=False)
    for final in batch.final_states:
        assert (final.p == 0.0).all()
        assert (final.cs2 == 1e-3).all()


# ----------------------------------------------------------------------
# bookkeeping
# ----------------------------------------------------------------------
def test_cutoffs_must_be_uniform():
    with pytest.raises(BookLeafError, match="pcut/ccut"):
        EnsembleHydro([
            _setup(MaterialTable(eos=[IdealGas(1.4)], pcut=1e-8), 16),
            _setup(MaterialTable(eos=[IdealGas(1.4)], pcut=1e-6), 16)])


def test_material_count_must_be_uniform():
    with pytest.raises(BookLeafError, match="materials"):
        EnsembleHydro([
            _setup(MaterialTable(eos=[IdealGas(1.4)]), 17),
            _setup(MaterialTable(eos=[IdealGas(1.4), Void()]), 17)])


def test_compact_drops_retired_lane_columns():
    """Retiring the middle lane re-lays the survivors' tables and γ
    over the narrower union."""
    batch = _assert_lanes_match_solo(
        lambda: [_setup(MaterialTable(eos=[IdealGas(g)]), seed=18)
                 for g in (1.4, 1.6, 2.0)],
        shared=False, steps=[12, 4, 8])
    assert [lane.nstep for lane in batch.lanes] == [12, 4, 8]


def test_out_buffers_are_used():
    """The per-lane dispatch writes the union's own ``p``/``cs2`` (the
    step commits through ``out=``), each segment from its lane's table."""
    tables = [MaterialTable(eos=[IdealGas(g)]) for g in (1.4, 2.0)]
    batch = EnsembleHydro([_setup(t, 19) for t in tables])
    union = batch.es.union
    p, cs2 = union.p, union.cs2
    batch.begin()
    batch.advance()
    assert union.p is p and union.cs2 is cs2
    for lane, table in enumerate(tables):
        seg = slice(lane * 48, (lane + 1) * 48)
        p_ref, cs2_ref = table.getpc(union.mat[seg], union.rho[seg],
                                     union.e[seg])
        assert p[seg].tobytes() == p_ref.tobytes()
        assert cs2[seg].tobytes() == cs2_ref.tobytes()
