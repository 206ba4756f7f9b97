"""A warm hit builds each distinct problem once per process.

``ResultCache.load`` takes its setup from ``fleet.cache._PROBLEMS``, a
memo of problem-factory output keyed by ``problem_key`` (problem, deck
hash, ``nx``, ``ny``, ``time_end``, ``problem_kwargs`` — control
overrides are not in it).  A hit gets a shallow copy of the template
with its own controls, ``params`` and state; the template holds no
field arrays, and it leaves the memo when its mesh dies.  Live runs
never read the memo.
"""

import gc

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import cache, state_digest

CONFIGS = [RunConfig(problem="sod", nx=16, ny=4, max_steps=steps)
           for steps in (6, 9)] + \
          [RunConfig(problem="noh", nx=8, ny=8, max_steps=steps)
           for steps in (5, 7)]

LANES = [{"cq1": 0.5 + 0.05 * i, "cfl_safety": 0.3 + 0.01 * i}
         for i in range(16)]
LANE_CONFIG = RunConfig(problem="noh", nx=8, ny=8, max_steps=4)


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


@pytest.fixture
def factory_calls(monkeypatch):
    """The configs whose ``build_setup`` ran since the fixture was set
    up (after every earlier test's hits were collected)."""
    gc.collect()
    assert cache._PROBLEMS == {}
    calls = []
    build = RunConfig.build_setup

    def counted(self):
        calls.append(self)
        return build(self)

    monkeypatch.setattr(RunConfig, "build_setup", counted)
    return calls


def test_a_replayed_sweep_calls_each_factory_once(tmp_path, factory_calls):
    """Four configs over two problems, replayed three times with every
    hit held (as the ``sweep_warm`` benchmark holds them): two factory
    calls in all, and each hit is the cold run."""
    cold = submit(CONFIGS, ensemble="off", cache_dir=str(tmp_path)).results()
    del factory_calls[:]
    held = []
    for _ in range(3):
        hits = submit(CONFIGS, ensemble="off",
                      cache_dir=str(tmp_path)).results()
        assert all(r.cache_hit for r in hits)
        assert [_digest(r) for r in hits] == [_digest(r) for r in cold]
        assert [r.setup.controls for r in hits] == \
            [r.setup.controls for r in cold]
        held += hits
    assert sorted(c.problem for c in factory_calls) == ["noh", "sod"]
    assert len(cache._PROBLEMS) == 2


def test_one_warm_lane_sweep_calls_its_factory_once(tmp_path,
                                                    factory_calls):
    """Sixteen lanes of one config with per-lane control overrides: the
    warm submit calls the factory once, and each hit's controls are its
    cold lane's, override applied."""
    cold = submit([LANE_CONFIG] * 16, control_overrides=LANES,
                  cache_dir=str(tmp_path)).results()
    assert all(r.backend == "ensemble" for r in cold)
    del factory_calls[:]
    hits = submit([LANE_CONFIG] * 16, control_overrides=LANES,
                  cache_dir=str(tmp_path)).results()
    assert all(r.cache_hit for r in hits)
    assert len(factory_calls) == 1
    for hit, lane, override in zip(hits, cold, LANES):
        assert hit.setup.controls == lane.setup.controls
        assert hit.setup.controls.cq1 == override["cq1"]
        assert _digest(hit) == _digest(lane)


def test_hits_own_their_controls_params_and_state(tmp_path, factory_calls):
    submit(CONFIGS[:2], ensemble="off", cache_dir=str(tmp_path)).results()
    a, b = submit(CONFIGS[:2], ensemble="off",
                  cache_dir=str(tmp_path)).results()
    assert a.setup is not b.setup
    assert a.setup.controls == b.setup.controls
    assert a.setup.controls is not b.setup.controls
    assert a.setup.params == b.setup.params
    assert a.setup.params is not b.setup.params
    assert a.state.mesh is b.state.mesh
    assert a.setup.table is b.setup.table
    for name, array in a.state.arrays().items():
        assert not np.shares_memory(array, b.state.arrays()[name]), name
    ((_, template, _),) = cache._PROBLEMS.values()
    # the template keeps no field arrays of its own
    assert template.initial is None


def test_dropping_every_hit_empties_both_memos(tmp_path, factory_calls):
    submit(CONFIGS, ensemble="off", cache_dir=str(tmp_path)).results()
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(tmp_path)).results()
    assert len(cache._PROBLEMS) == 2 and len(cache._MESHES) == 2
    del hits
    gc.collect()
    assert cache._PROBLEMS == {}
    assert len(cache._MESHES) == 0
    # and a later hit builds its problem afresh
    del factory_calls[:]
    (hit,) = submit(CONFIGS[:1], ensemble="off",
                    cache_dir=str(tmp_path)).results()
    assert hit.cache_hit and len(factory_calls) == 1


def test_a_live_run_calls_its_factory(tmp_path, factory_calls):
    """Live runs keep calling the factory, held hits or not: their
    boundary driver writes into their own bc planes."""
    submit(CONFIGS[:1], ensemble="off", cache_dir=str(tmp_path)).results()
    (hit,) = submit(CONFIGS[:1], ensemble="off",
                    cache_dir=str(tmp_path)).results()
    del factory_calls[:]
    fresh = run(CONFIGS[0])
    assert len(factory_calls) == 1
    assert fresh.state.mesh is not hit.state.mesh
    assert _digest(fresh) == _digest(hit)
