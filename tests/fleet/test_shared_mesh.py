"""Warm cache hits share the immutable mesh, never the state.

``ResultCache.load`` builds each hit's setup inside
``repro.mesh.generator.shared_meshes``: a mesh is built (and validated)
once per distinct mesh per cache, every hit on it gets its own state
arrays, and no build outside ``load`` sees the shared meshes.
"""

import threading

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.fleet import state_digest
from repro.mesh import generator
from repro.mesh.topology import QuadMesh

CONFIGS = [RunConfig(problem="sod", nx=16, ny=4, max_steps=steps)
           for steps in (6, 9)] + \
          [RunConfig(problem="noh", nx=8, ny=8, max_steps=steps)
           for steps in (5, 7)]


def _digest(r):
    return state_digest(r.state, r.nstep, r.time, r.metrics_rows)


@pytest.fixture
def mesh_builds(monkeypatch):
    """How many times ``QuadMesh.__init__`` has run since the fixture
    was set up."""
    calls = []
    init = QuadMesh.__init__

    def counted(self, *args, **kwargs):
        calls.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadMesh, "__init__", counted)
    return calls


@pytest.fixture
def warm(tmp_path):
    """The four-job sweep run cold: ``(cold results, cache root)``."""
    cold = submit(CONFIGS, ensemble="off",
                  cache_dir=str(tmp_path)).results()
    return cold, tmp_path


def test_hits_on_one_mesh_share_it(warm, mesh_builds):
    cold, root = warm
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
    assert all(r.cache_hit for r in hits)
    assert [_digest(r) for r in hits] == [_digest(r) for r in cold]
    sod_a, sod_b, noh_a, noh_b = hits
    assert sod_a.state.mesh is sod_b.state.mesh
    assert noh_a.state.mesh is noh_b.state.mesh
    assert sod_a.state.mesh is not noh_a.state.mesh
    # one build, validated as ever, per distinct mesh
    assert len(mesh_builds) == 2


def test_hits_never_share_a_state_array(warm):
    _, root = warm
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
    planes = [r.state.arrays() for r in hits]
    for i, a in enumerate(planes):
        for b in planes[i + 1:]:
            for name in a:
                assert not np.shares_memory(a[name], b[name]), name


def test_stepping_one_hit_leaves_its_twin_alone(warm):
    _, root = warm
    first, twin, *_ = submit(CONFIGS, ensemble="off",
                             cache_dir=str(root)).results()
    before = _digest(first), _digest(twin)
    hydro = first.setup.make_hydro()
    for _ in range(3):
        hydro.step()
    assert hydro.state is first.state and _digest(first) != before[0]
    assert _digest(twin) == before[1]


def test_run_after_the_sweep_builds_a_fresh_mesh(warm, mesh_builds):
    _, root = warm
    hit = submit(CONFIGS[:1], ensemble="off",
                 cache_dir=str(root)).results()[0]
    assert hit.cache_hit and len(mesh_builds) == 1
    fresh = run(CONFIGS[0])
    assert fresh.state.mesh is not hit.state.mesh
    assert len(mesh_builds) == 2


def test_scope_is_private_to_its_block_and_thread():
    memo = {}
    with generator.shared_meshes(memo):
        a = generator.rect_mesh(4, 3)
        b = generator.rect_mesh(4, 3)
        other = generator.rect_mesh(3, 4)
        seen = []
        thread = threading.Thread(
            target=lambda: seen.append(generator.rect_mesh(4, 3)))
        thread.start()
        thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert a is b and other is not a and len(memo) == 2
    assert seen[0] is not a
    assert generator.rect_mesh(4, 3) is not a
    # identical bytes, whatever generator made them
    with generator.shared_meshes(memo):
        assert generator.perturbed_mesh(4, 3, amplitude=0.0) is a
