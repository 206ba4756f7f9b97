"""Warm cache hits share the immutable mesh, never the state.

``ResultCache.load`` builds each hit's setup inside
``repro.mesh.generator.shared_meshes`` over one weak memo per process:
a mesh is built (and validated) once per distinct generator call per
process, while held, every hit on it gets its own state arrays, and no
build outside ``load`` sees the shared meshes.  A hit builds its state
from the entry alone: it never calls the EoS or the volume pass that a
cold state starts with.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.api import RunConfig, run, submit
from repro.core import geometry
from repro.eos.multimaterial import MaterialTable
from repro.fleet import ResultCache, cache, job_key, state_digest
from repro.mesh import generator
from repro.mesh.topology import QuadMesh
from repro.utils.errors import SnapshotError

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
def cold_calls(monkeypatch):
    """The names of the ``MaterialTable.getpc`` and
    ``geometry.volumes`` calls made since the fixture was set up."""
    calls = []
    for owner, name in ((MaterialTable, "getpc"), (geometry, "volumes")):
        def counted(*args, _real=getattr(owner, name), _name=name,
                    **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
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


def test_a_replayed_sweep_builds_each_mesh_once_per_process(warm,
                                                           mesh_builds):
    """Each ``submit`` opens its own ``ResultCache``; the shared meshes
    are the process's.  Replayed three times (as the ``sweep_warm``
    benchmark replays its sweeps), the sweep builds each of its two
    distinct meshes once, not once per submit."""
    cold, root = warm
    held = []
    for _ in range(3):
        hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
        assert all(r.cache_hit for r in hits)
        assert [_digest(r) for r in hits] == [_digest(r) for r in cold]
        held += hits
    assert len(mesh_builds) == 2
    assert len({id(r.state.mesh) for r in held}) == 2


def test_the_memo_keeps_no_mesh_the_caller_dropped(warm):
    _, root = warm
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
    meshes = [weakref.ref(r.state.mesh) for r in hits]
    assert len(cache._MESHES) == 2
    del hits
    gc.collect()
    assert all(ref() is None for ref in meshes)
    assert len(cache._MESHES) == 0


def test_hits_never_share_a_state_array(warm):
    _, root = warm
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
    planes = [r.state.arrays() for r in hits]
    for i, a in enumerate(planes):
        for b in planes[i + 1:]:
            for name in a:
                assert not np.shares_memory(a[name], b[name]), name


def test_a_hit_calls_neither_the_eos_nor_the_volume_pass(warm, cold_calls):
    cold, root = warm
    hits = submit(CONFIGS, ensemble="off", cache_dir=str(root)).results()
    assert all(r.cache_hit for r in hits)
    assert cold_calls == []
    assert [_digest(r) for r in hits] == [_digest(r) for r in cold]
    for r in hits:
        assert r.setup.state is r.state
        for name, array in r.state.arrays().items():
            assert array.flags.writeable, name
            assert array.flags.aligned, name


@pytest.mark.parametrize("member, stored, found", [
    ("cs2", lambda a: None, "None"),
    ("corner_mass", lambda a: a.T.copy(), r"\(4, 64\)"),
    ("bc_ux", lambda a: a[1:].copy(), r"\(84,\)"),
    # the same bytes under another dtype pass the digest
    ("e", lambda a: a.view(np.int64), r"\(64,\) int64"),
], ids=["missing", "transposed", "short", "retyped"])
def test_an_entry_short_of_a_member_is_evicted(tmp_path, monkeypatch,
                                               member, stored, found):
    """A stored state lacking a member, or holding one of the wrong
    shape or dtype, is a ``SnapshotError`` (the entry's own digest
    still holds)."""
    config = CONFIGS[0]
    result = run(config)
    arrays = result.state.arrays()
    arrays[member] = stored(arrays[member])
    if arrays[member] is None:
        del arrays[member]
    monkeypatch.setattr(result.state, "arrays", lambda: arrays)
    cache = ResultCache(str(tmp_path))
    key = job_key(config)
    cache.store(key, result)
    with pytest.raises(SnapshotError,
                       match=f"no .* member {member!r} .found {found}"):
        cache.load(key, config)
    assert not cache.has(key)
    assert cache.stats()["corrupt"] == 1 and cache.stats()["hits"] == 0


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
    assert a is b and other is not a
    assert set(memo) == {("rect_mesh", 4, 3, (0.0, 1.0, 0.0, 1.0)),
                         ("rect_mesh", 3, 4, (0.0, 1.0, 0.0, 1.0))}
    assert seen[0] is not a
    assert generator.rect_mesh(4, 3) is not a
    # keyed by the call: identical bytes from another generator are
    # another mesh
    with generator.shared_meshes(memo):
        assert generator.perturbed_mesh(4, 3, amplitude=0.0) is not a
        assert generator.rect_mesh(4, 3) is a
