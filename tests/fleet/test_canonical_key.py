"""Golden pin of ``RunConfig.canonical_key()``.

The canonical key is the fleet's cache address: if it drifts silently,
every cached sweep result on every user's disk is orphaned (stale
misses) or — far worse — *wrongly shared*.  These tests pin the exact
hex for a reference config and the invariances the key promises.

If you changed the key derivation (or bumped ``repro.__version__``,
which enters it on purpose), updating GOLDEN_KEY here is the conscious
act this test exists to force.
"""

import numpy as np
import pytest

from repro import __version__
from repro.api import CANONICAL_KEY_VERSION, RunConfig
from repro.fleet import job_key

GOLDEN_KEY = \
    "5df5255b198e1ebfdaa80289cff4fb08be9dc52eaef6437602460b17724290d4"


def test_golden_key_is_pinned():
    assert CANONICAL_KEY_VERSION == 4
    assert __version__ == "1.1.0", (
        "version bump: recompute GOLDEN_KEY (the code version enters "
        "the cache key so stale caches self-invalidate)")
    config = RunConfig(problem="noh", nx=16, ny=16, max_steps=10)
    assert config.canonical_key() == GOLDEN_KEY


def test_key_ignores_field_spelling_order():
    """Keyword order at the constructor never matters."""
    a = RunConfig(problem="noh", nx=16, ny=16, max_steps=10)
    b = RunConfig(max_steps=10, ny=16, nx=16, problem="noh")
    assert a.canonical_key() == b.canonical_key() == GOLDEN_KEY


def test_key_identical_for_default_vs_explicit():
    """Spelling a default out loud is the same run."""
    implicit = RunConfig(problem="noh", nx=16, ny=16, max_steps=10)
    explicit = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                         nranks=1, backend="auto", partition="rcb",
                         problem_kwargs={})
    assert implicit.canonical_key() == explicit.canonical_key()


def test_key_resolves_backend():
    """``backend="auto"`` and its resolution share a key — they are
    the same execution."""
    auto = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                     backend="auto")
    serial = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                       backend="serial")
    assert auto.canonical_key() == serial.canonical_key()


def test_key_ignores_problem_kwargs_dict_order():
    a = RunConfig(problem="sod", nx=16, ny=8, max_steps=5,
                  problem_kwargs={"pressure_left": 1.0,
                                  "pressure_right": 0.1})
    b = RunConfig(problem="sod", nx=16, ny=8, max_steps=5,
                  problem_kwargs={"pressure_right": 0.1,
                                  "pressure_left": 1.0})
    assert a.canonical_key() == b.canonical_key()


def test_key_ignores_telemetry_only_fields():
    """Sink *paths* and logging knobs change where results are
    recorded, not what is computed — same key.  (The resolved sampling
    cadence DOES enter the key — it governs which rows a cache hit
    replays — so it is held fixed here.)"""
    base = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                     metrics_every=4)
    noisy = base.replace(metrics="/tmp/out.ndjson", log_every=1,
                         snapshot_dir="/tmp/snaps",
                         watchdog_timeout=30.0)
    assert noisy.canonical_key() == base.canonical_key()


@pytest.mark.parametrize("field,value", [
    ("problem", "sod"),
    ("nx", 32),
    ("max_steps", 11),
    ("time_end", 0.25),
    ("nranks", 2),
    ("backend", "threads"),
    ("partition", "spectral"),
    ("metrics_every", 5),
    ("comm_plan", "packed"),
    ("problem_kwargs", {"pressure_left": 2.0}),
])
def test_key_changes_with_physics_fields(field, value):
    base = RunConfig(problem="noh", nx=16, ny=16, max_steps=10)
    assert base.replace(**{field: value}).canonical_key() \
        != base.canonical_key()


def test_key_hashes_deck_content_not_path(tmp_path):
    """Two paths to byte-identical decks share a key; editing the deck
    changes it."""
    deck_a = tmp_path / "a.in"
    deck_b = tmp_path / "b" / "other.in"
    deck_b.parent.mkdir()
    text = "[MESH]\nnx = 8\nny = 8\n"
    deck_a.write_text(text)
    deck_b.write_text(text)
    ka = RunConfig(deck=str(deck_a), max_steps=3).canonical_key()
    kb = RunConfig(deck=str(deck_b), max_steps=3).canonical_key()
    assert ka == kb
    deck_a.write_text(text + "# edited\n")
    assert RunConfig(deck=str(deck_a), max_steps=3).canonical_key() != ka


def test_job_key_extends_with_sorted_overrides():
    config = RunConfig(problem="sod", nx=16, ny=8, max_steps=5)
    assert job_key(config) == config.canonical_key()
    a = job_key(config, {"cq1": 0.5, "cq2": 1.0})
    b = job_key(config, {"cq2": 1.0, "cq1": 0.5})
    assert a == b
    assert a != job_key(config)
    assert job_key(config, None) == job_key(config, {})


def test_numpy_scalars_key_as_their_python_values():
    """A sweep built from ``np.arange`` hits a cache filled from
    Python values: a numpy scalar anywhere in the config or in an
    override keys exactly as its ``.item()``."""
    plain = RunConfig(problem="noh", nx=8, ny=8, max_steps=5,
                      problem_kwargs={"size": 1.0})
    for numpy in (plain.replace(nx=np.int64(8)),
                  plain.replace(max_steps=np.int64(5)),
                  plain.replace(problem_kwargs={"size": np.float32(1.0)})):
        assert numpy.canonical_key() == plain.canonical_key()
        assert job_key(numpy) == job_key(plain)
    assert (job_key(plain, {"cq1": np.float32(0.5), "cq2": np.int64(1)})
            == job_key(plain, {"cq1": 0.5, "cq2": 1}))
    # a different value is still a different key
    assert (job_key(plain, {"cq1": np.float32(0.1)})
            != job_key(plain, {"cq1": 0.1}))


def test_frozen_config_replace():
    config = RunConfig(problem="noh", nx=16, ny=16, max_steps=10)
    with pytest.raises(Exception):
        config.nx = 32  # frozen
    other = config.replace(nx=32)
    assert other.nx == 32 and config.nx == 16
    from repro.utils.errors import BookLeafError

    with pytest.raises(BookLeafError, match="unknown RunConfig field"):
        config.replace(bogus=1)


def test_config_is_hashable():
    a = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                  problem_kwargs={"k": 1})
    b = RunConfig(problem="noh", nx=16, ny=16, max_steps=10,
                  problem_kwargs={"k": 1})
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("left, right", [
    ({"size": np.float32(1.0)}, {"size": 1.0}),
    ({"size": np.int64(8)}, {"size": 8}),
    ({"size": 1}, {"size": 1.0}),
    ({"flag": np.bool_(True)}, {"flag": True}),
    ({"arcs": [np.float64(0.5), 2]}, {"arcs": [0.5, np.int32(2)]}),
    ({"opts": {"gamma": np.float32(1.5)}}, {"opts": {"gamma": 1.5}}),
])
def test_equal_configs_hash_equal(left, right):
    """``a == b`` implies ``hash(a) == hash(b)``: a numpy-scalar kwarg
    compares equal to its Python value, so it must hash like it."""
    a = RunConfig(problem="noh", problem_kwargs=left)
    b = RunConfig(problem="noh", problem_kwargs=right)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
