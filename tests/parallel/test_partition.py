"""Unit tests for the partitioners (RCB and the spectral METIS substitute)."""

import numpy as np
import pytest

from repro.mesh.generator import perturbed_mesh, rect_mesh
from repro.parallel.partition import (
    edge_cut,
    imbalance,
    interface_nodes,
    partition,
    rcb_partition,
    spectral_partition,
    validate_partition,
)
from repro.utils.errors import PartitionError


@pytest.mark.parametrize("method", ["rcb", "spectral"])
@pytest.mark.parametrize("nparts", [2, 3, 4, 7])
def test_partition_covers_and_balances(method, nparts):
    mesh = rect_mesh(12, 10)
    part = partition(mesh, nparts, method)
    assert part.shape == (mesh.ncell,)
    counts = np.bincount(part, minlength=nparts)
    assert counts.sum() == mesh.ncell
    assert imbalance(part, nparts) < 0.25


@pytest.mark.parametrize("method", ["rcb", "spectral"])
def test_single_part_trivial(method):
    mesh = rect_mesh(4, 4)
    part = partition(mesh, 1, method)
    assert np.all(part == 0)
    assert edge_cut(mesh, part) == 0


def test_rcb_two_parts_split_long_axis():
    """RCB first splits the longer extent: a wide mesh splits in x."""
    mesh = rect_mesh(16, 2, (0.0, 4.0, 0.0, 0.5))
    xc, yc = mesh.cell_centroids()
    part = rcb_partition(xc, yc, 2)
    left_mean = xc[part == 0].mean()
    right_mean = xc[part == 1].mean()
    assert left_mean < right_mean
    assert edge_cut(mesh, part) == 2   # a single vertical cut


def test_rcb_weighted_split():
    xc = np.linspace(0, 1, 10)
    yc = np.zeros(10)
    w = np.ones(10)
    w[:2] = 100.0     # the first two points carry nearly all the load
    part = rcb_partition(xc, yc, 2, weights=w)
    # part 0 holds the heavy points only
    assert (part == 0).sum() <= 3


def test_rcb_errors():
    with pytest.raises(PartitionError):
        rcb_partition(np.zeros(3), np.zeros(3), 0)
    with pytest.raises(PartitionError):
        rcb_partition(np.zeros(3), np.zeros(3), 4)


def test_spectral_cut_quality_near_rcb():
    """The spectral cut on a square mesh is within 2x of the ideal."""
    mesh = rect_mesh(12, 12)
    part = spectral_partition(mesh, 2)
    validate_partition(part, 2)
    assert edge_cut(mesh, part) <= 2 * 12


def test_spectral_beats_worst_case():
    mesh = perturbed_mesh(10, 10, amplitude=0.2, seed=1)
    part = spectral_partition(mesh, 4)
    validate_partition(part, 4)
    # a terrible partition would cut ~ all faces; demand far less
    assert edge_cut(mesh, part) < mesh.nface // 3


def test_validate_partition_detects_empty():
    with pytest.raises(PartitionError, match="empty"):
        validate_partition(np.zeros(5, dtype=int), 2)


def test_validate_partition_detects_out_of_range():
    with pytest.raises(PartitionError, match="out of range"):
        validate_partition(np.array([0, 5]), 2)


def test_unknown_method():
    with pytest.raises(PartitionError, match="unknown partition"):
        partition(rect_mesh(2, 2), 2, "magic")


def test_interface_nodes_on_straight_cut():
    mesh = rect_mesh(4, 2)
    xc, yc = mesh.cell_centroids()
    part = (xc > 0.5).astype(np.int64)
    nodes = interface_nodes(mesh, part)
    np.testing.assert_array_equal(
        np.sort(mesh.x[nodes]), np.full(3, 0.5)
    )


def test_imbalance_zero_for_equal_parts():
    part = np.repeat(np.arange(4), 25)
    assert imbalance(part, 4) == 0.0


_SPECTRAL_PROBE = """
import hashlib, json
import numpy as np
from repro.mesh.generator import rect_mesh
from repro.parallel.distributed import DistributedHydro
from repro.parallel.partition import spectral_partition
from repro.problems import load_problem

part = spectral_partition(rect_mesh(24, 24), 4)
driver = DistributedHydro(load_problem("noh", nx=24, ny=24), 4,
                          method="spectral", backend="threads")
driver.run(max_steps=5)
print(json.dumps({"part": hashlib.sha256(part.tobytes()).hexdigest(),
                  "sizes": np.bincount(part).tolist(),
                  "bytes": driver.comm_totals()["bytes"]}))
"""


def test_spectral_is_reproducible_across_interpreters():
    """ARPACK's default start vector is random, and on a square mesh
    (degenerate Fiedler pair) that used to give a different partition —
    and different halo byte counts — every run.  Two fresh interpreters
    must now agree on the partition and on the traffic of a run on it."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    seen = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", _SPECTRAL_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        seen.append(json.loads(done.stdout.splitlines()[-1]))
    assert seen[0] == seen[1]
    assert sum(seen[0]["sizes"]) == 24 * 24 and seen[0]["bytes"] > 0
