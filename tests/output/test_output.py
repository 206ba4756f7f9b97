"""Unit tests for the VTK/time-history/ASCII output facilities."""

import csv

import numpy as np
import pytest

from repro.cli import main
from repro.metrics import DiagnosticsProbe
from repro.output import ascii_plot, write_vtk
from repro.problems import load_problem

#: the columns of the time-history CSV before it became a view of the
#: diagnostics rows
HISTORY_COLUMNS = (
    "nstep", "time", "dt", "mass", "internal_energy", "kinetic_energy",
    "total_energy", "momentum_x", "momentum_y", "rho_max", "rho_min",
    "p_max",
)


@pytest.fixture
def small_run():
    hydro = load_problem("sod", nx=8, ny=2, time_end=1.0).make_hydro()
    hydro.run(max_steps=3)
    return hydro


def test_vtk_structure(tmp_path, small_run):
    path = write_vtk(small_run.state, tmp_path / "dump.vtk", title="t")
    text = path.read_text()
    mesh = small_run.state.mesh
    assert text.startswith("# vtk DataFile Version 3.0")
    assert f"POINTS {mesh.nnode} double" in text
    assert f"CELLS {mesh.ncell} {mesh.ncell * 5}" in text
    assert f"CELL_DATA {mesh.ncell}" in text
    assert "SCALARS density double 1" in text
    assert "VECTORS velocity double" in text


def test_vtk_cell_types_are_quads(tmp_path, small_run):
    path = write_vtk(small_run.state, tmp_path / "dump.vtk")
    lines = path.read_text().splitlines()
    i = lines.index(f"CELL_TYPES {small_run.state.mesh.ncell}")
    types = lines[i + 1: i + 1 + small_run.state.mesh.ncell]
    assert set(types) == {"9"}


def test_vtk_extra_fields(tmp_path, small_run):
    extra = {"flag": np.arange(small_run.state.mesh.ncell, dtype=float)}
    path = write_vtk(small_run.state, tmp_path / "dump.vtk",
                     extra_cell_fields=extra)
    assert "SCALARS flag double 1" in path.read_text()


#: a short Sod tube
SOD = ("--problem", "sod", "--nx", "16", "--ny", "2")


def _history(tmp_path, *flags, name="hist.csv"):
    """``bookleaf run *flags --history``; the CSV's rows."""
    path = tmp_path / name
    assert main(["run", *flags, "--history", str(path)]) == 0
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def test_timehistory_records_every_step(tmp_path, capsys):
    rows = _history(tmp_path, *SOD, "--max-steps", "4")
    assert [int(r["nstep"]) for r in rows] == [0, 1, 2, 3, 4]
    times = [float(r["time"]) for r in rows]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_timehistory_cadence(tmp_path, capsys):
    """Step 0, every --log-every steps, and the last step; an explicit
    --metrics-every wins."""
    rows = _history(tmp_path, *SOD, "--max-steps", "5", "--log-every", "2")
    assert [int(r["nstep"]) for r in rows] == [0, 2, 4, 5]
    rows = _history(tmp_path, *SOD, "--max-steps", "7", "--log-every", "2",
                    "--metrics-every", "3")
    assert [int(r["nstep"]) for r in rows] == [0, 3, 6, 7]


def test_timehistory_csv(tmp_path, capsys):
    """The columns are the probe record's: a superset of the old
    time-history file's twelve."""
    path = tmp_path / "hist.csv"
    assert main(["run", *SOD, "--max-steps", "2",
                 "--history", str(path)]) == 0
    header, *lines = path.read_text().strip().splitlines()
    assert set(header.split(",")) >= set(HISTORY_COLUMNS)
    assert header.split(",") == list(DiagnosticsProbe(every=1).sample(
        load_problem("sod", nx=16, ny=2).make_hydro()))
    assert len(lines) == 3


def test_decomposed_history_equals_serial(tmp_path, capsys):
    serial = _history(tmp_path, *SOD, "--max-steps", "6", name="serial.csv")
    split = _history(tmp_path, *SOD, "--max-steps", "6", "--nranks", "2",
                     "--backend", "processes", name="split.csv")
    assert len(split) == len(serial) == 7
    for s, d in zip(serial, split):
        assert d["nranks"] == "2"
        # the transverse momentum of a 1-D tube is round-off: judge it
        # against the momentum's magnitude
        momentum = max(abs(float(s["momentum_x"])),
                       abs(float(s["momentum_y"])))
        for name in HISTORY_COLUMNS:
            floor = 1e-12 * momentum if name.startswith("momentum") else 0
            assert float(d[name]) == pytest.approx(
                float(s[name]), rel=1e-12, abs=floor), name


def test_water_air_history_completes(tmp_path, capsys):
    """--history probes every step; the Tait water's e < 0 must not
    trip the ideal-gas sentinel."""
    rows = _history(tmp_path, "--problem", "water_air")
    assert [int(r["nstep"]) for r in rows] == list(range(332))


def test_history_refuses_a_disabled_probe(tmp_path, capsys):
    path = tmp_path / "hist.csv"
    assert main(["run", *SOD, "--max-steps", "2", "--history", str(path),
                 "--metrics-every", "0"]) == 2
    assert "--metrics-every 0" in capsys.readouterr().err
    assert not path.exists()


def test_ascii_plot_renders_series():
    x = np.linspace(0, 1, 50)
    text = ascii_plot(x, {"sim": np.sin(x), "exact": np.cos(x)},
                      title="demo", xlabel="x")
    assert "demo" in text
    assert "s = sim" in text and "e = exact" in text
    body = "\n".join(text.splitlines()[2:-3])
    assert "s" in body and "e" in body


def test_ascii_plot_flat_series_no_crash():
    x = np.linspace(0, 1, 10)
    text = ascii_plot(x, {"flat": np.ones(10)})
    assert "f" in text
