"""The cold path as a budget: what a serial run may import, counted.

``import repro.api`` used to load 906 modules — 388 of them scipy —
and the first ``run()`` another 59, ``multiprocessing`` included, for a
run that used none of them.  The rule since (docs/PERFORMANCE.md,
"Cold start"): what every call executes is imported with
``repro.api``; what most calls never execute is imported where it is
used.  These tests hold both halves: a deny-list that must stay out of
every serial run, exact counts of ``repro`` modules (adding an eager
import means changing a number here, knowingly), and nothing imported
inside the first ``run()`` — ``bench/child.py`` forks per sample *after*
importing ``repro.api``, so a first-call import is paid by every sample.

Every case runs in a fresh interpreter and reads back ``sys.modules``.
The second half checks the other side of import-on-use: with scipy
unimportable, the two features that need it fail with one structured
error and everything else runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: never loaded by ``import repro.api``, a serial ``run()`` or a serial
#: ``bookleaf run --report``
DENY = (
    "scipy", "multiprocessing", "_multiprocessing", "repro.perfmodel",
    "repro.fleet.worker", "repro.parallel.backends.processes",
    "repro.parallel.backends.threads", "repro.parallel.typhon",
    "repro.parallel.commplan", "repro.telemetry.live",
    "repro.telemetry.table2", "repro.metrics.watchdog", "csv",
)

#: ``repro`` modules loaded by ``import repro.api`` — exact
REPRO_AFTER_IMPORT = 73
#: ... and after the serial CLI run with ``--report`` — exact
REPRO_AFTER_CLI_RUN = 80
#: ceilings on everything loaded beyond a bare ``import numpy`` (the
#: absolute totals, 280 and 307 on the builder's numpy 2.4 / CPython
#: 3.11 against 906 and 971 before, move with numpy's own module count,
#: so the budget is what *this package* adds)
BEYOND_NUMPY_AFTER_IMPORT = 110
BEYOND_NUMPY_AFTER_CLI_RUN = 140

#: every package whose ``__init__`` re-exports names
PUBLIC_PACKAGES = (
    "repro", "repro.parallel", "repro.parallel.backends",
    "repro.parallel.partition", "repro.fleet", "repro.telemetry",
    "repro.analytic", "repro.metrics",
)

#: child prelude: ``snap(tag)`` records ``sys.modules``, ``done()``
#: prints every snapshot as the last stdout line
PRELUDE = """
import json, sys
_snaps = {}
def snap(tag):
    _snaps[tag] = sorted(sys.modules)
def done(**extra):
    print(json.dumps(dict(_snaps, **extra)))
import numpy
snap("numpy")
"""

#: child prelude that makes scipy unimportable
NO_SCIPY = """
import sys
class _RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
sys.meta_path.insert(0, _RefuseScipy())
"""

SERIAL_RUN = """
from repro.api import RunConfig, run
result = run(RunConfig(problem="sod", nx=16, ny=4, max_steps=2))
assert result.nstep == 2
"""


def fresh(code: str, *argv: str) -> dict:
    """Run ``code`` in a fresh interpreter; its last stdout line is a
    JSON document."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def denied(modules) -> list:
    return [m for m in modules
            if any(m == d or m.startswith(d + ".") for d in DENY)]


def ours(modules) -> list:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


# ----------------------------------------------------------------------
# the budget
# ----------------------------------------------------------------------
def test_import_repro_api_loads_the_run_path_and_nothing_else():
    doc = fresh(PRELUDE + "import repro.api\nsnap('api')\ndone()")
    api = doc["api"]
    assert denied(api) == []
    assert len(ours(api)) == REPRO_AFTER_IMPORT, ours(api)
    beyond = sorted(set(api) - set(doc["numpy"]))
    assert len(beyond) <= BEYOND_NUMPY_AFTER_IMPORT, beyond


def test_first_serial_run_imports_nothing_new():
    doc = fresh(PRELUDE + "import repro.api\nsnap('api')\n" + SERIAL_RUN
                + "snap('run')\ndone()")
    assert denied(doc["run"]) == []
    inside_run = sorted(set(doc["run"]) - set(doc["api"]))
    # a forked bench sample would pay for each of these, every time
    assert [m for m in inside_run if not m.startswith("repro.")] == []
    assert len(ours(doc["run"])) == REPRO_AFTER_IMPORT, inside_run


def test_serial_cli_run_with_report_stays_inside_the_budget(tmp_path):
    doc = fresh(PRELUDE + """
import contextlib, io
from repro.cli import main
from repro.problems import deck_path
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(["run", str(deck_path("sod")), "--max-steps", "2",
               "--report", sys.argv[1]])
snap("cli")
done(rc=rc)
""", str(tmp_path / "report.json"))
    assert doc["rc"] == 0
    assert (tmp_path / "report.json").exists()
    cli = doc["cli"]
    assert denied(cli) == []
    assert len(ours(cli)) == REPRO_AFTER_CLI_RUN, ours(cli)
    beyond = sorted(set(cli) - set(doc["numpy"]))
    assert len(beyond) <= BEYOND_NUMPY_AFTER_CLI_RUN, beyond


def test_the_checker_catches_an_eager_import():
    doc = fresh(PRELUDE + "import repro.api\nimport repro.fleet.worker\n"
                "snap('api')\ndone()")
    caught = denied(doc["api"])
    assert "repro.fleet.worker" in caught
    assert "repro.telemetry.live" in caught
    assert len(ours(doc["api"])) > REPRO_AFTER_IMPORT


def test_a_decomposed_run_loads_neither_multiprocessing_nor_numpy_ma():
    """Rank processes and pool workers fork, wake and report over plain
    file descriptors, and the halo build takes its distinct ids
    without ``np.unique`` (whose first call imports ``numpy.ma`` on
    numpy 2.x)."""
    doc = fresh(PRELUDE + """
from repro.api import RunConfig, run, submit
result = run(RunConfig(problem="sod", nx=16, ny=4, max_steps=2, nranks=2,
                       backend="processes"))
assert result.nstep == 2
snap("run")
pooled = submit([RunConfig(problem="sod", nx=8, ny=2, max_steps=2),
                 RunConfig(problem="noh", nx=8, ny=8, max_steps=2)],
                workers=2, ensemble="off").results()
assert [r.nstep for r in pooled] == [2, 2]
snap("pool")
done()
""")
    unwanted = ("multiprocessing", "_multiprocessing", "numpy.ma")
    for tag in ("run", "pool"):
        assert [m for m in doc[tag]
                if any(m == u or m.startswith(u + ".")
                       for u in unwanted)] == [], tag


@pytest.mark.parametrize("method", ["rcb", "spectral"])
def test_only_the_spectral_partitioner_loads_scipy(method):
    pytest.importorskip("scipy")
    doc = fresh(PRELUDE + """
from repro.api import RunConfig, run
config = RunConfig(problem="noh", nx=12, ny=12, max_steps=2, nranks=2,
                   backend="processes", partition=sys.argv[1])
part = run(config).driver.part
snap("run")
from repro.parallel.partition import partition
direct = partition(config.build_setup().state.mesh, 2, sys.argv[1])
done(part=part.tolist(), same=bool((part == direct).all()))
""", method)
    loaded = [m for m in doc["run"] if m.split(".")[0] == "scipy"]
    assert bool(loaded) == (method == "spectral")
    # the driver ran on the partitioner's own answer: two balanced parts
    # (bit-equality with the previous revision is tools/digests.py's
    # ``spectral`` rows — it depends on the ARPACK build, so not pinned)
    assert doc["same"]
    assert sorted(set(doc["part"])) == [0, 1]
    assert abs(doc["part"].count(0) - 72) <= 4


def test_lazy_packages_still_export_every_public_name():
    doc = fresh("""
import importlib, json
problems = []
for pkg_name in %r:
    pkg = importlib.import_module(pkg_name)
    missing_dir = sorted(set(pkg.__all__) - set(dir(pkg)))
    if missing_dir:
        problems.append(f"dir({pkg_name}) lacks {missing_dir}")
    for name in pkg.__all__:
        if not hasattr(pkg, name):
            problems.append(f"{pkg_name}.{name} does not resolve")
        scope = {}
        exec(f"from {pkg_name} import {name}", scope)
        if scope[name] is not getattr(pkg, name):
            problems.append(f"from {pkg_name} import {name} differs")
try:
    importlib.import_module("repro.fleet").NoSuchName
    problems.append("unknown attribute resolved")
except AttributeError as exc:
    if "repro.fleet" not in str(exc) or "NoSuchName" not in str(exc):
        problems.append(f"unhelpful AttributeError: {exc}")
print(json.dumps({"problems": problems}))
""" % (PUBLIC_PACKAGES,))
    assert doc["problems"] == []


def test_partition_the_function_still_shadows_partition_the_package():
    doc = fresh("""
import json
import repro.api
import repro.parallel
from repro.parallel import partition
from repro.parallel.backends import available_backends
print(json.dumps({"callable": callable(partition),
                  "same": repro.parallel.partition is partition,
                  "backends": list(available_backends())}))
""")
    assert doc == {"callable": True, "same": True,
                   "backends": ["serial", "threads", "processes"]}


# ----------------------------------------------------------------------
# scipy is optional at run time: structured errors, not tracebacks
# ----------------------------------------------------------------------
def test_features_that_need_scipy_say_so_when_it_is_missing():
    doc = fresh(NO_SCIPY + """
import contextlib, io, json
from repro.api import RunConfig, run
from repro.analytic import sedov_exact
from repro.cli import main
from repro.utils.errors import BookLeafError, PartitionError

out = {}
try:
    run(RunConfig(problem="noh", nx=8, ny=8, max_steps=2, nranks=2,
                  partition="spectral"))
except PartitionError as exc:
    out["partition"] = str(exc)
try:
    sedov_exact.similarity(1.4)
except BookLeafError as exc:
    out["sedov"] = [type(exc).__name__, str(exc)]
err = io.StringIO()
with contextlib.redirect_stderr(err), \\
        contextlib.redirect_stdout(io.StringIO()):
    out["rc"] = main(["run", "--problem", "noh", "--nx", "8", "--ny", "8",
                      "--max-steps", "2", "--nranks", "2",
                      "--partition", "spectral"])
out["stderr"] = err.getvalue()
print(json.dumps(out))
""")
    assert "scipy" in doc["partition"] and "spectral" in doc["partition"]
    assert doc["sedov"][0] == "BookLeafError"
    assert "scipy" in doc["sedov"][1] and "Sedov" in doc["sedov"][1]
    assert doc["rc"] == 2
    lines = doc["stderr"].strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "scipy" in lines[0] and "spectral" in lines[0]


def test_every_other_path_runs_without_scipy():
    doc = fresh(NO_SCIPY + """
import contextlib, io, json, sys
from repro.api import RunConfig, problem_names, run, submit
from repro.cli import main

steps = {}
for name in problem_names():
    steps[name] = run(RunConfig(problem=name, nx=8, ny=8,
                                max_steps=2)).nstep
for backend in ("threads", "processes"):
    steps[backend] = run(RunConfig(problem="noh", nx=8, ny=8, max_steps=2,
                                   nranks=2, backend=backend,
                                   partition="rcb")).nstep
steps["submit"] = [r.nstep for r in submit(
    [RunConfig(problem="sod", nx=8, ny=2, max_steps=2),
     RunConfig(problem="noh", nx=8, ny=8, max_steps=2)]).results()]
rcs = {}
with contextlib.redirect_stdout(io.StringIO()):
    for problem in ("sod", "noh"):
        main(["validate", problem, "--resolutions", "8,16",
              "--time-end", "0.02"])
        rcs[problem] = True         # ran to a verdict, whatever it was
print(json.dumps({"steps": steps, "validated": rcs,
                  "scipy": [m for m in sys.modules
                            if m.split(".")[0] == "scipy"]}))
""")
    assert len(doc["steps"]) == 9 + 3
    assert all(n == 2 for name, n in doc["steps"].items()
               if name != "submit")
    assert doc["steps"]["submit"] == [2, 2]
    assert doc["validated"] == {"sod": True, "noh": True}
    assert doc["scipy"] == []
