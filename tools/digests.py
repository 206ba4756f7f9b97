#!/usr/bin/env python
"""State digests across every execution path, and their diff against
another revision.

Prints one ``sha256  label`` line per row of

    {registered problems}
      x {serial, threads x2, processes x2, ensemble lane (N = 4, per-lane cq1)}
      x {Lagrangian, ale_on where the problem has the setting}

with the decomposed Sod and Noh rows repeated on the reference exchange
schedule (``comm_plan="packed"``: every halo lands at its post), each
required equal to its overlap row, plus a node-permuted and a pinwheel mesh (neither is a structured
grid) run solo and as two lanes, and Noh 32x32 decomposed 2 and 4 ways
by the spectral partitioner (its cell-to-rank array, and the run on
it), plus Sod, Noh and Kidder through ``submit``: uninterrupted,
replayed from the result cache, and SIGKILLed at step 10 then resumed
from the step-10 checkpoint — three rows that must agree with each
other (the script exits 1 if they do not) as well as with the other
revision — and four Sod/Noh jobs of different lengths drained through a
two-lane batch, Lagrangian and ``ale_on``, each job required equal to
its solo run (lanes retire, the survivors are carried into the rebuilt
batch), and a Sedov 24x24 run to its end time, serial and threads x2,
whose viscosity moves from the active-edge subset to the whole edge
array mid-run — each required equal to the same run kept on the whole
edge array throughout.  A digest covers x y u v rho e p q,
the final time, the step count and the dt taken at every step; a row
that cannot run digests its error text instead.

``--against REV`` exports that revision's ``src/`` and its own copy of
this script (``git archive``) to a temporary directory, runs the one on
the other and diffs the two listings (each revision's script knows how
to drive its own lanes): exit 0 when every row REV prints is identical
here, 1 when one differs or is gone.  Rows REV does not have yet are
listed as new — they are checked against their reference rows by the
run itself, which exits 1 if a packed, replayed, resumed or refilled
run disagrees with its reference.
That is the acceptance check for any change that claims to move no bit
(a kernel edit, a comm refactor, a merge of two code paths) — the
digests depend on the numpy build, so no golden file is committed;
compare two revisions on one machine.

    PYTHONPATH=src python tools/digests.py
    python tools/digests.py --against origin/main
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile

FIELDS = ("x", "y", "u", "v", "rho", "e", "p", "q")
SIZE = 16
STEPS = 30
LANES = 4
#: problems whose decomposed rows also run the reference schedule
PACKED = ("sod", "noh")


def digest(state, time, nstep, dts) -> str:
    h = hashlib.sha256()
    for name in FIELDS:
        h.update(getattr(state, name).tobytes())
    h.update(struct.pack(f"<dq{len(dts)}d", time, nstep, *dts))
    return h.hexdigest()


def result_digest(result) -> str:
    return digest(result.state, result.time, result.nstep,
                  [row["dt"] for row in result.step_rows])


def hydro_digest(hydro) -> str:
    """Digest of a solo driver or an ensemble lane, its dt series read
    off its step rows."""
    return digest(hydro.state, hydro.time, hydro.nstep,
                  [row["dt"] for row in hydro.step_rows])


def lane_digests(setups) -> list:
    """One digest per lane of ``setups`` stepped as one ensemble."""
    from repro.ensemble.driver import EnsembleHydro

    batch = EnsembleHydro(setups, max_steps=[STEPS] * len(setups))
    batch.run()
    return [hydro_digest(lane) for lane in batch.lanes]


def row(label, fn, each="lane"):
    """Print one line; ``fn`` returns a digest or a list of them (one
    per ``each``).  Returns what was printed for ``label``."""
    try:
        out = fn()
    except Exception as exc:        # a refusal is a row too
        text = f"{type(exc).__name__}: {exc}"
        out = "error:" + hashlib.sha256(text.encode()).hexdigest()[:58]
    if isinstance(out, str):
        print(f"{out}  {label}", flush=True)
    else:
        for lane, value in enumerate(out):
            print(f"{value}  {label} {each} {lane}", flush=True)
    return out


def problem_rows() -> int:
    """Returns how many ``packed`` rows disagree with their overlap row."""
    from repro.api import RunConfig, describe_problem, problem_names, run

    wrong = 0
    for problem in problem_names():
        settings = {s["name"] for s in describe_problem(problem)["settings"]}
        for ale in (False, True) if "ale_on" in settings else (False,):
            base = RunConfig(
                problem=problem, nx=SIZE, ny=SIZE, max_steps=STEPS,
                problem_kwargs={"ale_on": True} if ale else {})
            tag = f"{problem}{' ale' if ale else ''}"
            row(f"{tag} serial", lambda: result_digest(run(base)))
            for backend in ("threads", "processes"):
                config = base.replace(nranks=2, backend=backend)
                overlap = row(f"{tag} {backend}x2",
                              lambda: result_digest(run(config)))
                if problem not in PACKED:
                    continue
                packed = config.replace(comm_plan="packed")
                if row(f"{tag} {backend}x2 packed",
                       lambda: result_digest(run(packed))) != overlap:
                    print(f"MISMATCH  {tag} {backend}x2 packed differs from "
                          "the overlap schedule", file=sys.stderr)
                    wrong += 1

            def lanes():
                setups = [base.build_setup() for _ in range(LANES)]
                for i, setup in enumerate(setups):
                    setup.controls = setup.controls.with_(cq1=0.3 + 0.1 * i)
                return lane_digests(setups)

            row(f"{tag} ensemble", lanes)
    return wrong


def spectral_rows():
    """The one run path that reaches scipy: the partition itself (the
    eigensolver's answer, made reproducible by a fixed start vector)
    and the decomposed run it leads to."""
    from repro.api import RunConfig, run
    from repro.parallel.partition import partition

    for nranks in (2, 4):
        config = RunConfig(problem="noh", nx=32, ny=32, max_steps=STEPS,
                           nranks=nranks, backend="threads",
                           partition="spectral")
        mesh = config.build_setup().state.mesh
        row(f"noh 32x32 spectral x{nranks} partition",
            lambda: hashlib.sha256(
                partition(mesh, nranks, "spectral").tobytes()).hexdigest())
        row(f"noh 32x32 spectral x{nranks} threads",
            lambda: result_digest(run(config)))


def cutoff_rows() -> int:
    """Sedov 24x24 run to its end time: the blast's active-edge fraction
    grows past ``getq``'s subset cutoff mid-run, so the viscosity moves
    from the compressed active-edge set to the whole edge array — at
    step 366 serially, at steps 305 and 373 on the two ranks.  Each row
    must equal the same run with every ``getq`` call on the whole edge
    array; returns how many do not."""
    from repro.api import RunConfig, run
    from repro.core import viscosity

    def whole_array_only(config):
        cutoff = viscosity.SUBSET_MAX_FRACTION
        viscosity.SUBSET_MAX_FRACTION = -1.0
        try:
            return result_digest(run(config))
        finally:
            viscosity.SUBSET_MAX_FRACTION = cutoff

    base = RunConfig(problem="sedov", nx=24, ny=24, max_steps=1000)
    tag = "sedov 24x24 to t_end, crosses the active-edge cutoff at step"
    wrong = 0
    for label, config in (
            ("366 serial", base),
            ("305/373 threadsx2", base.replace(nranks=2, backend="threads"))):
        if (row(f"{tag} {label}", lambda: result_digest(run(config)))
                != whole_array_only(config)):
            print(f"MISMATCH  sedov cutoff {label} differs from its "
                  "whole-array run", file=sys.stderr)
            wrong += 1
    return wrong


def fleet_digest(result) -> str:
    """The dt series comes from the diagnostics rows (cadence 1, the
    step-0 baseline included).  They ride the cache entry, the
    checkpoint and a carried lane's probe exactly as the step rows do,
    and keep these digests comparable with revisions whose step rows
    did not."""
    return digest(result.state, result.time, result.nstep,
                  [rec["dt"] for rec in result.metrics_rows])


def fleet_rows() -> int:
    """Cache replay (alone, and beside a second hit on the same mesh)
    and kill -> resume, the execution paths that only exist behind
    ``submit``.  Returns how many rows disagree with their
    uninterrupted run."""
    from repro.api import RunConfig, run, submit

    def one(config, **options):
        (result,) = submit([config], ensemble="off", **options).results()
        return result

    wrong = 0
    for problem in ("sod", "noh", "kidder"):
        config = RunConfig(problem=problem, nx=SIZE, ny=SIZE, max_steps=20,
                           metrics_every=1)

        def replayed():
            with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
                one(config, cache_dir=tmp)
                result = one(config, cache_dir=tmp)
                assert result.cache_hit
                return fleet_digest(result)

        def resumed():
            with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
                return fleet_digest(one(
                    config, workers=1, checkpoint_dir=tmp,
                    checkpoint_every=5, fault_steps={0: 10}))

        def shared():
            # two hits on one mesh in one submit: the second job's hit
            # must equal its own uninterrupted run too
            twin = config.replace(max_steps=12)
            with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
                submit([config, twin], ensemble="off",
                       cache_dir=tmp).results()
                first, second = submit([config, twin], ensemble="off",
                                       cache_dir=tmp).results()
                assert first.cache_hit and second.cache_hit
                assert first.state.mesh is second.state.mesh
                assert fleet_digest(second) == fleet_digest(run(twin))
                return fleet_digest(first)

        straight = row(f"{problem} fleet uninterrupted",
                       lambda: fleet_digest(run(config)))
        for label, fn in (("cache replay", replayed),
                          ("kill -> resume", resumed),
                          ("cache replay (shared mesh)", shared)):
            if row(f"{problem} fleet {label}", fn) != straight:
                print(f"MISMATCH  {problem} fleet {label} differs from "
                      "the uninterrupted run", file=sys.stderr)
                wrong += 1
    return wrong


def refill_rows() -> int:
    """Four jobs of different lengths through a two-lane batch: lanes
    retire, the survivor is carried (with its probe and, under
    ``ale_on``, its remapper) into a rebuilt batch beside a fresh lane.
    Returns how many jobs disagree with their solo run."""
    from repro.api import RunConfig, run, submit

    wrong = 0
    for problem in ("sod", "noh"):
        for ale in (False, True):
            configs = [RunConfig(
                problem=problem, nx=SIZE, ny=SIZE, max_steps=steps,
                metrics_every=1,
                problem_kwargs={"ale_on": True} if ale else {})
                for steps in (8, 20, 12, 16)]

            def refilled():
                handle = submit(configs, batch_width=2)
                results = handle.results()
                assert all(r.backend == "ensemble" for r in results)
                assert any(e["event"] == "lane_refill"
                           for e in handle.schedule_log)
                return [fleet_digest(r) for r in results]

            tag = f"{problem}{' ale' if ale else ''} fleet"
            solo = row(f"{tag} x 4 jobs solo",
                       lambda: [fleet_digest(run(c)) for c in configs],
                       each="job")
            if row(f"{tag} batch_width=2 x 4 jobs -> refill",
                   refilled, each="job") != solo:
                print(f"MISMATCH  {tag} refill differs from the solo runs",
                      file=sys.stderr)
                wrong += 1
    return wrong


def offgrid_setup(kind):
    """A compressing gas blob on a mesh with no structured numbering."""
    import numpy as np

    from repro.core.controls import HydroControls
    from repro.core.state import HydroState
    from repro.eos import IdealGas, MaterialTable
    from repro.mesh.generator import pinwheel_mesh, rect_mesh
    from repro.mesh.topology import QuadMesh
    from repro.problems.base import ProblemSetup

    if kind == "pinwheel":
        mesh = pinwheel_mesh(nquads=5)
    else:
        grid = rect_mesh(12, 10)
        perm = np.random.default_rng(3).permutation(grid.nnode)
        x, y = np.empty_like(grid.x), np.empty_like(grid.y)
        x[perm], y[perm] = grid.x, grid.y
        mesh = QuadMesh(x, y, perm[grid.cell_nodes])
    table = MaterialTable()
    table.add(IdealGas(1.4))
    rng = np.random.default_rng(4)
    rho = 1.0 + 0.5 * rng.random(mesh.ncell)
    e = table.eos[0].energy_from_pressure(rho, 1.0 + rng.random(mesh.ncell))
    state = HydroState.from_initial(
        mesh, table, rho, e, u=-0.5 * (mesh.x - mesh.x.mean()),
        v=-0.5 * (mesh.y - mesh.y.mean()))
    controls = HydroControls(time_end=1.0, dt_initial=1e-4,
                             subzonal_kappa=0.3)
    return ProblemSetup("offgrid", state, table, controls,
                        (0.0, 1.0, 0.0, 1.0))


def offgrid_rows():
    from repro.core.hydro import Hydro

    def solo(kind):
        setup = offgrid_setup(kind)
        hydro = Hydro(setup.state, setup.table, setup.controls)
        for _ in range(STEPS):
            hydro.step()
        return hydro_digest(hydro)

    for kind in ("permuted", "pinwheel"):
        row(f"offgrid {kind} serial", lambda: solo(kind))
        row(f"offgrid {kind} ensemble", lambda: lane_digests(
            [offgrid_setup(kind), offgrid_setup(kind)]))


def listing_of(root: str) -> list:
    """The output of the checkout in ``root``: its copy of this script
    run against its ``src``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "digests.py")],
        env=env, check=True, stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="also run REV's src/ and diff the listings")
    args = parser.parse_args(argv)
    if args.against is None:
        wrong = problem_rows() + cutoff_rows()
        offgrid_rows()
        spectral_rows()
        return 1 if wrong + fleet_rows() + refill_rows() else 0

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    mine = listing_of(root)
    with tempfile.TemporaryDirectory(prefix="digests-") as tmp:
        archive = subprocess.run(
            ["git", "-C", root, "archive", args.against, "src",
             "tools/digests.py"], check=True, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout,
                       check=True)
        theirs = listing_of(tmp)
    label = lambda line: line.split("  ", 1)[1]     # noqa: E731
    ours = {label(line): line for line in mine}
    other = {label(line): line for line in theirs}
    changed = [name for name in ours
               if name in other and ours[name] != other[name]]
    new = sorted(set(ours) - set(other))
    gone = sorted(set(other) - set(ours))
    for name in changed:
        print(f"DIFFERS  {name}\n  here  {ours[name].split()[0]}"
              f"\n  {args.against}  {other[name].split()[0]}")
    for name in gone:
        print(f"ONLY in {args.against}  {name}")
    for name in new:
        print(f"NEW here  {name}")
    print(f"{len(ours) - len(changed) - len(new)} of {len(other)} rows of "
          f"{args.against} identical here")
    return 1 if changed or gone else 0


if __name__ == "__main__":
    sys.exit(main())
