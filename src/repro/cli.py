"""Command-line front end — a thin adapter onto :mod:`repro.api`.

Usage (installed as ``bookleaf``, or ``python -m repro``)::

    bookleaf run sod.in                 # run a deck file
    bookleaf run --problem noh --nx 100 # run a bundled problem
    bookleaf run sod.in --nranks 4      # decomposed (virtual-MPI) run
    bookleaf run sod.in --nranks 4 --backend processes  # real processes
    bookleaf run noh.in --report r.json --trace t.json   # telemetry
    bookleaf run noh.in --metrics m.ndjson --watchdog-timeout 30
    bookleaf compare old.json new.json  # regression gate (exit 1)
    bookleaf problems list              # registry catalogue
    bookleaf problems describe kidder   # settings table + references
    bookleaf decks                      # list bundled decks
    bookleaf info                       # platform/model registry
    bookleaf model table2-measured      # measured-vs-modeled Table II

The parser maps straight onto :class:`repro.api.RunConfig` and every
run executes through :func:`repro.api.run` — the CLI owns only
argument parsing and printing.  Prints the BookLeaf-style per-kernel
timer breakdown (plus, for decomposed runs, the Typhon communication
totals) at the end of every run, and optionally a VTK dump, a
time-history CSV, a schema-versioned JSON run report and a
Perfetto-loadable Chrome trace (the telemetry layer — see
docs/OBSERVABILITY.md, docs/PARALLEL.md and the README's CLI
reference).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .output.timehist import TimeHistory
from .output.vtk import write_vtk
from .problems import deck_path, problem_names


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bookleaf",
        description="BookLeaf reproduction: 2-D unstructured ALE hydro",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a deck or a bundled problem")
    run.add_argument("deck", nargs="?", help="input deck path")
    run.add_argument("--problem", choices=problem_names(),
                     help="bundled problem instead of a deck")
    run.add_argument("--nx", type=int, help="mesh cells in x")
    run.add_argument("--ny", type=int, help="mesh cells in y")
    run.add_argument("--time-end", type=float, dest="time_end")
    run.add_argument("--nranks", type=int, default=None,
                     help="MPI-style rank count (1 = serial)")
    run.add_argument("--ranks", type=int, default=None,
                     help="removed alias for --nranks (errors with the "
                          "replacement; see docs/FLEET.md)")
    run.add_argument("--backend", default="auto",
                     help="comm backend: auto, serial, threads or "
                          "processes (see docs/PARALLEL.md; auto picks "
                          "serial for 1 rank, threads otherwise)")
    run.add_argument("--partition", choices=("rcb", "spectral"),
                     default="rcb")
    run.add_argument("--comm-plan", choices=("overlap", "packed"),
                     default="overlap", dest="comm_plan",
                     help="halo exchange protocol: 'overlap' (split-"
                          "phase post/complete with interior compute "
                          "overlap and tree dt reduction; default) or "
                          "'packed' (single-barrier collectives, "
                          "bit-identical; see docs/PARALLEL.md)")
    run.add_argument("--max-steps", type=int, dest="max_steps")
    run.add_argument("--log-every", type=int, default=0,
                     help="print a step banner every N steps")
    run.add_argument("--vtk", help="write a final-state VTK dump here")
    run.add_argument("--history", help="write a time-history CSV here")
    run.add_argument("--report",
                     help="write the schema-versioned JSON run report "
                          "here (per-kernel timings, comm counters, "
                          "step series; see docs/OBSERVABILITY.md)")
    run.add_argument("--trace",
                     help="write a Chrome trace-event file here "
                          "(load it in https://ui.perfetto.dev)")
    run.add_argument("--trace-allocs", action="store_true",
                     help="also record per-region allocation counters "
                          "(tracemalloc; serial backend only — slows "
                          "the run, diagnosis only).  Kernels draw on "
                          "a buffer arena, so expect the arena's build "
                          "in step 1 and only nodal-scale peaks after")
    run.add_argument("--profile", metavar="PATH",
                     help="write a collapsed-stack flamegraph profile "
                          "here (thread-based span sampler, ~5ms "
                          "period; feed to flamegraph.pl or speedscope"
                          "; see docs/OBSERVABILITY.md)")
    run.add_argument("--metrics", metavar="PATH",
                     help="stream live diagnostics (conservation drift, "
                          "extrema, health sentinels) to this NDJSON "
                          "file, one record per sample")
    run.add_argument("--metrics-every", type=int, default=None,
                     metavar="N",
                     help="diagnostics sampling cadence in steps "
                          "(default 10 when --metrics is set; 0 "
                          "disables the probe entirely)")
    run.add_argument("--metrics-prom", metavar="PATH",
                     help="write an end-of-run Prometheus text-"
                          "exposition snapshot of the metrics registry")
    run.add_argument("--watchdog-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="flag a rank as stalled after this many "
                          "seconds without a heartbeat (threads/"
                          "processes backends)")

    ens = sub.add_parser(
        "run-ensemble",
        help="batch N same-mesh serial runs through one (N, ...) "
             "kernel pass (bit-identical per lane; see "
             "docs/PERFORMANCE.md)",
    )
    ens.add_argument("deck", nargs="?", help="input deck path")
    ens.add_argument("--problem", choices=problem_names(),
                     help="bundled problem instead of a deck")
    ens.add_argument("--nx", type=int, help="mesh cells in x")
    ens.add_argument("--ny", type=int, help="mesh cells in y")
    ens.add_argument("--time-end", type=float, dest="time_end")
    ens.add_argument("--max-steps", type=int, dest="max_steps")
    ens.add_argument("--lanes", type=int, default=None,
                     help="replicate the base config N times (mutually "
                          "exclusive with --sweep, whose cartesian "
                          "product sets the lane count)")
    ens.add_argument("--sweep", action="append", default=[],
                     metavar="KEY=V1,V2,...",
                     help="sweep one parameter across lanes; repeat "
                          "for a cartesian product.  Keys route to "
                          "HydroControls fields (cq1=0.3,0.5), run "
                          "limits (time_end, max_steps) or problem "
                          "setup kwargs; nx/ny cannot be swept (lanes "
                          "share one mesh)")
    ens.add_argument("--report", metavar="PATH",
                     help="write one JSON run report per lane "
                          "(PATH gains a .laneN suffix)")
    ens.add_argument("--metrics", metavar="PATH",
                     help="stream live diagnostics per lane to "
                          "PATH with a .laneN suffix")
    ens.add_argument("--metrics-every", type=int, default=None,
                     metavar="N",
                     help="diagnostics sampling cadence in steps "
                          "(default 10 when --metrics is set)")

    fleet = sub.add_parser(
        "fleet",
        help="run a cached, resumable sweep of many configs through "
             "the fleet scheduler (see docs/FLEET.md)",
    )
    fleet.add_argument("deck", nargs="?", help="input deck path")
    fleet.add_argument("--problem", choices=problem_names(),
                       help="bundled problem instead of a deck")
    fleet.add_argument("--nx", type=int, help="mesh cells in x")
    fleet.add_argument("--ny", type=int, help="mesh cells in y")
    fleet.add_argument("--time-end", type=float, dest="time_end")
    fleet.add_argument("--max-steps", type=int, dest="max_steps")
    fleet.add_argument("--nranks", type=int, default=1,
                       help="rank count per job (1 = serial)")
    fleet.add_argument("--backend", default="auto",
                       help="comm backend per job: auto, serial, "
                            "threads or processes")
    fleet.add_argument("--lanes", type=int, default=None,
                       help="replicate the base config N times "
                            "(mutually exclusive with --sweep)")
    fleet.add_argument("--sweep", action="append", default=[],
                       metavar="KEY=V1,V2,...",
                       help="sweep one parameter across jobs; repeat "
                            "for a cartesian product (same key routing "
                            "as run-ensemble; nx/ny ARE sweepable here "
                            "— mismatched meshes just skip the batched "
                            "fast path)")
    fleet.add_argument("--workers", type=int, default=0,
                       help="process-pool width for per-job execution "
                            "(0 = inline)")
    fleet.add_argument("--cache-dir", metavar="DIR",
                       help="content-addressed result cache; repeated "
                            "configs are served from disk")
    fleet.add_argument("--checkpoint-dir", metavar="DIR",
                       help="periodic snapshots so killed jobs resume "
                            "bit-identically")
    fleet.add_argument("--checkpoint-every", type=int, default=20,
                       metavar="N", help="steps between checkpoints")
    fleet.add_argument("--no-ensemble", action="store_true",
                       help="disable the same-mesh batched fast path "
                            "(every job runs on its own step loop)")
    fleet.add_argument("--batch-width", type=int, default=None,
                       metavar="N",
                       help="live-lane cap for batched passes (longer "
                            "queues drain through lane refill)")
    fleet.add_argument("--summary", metavar="PATH",
                       help="write the sweep summary JSON (per-job "
                            "keys + outcome digests; diffable with "
                            "`bookleaf compare`)")
    fleet.add_argument("--metrics", metavar="PATH",
                       help="merged NDJSON stream of every job's "
                            "diagnostics samples")
    fleet.add_argument("--metrics-every", type=int, default=None,
                       metavar="N",
                       help="diagnostics sampling cadence in steps "
                            "(default 10 when --metrics or --prom is "
                            "set; note: the cadence enters each job's "
                            "cache key)")
    fleet.add_argument("--watch", action="store_true",
                       help="render a live per-job status table "
                            "(state, step rate, ETA) from the sweep's "
                            "event stream while it runs")
    fleet.add_argument("--events", metavar="PATH",
                       help="stream schema-versioned lifecycle events "
                            "(job queued/started/progress/done, cache "
                            "hits, retries) to this NDJSON file")
    fleet.add_argument("--trace", metavar="PATH",
                       help="write ONE merged Perfetto trace of the "
                            "whole sweep here: a process row per "
                            "worker, a thread row per job, cache-hit/"
                            "checkpoint instants and kill->resume flow "
                            "arrows (forces per-job tracing)")
    fleet.add_argument("--dashboard", metavar="PATH",
                       help="write a self-contained HTML sweep "
                            "dashboard here at end of run")
    fleet.add_argument("--profile-dir", metavar="DIR",
                       dest="profile_dir",
                       help="sample every job with the low-overhead "
                            "span profiler; per-job collapsed-stack "
                            "files plus an aggregated sweep.folded "
                            "land here")
    fleet.add_argument("--heartbeat-timeout", type=float, default=None,
                       dest="heartbeat_timeout", metavar="SECONDS",
                       help="SIGKILL and retry a pool worker silent "
                            "for this long (stall watchdog; needs "
                            "--workers >= 1)")
    fleet.add_argument("--prom", metavar="PATH",
                       help="merged Prometheus textfile export")

    compare = sub.add_parser(
        "compare",
        help="diff two run reports or two fleet sweep summaries "
             "(exits 1 on regression beyond the threshold)",
    )
    compare.add_argument("old", help="baseline document")
    compare.add_argument("new", help="candidate document")
    compare.add_argument("--threshold", type=float, default=None,
                         help="allowed fractional slowdown before a "
                              "gated metric counts as regressed "
                              "(default 0.25)")
    compare.add_argument("--min-seconds", type=float, default=None,
                         help="kernels faster than this in both runs "
                              "are never gated (default 1e-3)")
    compare.add_argument("--gate-comm", action="store_true",
                         dest="gate_comm",
                         help="run reports: also gate comm bytes per "
                              "step instead of reporting them "
                              "informationally")
    compare.add_argument("--gate-outliers", action="store_true",
                         dest="gate_outliers",
                         help="fleet summaries: also fail when the new "
                              "sweep carries harmful cross-job anomaly "
                              "flags (a job slow/heavy against its "
                              "siblings; see docs/OBSERVABILITY.md)")

    problems = sub.add_parser(
        "problems",
        help="inspect the problem registry (list / describe)",
    )
    psub = problems.add_subparsers(dest="problems_command", required=True)
    plist = psub.add_parser(
        "list", help="list every registered problem with its summary"
    )
    plist.add_argument("--json", action="store_true",
                       help="machine-readable output (full metadata)")
    pdesc = psub.add_parser(
        "describe",
        help="show one problem's settings table, defaults and references",
    )
    pdesc.add_argument("name", help="registered problem name "
                       "(see 'problems list')")
    pdesc.add_argument("--json", action="store_true",
                       help="machine-readable output")

    sub.add_parser("decks", help="list the bundled input decks")
    sub.add_parser("info", help="show the modelled platform registry")

    model = sub.add_parser(
        "model", help="print a modelled table/figure from the paper"
    )
    model.add_argument(
        "report",
        choices=("table1", "table2", "table2-measured", "fig1", "fig2a",
                 "fig2b", "fig3", "fig4a", "fig4b", "ablations"),
        help="which evaluation artefact to regenerate "
             "(table2-measured runs an instrumented Noh and compares "
             "live timings with the analytic model)",
    )
    model.add_argument("--nx", type=int, default=64,
                       help="table2-measured: Noh mesh size (default 64)")
    model.add_argument("--steps", type=int, default=200,
                       help="table2-measured: steps to time (default 200)")
    model.add_argument("--update-experiments", action="store_true",
                       help="table2-measured: rewrite the autogenerated "
                            "measured-vs-modeled block in EXPERIMENTS.md")

    validate = sub.add_parser(
        "validate",
        help="run a mesh-convergence ladder against the exact solution",
    )
    validate.add_argument("problem", choices=("sod", "noh"),
                          help="problem with an analytic reference")
    validate.add_argument("--resolutions", default="25,50,100",
                          help="comma-separated nx ladder")
    validate.add_argument("--time-end", type=float, dest="time_end")
    return parser


def _validate(args: argparse.Namespace) -> int:
    from .validation import (
        convergence_study,
        noh_density_error,
        sod_density_error,
    )

    resolutions = [int(tok) for tok in args.resolutions.split(",")]
    kwargs = {}
    if args.time_end is not None:
        kwargs["time_end"] = args.time_end
    if args.problem == "sod":
        study = convergence_study("sod", resolutions, sod_density_error,
                                  ny=2, **kwargs)
    else:
        study = convergence_study("noh", resolutions, noh_density_error,
                                  **kwargs)
    print(study.table())
    converged = all(b < a for a, b in zip(study.errors, study.errors[1:]))
    print("converging" if converged else "NOT converging")
    return 0 if converged else 1


def _model_report(args: argparse.Namespace) -> str:
    which = args.report
    if which == "table2-measured":
        from .telemetry import (
            format_measured_vs_modeled,
            measured_vs_modeled,
            update_experiments,
        )

        result = measured_vs_modeled(nx=args.nx, max_steps=args.steps)
        text = format_measured_vs_modeled(result)
        if args.update_experiments:
            path = update_experiments(result)
            text += f"\nupdated {path}"
        return text
    from .perfmodel import (
        PAPER_TABLE2,
        TABLE2_ORDER,
        format_ablations,
        format_bars,
        format_scaling,
        format_table1,
        format_table2,
        scaling_series,
        table2,
    )

    if which == "table1":
        return format_table1()
    if which == "ablations":
        return format_ablations()
    model = table2()
    if which == "table2":
        return format_table2(model)
    if which == "fig1":
        return format_bars(
            "FIG 1: Overall performance, Noh, single node (model)",
            {k: model[k]["overall"] for k in TABLE2_ORDER},
            paper={k: PAPER_TABLE2[k]["overall"] for k in TABLE2_ORDER},
        )
    if which in ("fig2a", "fig2b"):
        kernel = "viscosity" if which == "fig2a" else "acceleration"
        return format_bars(
            f"FIG {which[-2:]}: {kernel} kernel, Noh, single node (model)",
            {k: model[k][kernel] for k in TABLE2_ORDER},
            paper={k: PAPER_TABLE2[k][kernel] for k in TABLE2_ORDER},
        )
    kernel = None
    if which == "fig4a":
        kernel = "viscosity"
    elif which == "fig4b":
        kernel = "acceleration"
    title = (f"FIG {which[-2:]}: "
             + (f"{kernel} kernel " if kernel else "")
             + "Sod strong scaling, hybrid (model)")
    return format_scaling(title, {
        "Skylake": scaling_series("skylake_hybrid", kernel=kernel),
        "Broadwell": scaling_series("broadwell_hybrid", kernel=kernel),
    })


def _run_config(args: argparse.Namespace):
    """Map the parsed ``run`` arguments onto a :class:`RunConfig`."""
    from .api import RunConfig

    nranks = args.nranks
    if args.ranks is not None:
        # The PR 3 deprecation window has closed: the alias is now a
        # structured refusal naming the replacement, exit code 2.
        from .utils.errors import DeprecatedOptionError

        err = DeprecatedOptionError("--ranks", "--nranks",
                                    context="bookleaf run")
        print(f"error: {err}", file=sys.stderr)
        return None
    if nranks is None:
        nranks = 1
    return RunConfig(
        problem=args.problem,
        deck=args.deck,
        nx=args.nx,
        ny=args.ny,
        time_end=args.time_end,
        max_steps=args.max_steps,
        nranks=nranks,
        backend=args.backend,
        partition=args.partition,
        comm_plan=args.comm_plan,
        trace=bool(args.report or args.trace),
        trace_allocations=args.trace_allocs,
        profile=args.profile,
        collect_steps=bool(args.report),
        log_every=args.log_every,
        metrics=args.metrics,
        # --metrics-prom alone still needs the probe (the registry is
        # the probe's output): enable the default cadence for it.
        metrics_every=(RunConfig.DEFAULT_METRICS_EVERY
                       if (args.metrics_prom and args.metrics_every is None
                           and args.metrics is None)
                       else args.metrics_every),
        watchdog_timeout=args.watchdog_timeout,
    )


def _run(args: argparse.Namespace) -> int:
    if args.deck and args.problem:
        print("give either a deck or --problem, not both", file=sys.stderr)
        return 2
    if args.deck and (args.nx or args.ny):
        print("--nx/--ny apply to --problem runs; set them in the deck",
              file=sys.stderr)
        return 2
    if not args.deck and not args.problem:
        print("nothing to run: give a deck path or --problem",
              file=sys.stderr)
        return 2
    if args.watchdog_timeout is not None and args.watchdog_timeout <= 0:
        print("watchdog_timeout must be > 0 seconds", file=sys.stderr)
        return 2
    config = _run_config(args)
    if config is None:
        return 2

    from .api import run as api_run
    from .utils.errors import PartitionError

    distributed = config.nranks > 1
    if args.trace_allocs and config.resolved_backend() != "serial":
        # tracemalloc is process-global: concurrent ranks would charge
        # each other's allocations to open regions.  Any non-serial
        # backend ignores the flag — including a forced
        # `--backend threads --nranks 1` — so say so instead of
        # silently dropping it (docs/OBSERVABILITY.md).
        print(f"--trace-allocs is serial-only; ignoring for the "
              f"{config.resolved_backend()!r} backend", file=sys.stderr)
        config = config.replace(trace_allocations=False)
    history = None
    observers = []
    if args.history:
        if distributed:
            print("--history is serial-only; ignoring for a "
                  "decomposed run", file=sys.stderr)
        else:
            history = TimeHistory(every=max(args.log_every, 1))
            observers.append(history)

    try:
        result = api_run(config, observers=observers or None)
    except PartitionError as exc:
        # e.g. --partition spectral where scipy is not installed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    final = result.state

    if distributed:
        summary = result.comm_summary
        print(f"ranks: {config.nranks} ({config.partition}, "
              f"{result.backend}); "
              f"halo nodes: {summary['halo_nodes']}, "
              f"shared nodes: {summary['shared_nodes']}")
    if history is not None:
        history.write_csv(args.history)
        print(f"wrote time history to {args.history}")

    print(f"problem {result.setup.name}: {result.nstep} steps to "
          f"t={result.time:.6g} in {result.wall_seconds:.2f}s")
    print(f"mass={final.total_mass():.9g} "
          f"total_energy={final.total_energy():.9g} "
          f"rho_max={float(final.rho.max()):.4g}")
    if result.comm_total is not None:
        comm_total = result.comm_total
        print(f"comm: {comm_total['halo_exchanges']} halo exchanges, "
              f"{comm_total['reductions']} reductions, "
              f"{comm_total['messages']} messages, "
              f"{comm_total['bytes']} bytes across {config.nranks} ranks")
    print()
    print(result.timers.breakdown())
    if args.vtk:
        write_vtk(final, args.vtk, title=f"bookleaf {result.setup.name}")
        print(f"wrote VTK dump to {args.vtk}")
    if args.report:
        from .telemetry import write_report

        write_report(result.report(), args.report)
        print(f"wrote run report to {args.report}")
    if args.trace:
        from .telemetry import write_trace

        write_trace(result.spans, args.trace)
        print(f"wrote Chrome trace to {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    if args.profile:
        print(f"wrote collapsed-stack profile to {args.profile}")
    if args.metrics:
        rows = result.metrics_rows or []
        tail = (f" (final energy drift "
                f"{rows[-1]['energy_drift']:.3g})" if rows else "")
        print(f"wrote {len(rows)} metrics records to "
              f"{args.metrics}{tail}")
    if args.metrics_prom:
        if result.metrics is None:
            print("--metrics-prom needs the probe enabled "
                  "(--metrics-every > 0)", file=sys.stderr)
        else:
            result.metrics.write_prometheus(args.metrics_prom)
            print(f"wrote Prometheus snapshot to {args.metrics_prom}")
    return 0


def _parse_sweep_value(token: str):
    """``"0.5"`` -> 0.5, ``"3"`` -> 3, ``"true"``/``"false"`` -> bool,
    anything else stays a string (problem kwargs may be symbolic)."""
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:
            pass
    return token


def _sweep_lanes(sweeps: List[str]):
    """Expand repeated ``--sweep key=v1,v2`` into the cartesian product
    of per-lane ``{key: value}`` dicts (in the given key order)."""
    import itertools

    axes = []
    for spec in sweeps:
        key, sep, values = spec.partition("=")
        if not sep or not key or not values:
            raise ValueError(
                f"--sweep wants KEY=V1,V2,... (got {spec!r})")
        axes.append([(key, _parse_sweep_value(tok))
                     for tok in values.split(",")])
    return [dict(combo) for combo in itertools.product(*axes)]


def _lane_path(path: str, lane: int) -> str:
    """``out.json`` -> ``out.lane3.json`` (suffix-preserving)."""
    import os.path

    stem, ext = os.path.splitext(path)
    return f"{stem}.lane{lane}{ext}"


def _outcome_line(head: str, assignment: dict, result,
                  via: str = "") -> str:
    """``job 3 (cq1=0.5) [serial]: 20 steps to t=... mass=... ...``"""
    if assignment:
        head += " (" + ", ".join(f"{k}={v}" for k, v in
                                 sorted(assignment.items())) + ")"
    final = result.state
    return (f"{head}{via}: {result.nstep} steps to "
            f"t={result.time:.6g}  mass={final.total_mass():.9g} "
            f"total_energy={final.total_energy():.9g}")


def _sweep_configs(args: argparse.Namespace, command: str, unit: str,
                   config_keys: tuple, extra_kwargs):
    """Expand ``--sweep``/``--lanes`` into ``(assignments, configs,
    control overrides)``, one entry per lane/job — the argument checks
    and key routing ``run-ensemble`` and ``fleet`` share.

    A swept key in ``config_keys`` sets that :class:`RunConfig` field,
    a control field becomes a per-lane override, anything else a
    problem kwarg.  ``extra_kwargs(i)`` gives entry i's
    command-specific ``RunConfig`` keywords.  A usage error is printed
    and ``None`` returned.
    """
    def refuse(message: str) -> None:
        print(message, file=sys.stderr)

    if args.deck and args.problem:
        return refuse("give either a deck or --problem, not both")
    if not args.deck and not args.problem:
        return refuse("nothing to run: give a deck path or --problem")
    if args.sweep and args.lanes is not None:
        return refuse("give --lanes or --sweep, not both (the sweep's "
                      f"cartesian product sets the {unit} count)")
    try:
        assignments = _sweep_lanes(args.sweep)
    except ValueError as exc:
        return refuse(f"{command}: {exc}")
    if not args.sweep:
        assignments = [{}] * max(args.lanes or 1, 1)

    from dataclasses import fields as dc_fields

    from .api import RunConfig
    from .core.controls import HydroControls

    control_names = {f.name for f in dc_fields(HydroControls)}
    configs, overrides = [], []
    for i, assignment in enumerate(assignments):
        kwargs = dict(
            problem=args.problem, deck=args.deck,
            nx=args.nx, ny=args.ny,
            time_end=args.time_end, max_steps=args.max_steps,
            problem_kwargs={}, **extra_kwargs(i),
        )
        override = {}
        for key, value in assignment.items():
            if key in config_keys:
                kwargs[key] = value
            elif key in ("nx", "ny"):
                return refuse(
                    f"{command}: cannot sweep {key!r} — all lanes share "
                    "one mesh (vary initial state and controls instead)")
            elif key in control_names:
                override[key] = value
            elif args.deck:
                return refuse(
                    f"{command}: sweep key {key!r} is not a control "
                    "field; problem-kwarg sweeps need --problem (deck "
                    "runs fix the setup in the deck file)")
            else:
                kwargs["problem_kwargs"][key] = value
        configs.append(RunConfig(**kwargs))
        overrides.append(override or None)
    return assignments, configs, overrides


def _run_ensemble_cli(args: argparse.Namespace) -> int:
    expanded = _sweep_configs(
        args, "run-ensemble", "lane", ("time_end", "max_steps"),
        lambda lane: dict(
            metrics=(_lane_path(args.metrics, lane)
                     if args.metrics else None),
            metrics_every=args.metrics_every))
    if expanded is None:
        return 2
    assignments, configs, overrides = expanded

    from .api import run_ensemble
    from .utils.errors import BookLeafError

    try:
        results = run_ensemble(configs, control_overrides=overrides)
    except BookLeafError as exc:
        print(f"run-ensemble: {exc}", file=sys.stderr)
        return 2

    for lane, result in enumerate(results):
        print(_outcome_line(f"lane {lane}", assignments[lane], result))
    print(f"\n{len(results)} lane(s) in {results[0].wall_seconds:.2f}s "
          f"({len(results) / results[0].wall_seconds:.2f} runs/s "
          "aggregate)")
    print()
    print(results[0].timers.breakdown())
    if args.report:
        from .telemetry import write_report

        for lane, result in enumerate(results):
            write_report(result.report(), _lane_path(args.report, lane))
        print(f"wrote {len(results)} lane reports to "
              f"{_lane_path(args.report, 0)} ...")
    if args.metrics:
        for lane, result in enumerate(results):
            rows = result.metrics_rows or []
            print(f"wrote {len(rows)} metrics records to "
                  f"{_lane_path(args.metrics, lane)}")
    return 0


def _fleet_cli(args: argparse.Namespace) -> int:
    from .api import RunConfig, submit

    expanded = _sweep_configs(
        args, "fleet", "job",
        ("nx", "ny", "time_end", "max_steps", "nranks"),
        lambda job: dict(
            nranks=args.nranks, backend=args.backend,
            # merged telemetry needs the per-job probe: default its
            # cadence when a fleet-level sink is requested, exactly as
            # `run --metrics` does for a single run
            metrics_every=(RunConfig.DEFAULT_METRICS_EVERY
                           if (args.metrics_every is None
                               and (args.metrics or args.prom))
                           else args.metrics_every)))
    if expanded is None:
        return 2
    assignments, configs, overrides = expanded
    any_override = any(overrides)
    if any_override and {"nx", "ny"} & {k for a in assignments for k in a}:
        print("fleet: cannot combine control sweeps with mesh sweeps "
              "(control overrides ride the same-mesh batched path)",
              file=sys.stderr)
        return 2

    from .utils.errors import BookLeafError

    watcher = None
    listeners = None
    if args.watch:
        from .telemetry.live import WatchRenderer

        watcher = WatchRenderer()
        listeners = [watcher]
    options = dict(
        workers=args.workers,
        cache_dir=args.cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        ensemble="off" if args.no_ensemble else "auto",
        batch_width=args.batch_width,
        metrics_path=args.metrics,
        prom_path=args.prom,
        events_path=args.events,
        event_listeners=listeners,
        trace_path=args.trace,
        dashboard_path=args.dashboard,
        profile_dir=args.profile_dir,
        heartbeat_timeout=args.heartbeat_timeout,
    )
    try:
        handle = submit(
            configs,
            control_overrides=overrides if any_override else None,
            **options)
        results = handle.results()
    except BookLeafError as exc:
        print(f"fleet: {exc}", file=sys.stderr)
        return 2

    for job, result in enumerate(results):
        via = result.backend + (", cached" if result.cache_hit else "")
        print(_outcome_line(f"job {job}", assignments[job], result,
                            via=f" [{via}]"))
    summary = handle.summary()
    counts = summary["counts"]
    print(f"\n{counts['jobs']} job(s): {counts['cache_hits']} from "
          f"cache, {counts['ensemble_jobs']} on the batched fast path "
          f"({summary['wall_seconds']:.2f}s)")
    if args.summary:
        import json

        with open(args.summary, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
        print(f"wrote sweep summary to {args.summary}")
    if args.metrics:
        print(f"wrote merged metrics stream to {args.metrics}")
    if args.prom:
        print(f"wrote merged Prometheus export to {args.prom}")
    if args.events:
        print(f"wrote live event stream to {args.events}")
    if args.trace:
        print(f"wrote merged sweep trace to {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    if args.dashboard:
        print(f"wrote sweep dashboard to {args.dashboard}")
    if args.profile_dir:
        profile = summary.get("profile") or {}
        print(f"wrote {profile.get('jobs_profiled', 0)} job profile(s) "
              f"and the aggregate to {args.profile_dir}")
    outliers = summary.get("anomalies") or []
    for flag in outliers:
        direction = "slow/heavy" if flag["harmful"] else "fast/light"
        print(f"anomaly: job {flag['job']} {flag['metric']}="
              f"{flag['value']:.4g} vs sweep median "
              f"{flag['median']:.4g} (|z|={abs(flag['zscore']):.1f}, "
              f"{direction})")
    return 0


def _problems(args: argparse.Namespace) -> int:
    import json

    from .problems import describe_problem, get_problem
    from .utils.errors import DeckError

    if args.problems_command == "list":
        if args.json:
            print(json.dumps([describe_problem(name)
                              for name in problem_names()], indent=2))
            return 0
        width = max(len(name) for name in problem_names())
        for name in problem_names():
            info = get_problem(name)
            deck = info.deck or "-"
            print(f"{name:<{width}}  {info.summary}  [deck: {deck}]")
        return 0

    # describe
    try:
        info = get_problem(args.name)
    except DeckError as exc:
        print(f"problems describe: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(info.describe(), indent=2))
        return 0
    print(f"{info.name}: {info.summary}")
    if info.reference:
        print(f"reference:  {info.reference}")
    if info.acceptance:
        print(f"acceptance: {info.acceptance}")
    if info.deck:
        print(f"deck:       {deck_path(info.name)}")
    print()
    print("settings:")
    rows = [(s.name, s.type_name, repr(s.default), s.section,
             s.doc + (f" (one of: "
                      f"{', '.join(repr(c) for c in s.choices)})"
                      if s.choices else ""))
            for s in info.settings]
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    for r in rows:
        print(f"  {r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  "
              f"default={r[2]:<{widths[2]}}  [{r[3]:<{widths[3]}}]  {r[4]}")
    print()
    print("any HydroControls field (cfl_safety, cq1, ale_on, ...) may "
          "also be set\nin the deck's [CONTROL]/[ALE] sections or passed "
          "to load_problem().")
    return 0


def _compare(args: argparse.Namespace) -> int:
    from .metrics import compare as cmp

    kwargs = {}
    if args.threshold is not None:
        kwargs["threshold"] = args.threshold
    if args.min_seconds is not None:
        kwargs["min_seconds"] = args.min_seconds
    if args.gate_comm:
        kwargs["gate_comm"] = True
    if args.gate_outliers:
        kwargs["gate_outliers"] = True
    try:
        result = cmp.compare_files(args.old, args.new, **kwargs)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print(cmp.format_table(result))
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`) — exit quietly
        # the way well-behaved Unix tools do.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os._exit(0)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        return _run(args)
    if args.command == "run-ensemble":
        return _run_ensemble_cli(args)
    if args.command == "fleet":
        return _fleet_cli(args)
    if args.command == "compare":
        return _compare(args)
    if args.command == "problems":
        return _problems(args)
    if args.command == "decks":
        from .problems import bundled_decks

        for name in bundled_decks():
            print(f"{name:<13} {deck_path(name)}")
        return 0
    if args.command == "info":
        from .perfmodel import format_table1

        print(format_table1())
        return 0
    if args.command == "model":
        print(_model_report(args))
        return 0
    if args.command == "validate":
        return _validate(args)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
