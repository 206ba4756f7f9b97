"""The schema-versioned JSON run report (``bookleaf run --report``).

One run produces one report: the problem configuration, per-kernel
seconds/calls/allocation counters (the measured Table II column), the
Typhon communication counters (total and per rank, in rank order) and
the per-step rows the driver recorded (``Hydro.step_rows``).  The
report is the machine-readable companion to the human breakdown the
CLI prints — the artefact every perf PR regresses against.

The schema is versioned and *pinned by a golden test*
(``tests/telemetry/test_report.py``): changing the shape of the report
— adding, removing or retyping a field — requires bumping
:data:`SCHEMA_VERSION` and regenerating the golden shape file, which
makes schema drift an explicit, reviewed event rather than an
accident.  docs/OBSERVABILITY.md carries the annotated example.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..parallel.interface import COMM_FIELDS
from ..utils.timers import KERNEL_FIELDS, TimerRegistry

#: bump when (and only when) the report shape changes; the golden test
#: pins shape + version together
#: v2: added the ``diagnostics`` key (the final live-metrics sample —
#: conservation drifts, extrema; null when the run carried no probe)
#: v3: every comm entry carries all six ``CommStats`` counters
#: (``dt_reductions`` and ``dt_hops`` added)
#: v4: the ``diagnostics`` record is the probe's schema 2
#: (``momentum_x``, ``momentum_y``, ``rho_max`` and ``p_max`` added)
SCHEMA_VERSION = 4

GENERATOR = "repro.telemetry"

#: fields of one step row (``Hydro.step_rows``): step number,
#: simulated time, the dt taken and why, and the wall-clock seconds
#: the step cost
STEP_FIELDS = ("nstep", "time", "dt", "dt_reason", "wall_seconds")

#: the column dtype of every step field but ``dt_reason``, which is a
#: code plane into a vocabulary of the reasons
_STEP_DTYPES = {"nstep": np.int64, "time": np.float64, "dt": np.float64,
                "wall_seconds": np.float64}


def encode_steps(rows: Sequence[dict]) -> Tuple[Dict[str, np.ndarray],
                                                List[Optional[str]]]:
    """Step rows as columns: ``({"step_<field>": column}, reasons)``,
    one column per :data:`STEP_FIELDS` entry, ``step_dt_reason``
    holding each row's index into ``reasons`` (the distinct reasons in
    first-seen order).  :func:`decode_steps` inverts it exactly."""
    reasons = list(dict.fromkeys(row["dt_reason"] for row in rows))
    code = {reason: i for i, reason in enumerate(reasons)}
    columns = {f"step_{name}": np.array([row[name] for row in rows], dtype)
               for name, dtype in _STEP_DTYPES.items()}
    columns["step_dt_reason"] = np.array(
        [code[row["dt_reason"]] for row in rows],
        np.min_scalar_type(max(len(reasons) - 1, 0)))
    return columns, reasons


def decode_steps(columns: Dict[str, np.ndarray],
                 reasons: Sequence[Optional[str]]) -> List[dict]:
    """The step rows :func:`encode_steps` stored as ``columns`` and
    ``reasons``, each a dict in :data:`STEP_FIELDS` order, with Python
    ints and floats equal to the originals bit for bit.  Raises
    ``KeyError`` for a missing column, ``IndexError`` for a code
    outside ``reasons`` and ``ValueError`` for columns of unequal
    length."""
    nstep, time, dt, code, wall = (
        columns[f"step_{name}"].tolist() for name in STEP_FIELDS)
    if len({len(nstep), len(time), len(dt), len(code), len(wall)}) != 1:
        raise ValueError("step columns of unequal length")
    # a dict display per row: twice as fast as dict(zip(STEP_FIELDS, row))
    return [{"nstep": n, "time": t, "dt": d, "dt_reason": reasons[c],
             "wall_seconds": w}
            for n, t, d, c, w in zip(nstep, time, dt, code, wall)]


def build_report(problem: dict, timers: TimerRegistry, *,
                 steps: int, time_reached: float, wall_seconds: float,
                 ranks: int = 1, partition: Optional[str] = None,
                 comm_total: Optional[dict] = None,
                 comm_per_rank: Optional[List[dict]] = None,
                 step_rows: Sequence[dict] = (),
                 diagnostics: Optional[dict] = None) -> dict:
    """Assemble the run report dict (see module docstring for shape).

    Serial runs pass no comm counters and get an all-zero total with an
    empty per-rank list — the schema is identical either way, so report
    consumers need no serial/distributed special case.

    ``diagnostics`` is the run's final live-metrics sample (the last
    NDJSON record of a ``--metrics`` run, verbatim — so the stream and
    the report agree bit-for-bit on the closing drift) or ``None`` when
    no probe was attached.
    """
    if comm_total is None:
        comm_total = {k: 0 for k in COMM_FIELDS}
    comm_total = {k: int(comm_total.get(k, 0)) for k in COMM_FIELDS}
    per_rank = [
        {k: int(entry.get(k, 0)) for k in COMM_FIELDS}
        for entry in (comm_per_rank or [])
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "generator": GENERATOR,
        "problem": problem,
        "run": {
            "ranks": int(ranks),
            "partition": partition if ranks > 1 else None,
            "steps": int(steps),
            "time": float(time_reached),
            "wall_seconds": float(wall_seconds),
        },
        "kernels": timers.entries(),
        "comm": {"total": comm_total, "per_rank": per_rank},
        "steps": [dict(row) for row in step_rows],
        "diagnostics": dict(diagnostics) if diagnostics else None,
    }


def write_report(report: dict, path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


# ----------------------------------------------------------------------
# schema validation + the golden shape
# ----------------------------------------------------------------------
def validate_report(report: dict) -> None:
    """Raise ``ValueError`` on any report that violates the schema."""
    def need(cond: bool, msg: str) -> None:
        if not cond:
            raise ValueError(f"invalid run report: {msg}")

    need(isinstance(report, dict), "not a dict")
    need(report.get("schema_version") == SCHEMA_VERSION,
         f"schema_version != {SCHEMA_VERSION}")
    need(report.get("generator") == GENERATOR, "unknown generator")
    for key in ("problem", "run", "kernels", "comm", "steps"):
        need(key in report, f"missing top-level key {key!r}")
    run = report["run"]
    for key in ("ranks", "steps"):
        need(isinstance(run.get(key), int), f"run.{key} not an int")
    for key in ("time", "wall_seconds"):
        need(isinstance(run.get(key), (int, float)),
             f"run.{key} not a number")
    for name, entry in report["kernels"].items():
        for key in KERNEL_FIELDS:
            need(isinstance(entry.get(key), (int, float)),
                 f"kernels[{name!r}].{key} not a number")
    comm = report["comm"]
    need(isinstance(comm.get("per_rank"), list), "comm.per_rank not a list")
    for entry in [comm["total"]] + comm["per_rank"]:
        for key in COMM_FIELDS:
            need(isinstance(entry.get(key), int),
                 f"comm counter {key!r} not an int")
    if run["ranks"] > 1:
        need(len(comm["per_rank"]) == run["ranks"],
             "comm.per_rank length != ranks")
    for row in report["steps"]:
        for key in STEP_FIELDS:
            need(key in row, f"step record missing {key!r}")
    need("diagnostics" in report, "missing top-level key 'diagnostics'")
    diag = report["diagnostics"]
    if diag is not None:
        need(isinstance(diag, dict), "diagnostics not a dict or null")
        for key in ("nstep", "mass_drift", "energy_drift",
                    "total_energy"):
            need(isinstance(diag.get(key), (int, float)),
                 f"diagnostics.{key} not a number")


#: dict paths whose *keys* are data (kernel names, problem params) —
#: their shape collapses to one representative "*" entry, so adding a
#: timer region is not a schema change but retyping a field is
_WILDCARD_PATHS = frozenset({("kernels",), ("problem", "params")})


def schema_shape(value, _path: tuple = ()):
    """Canonical shape of a report: dict keys mapped to value *types*.

    Lists collapse to the shape of their first element and wildcard
    maps (kernels, problem params) to one ``"*"`` entry, so two reports
    from different runs have equal shapes unless the schema itself
    changed.  Used by the golden-file test.
    """
    if isinstance(value, dict):
        if _path in _WILDCARD_PATHS:
            if not value:
                return {}
            first = sorted(value)[0]
            return {"*": schema_shape(value[first], _path + ("*",))}
        return {k: schema_shape(v, _path + (k,))
                for k, v in sorted(value.items())}
    if isinstance(value, list):
        return [schema_shape(value[0], _path + ("[]",))] if value else []
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if value is None:
        return "null"
    return type(value).__name__
