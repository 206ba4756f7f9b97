"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure of the paper's
evaluation section (see DESIGN.md's experiment index): it computes the
modelled numbers, *asserts the paper's qualitative shape*, prints the
report and writes it under ``results/``.  Run with::

    pytest benchmarks/ --benchmark-only

The physical content is in the printed/written reports and the shape
assertions; ``--benchmark-disable`` runs them without the timing
rounds (CI does, then diffs the host-independent
``results/fig3_measured_halo_scaling.txt``).  Performance is measured
by ``bench/``, not here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_report(results_dir: Path, name: str, text: str) -> None:
    """Persist a report and echo it to the terminal."""
    (results_dir / name).write_text(text + "\n")
    print()
    print(text)
