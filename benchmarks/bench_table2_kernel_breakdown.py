"""Table II — per-kernel performance breakdown, Noh, single node.

Regenerates the paper's central table: the modelled per-kernel seconds
for all seven configurations, printed against the paper's numbers with
ratios, plus this implementation's *measured* Python kernel breakdown
from an instrumented Noh run (our own Table II analogue).

Shape assertions encode the findings the paper draws from the table:
flat MPI beats hybrid on both CPUs; the hybrid loss is concentrated in
getdt/getgeom/acceleration while the viscosity kernel threads well;
GPUs lose to the CPU nodes; OpenMP offload beats CUDA on the P100; the
V100 improves on the P100; CUDA's getforce is nearly free while its
getdt pays the host-side penalty.
"""

import pytest

from repro.perfmodel import (
    KERNELS,
    PAPER_TABLE2,
    format_table2,
    measured_weights,
    table2,
)

from .conftest import write_report


@pytest.fixture(scope="module")
def model():
    return table2()


def test_table2_model_vs_paper(benchmark, model, results_dir):
    text = benchmark(format_table2, model)

    # every modelled cell within a factor 2 of the paper, overall within 20%
    for key, row in PAPER_TABLE2.items():
        for kernel, paper_val in row.items():
            ratio = model[key][kernel] / paper_val
            assert 0.4 < ratio < 2.1, (key, kernel, ratio)
        overall = model[key]["overall"] / row["overall"]
        assert 0.75 < overall < 1.25, (key, overall)

    # the paper's qualitative findings
    assert model["skylake_mpi"]["overall"] < model["skylake_hybrid"]["overall"]
    assert model["broadwell_mpi"]["overall"] < model["broadwell_hybrid"]["overall"]
    assert model["p100_openmp"]["overall"] < model["p100_cuda"]["overall"]
    assert model["v100_cuda"]["overall"] < model["p100_cuda"]["overall"]
    for gpu in ("p100_openmp", "p100_cuda", "v100_cuda"):
        assert model[gpu]["overall"] > model["skylake_mpi"]["overall"]
    assert model["p100_cuda"]["getforce"] < 1.0
    assert model["p100_cuda"]["getdt"] > 3.0 * model["p100_openmp"]["getdt"]

    write_report(results_dir, "table2_kernel_breakdown.txt", text)


def test_table2_measured_python_breakdown(benchmark, results_dir):
    """The measured per-kernel seconds of *this* implementation on a
    reduced Noh run — the two corner-force kernels lead here too (the
    viscosity and ``getforce`` within a few percent of each other)."""
    weights = benchmark.pedantic(
        measured_weights, kwargs=dict(nx=50, ny=50, time_end=0.1),
        rounds=1, iterations=1,
    )
    total = sum(weights.values())
    lines = ["Measured Python per-kernel breakdown (Noh 50x50, t=0.1):"]
    for kernel in KERNELS + ["other"]:
        share = 100.0 * weights[kernel] / total
        lines.append(f"  {kernel:<14}{weights[kernel]:>9.3f}s {share:>6.1f}%")
    text = "\n".join(lines)

    leaders = sorted(KERNELS, key=weights.get)[-2:]
    assert set(leaders) == {"viscosity", "getforce"}
    assert weights["viscosity"] / total > 0.25
    write_report(results_dir, "table2_measured_python.txt", text)
