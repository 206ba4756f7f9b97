"""Analytic reference solutions for the bundled test problems.

Exact Riemann solver (Sod, LeBlanc), the Noh implosion solution, the
numerically integrated Sedov-Taylor similarity solution, the Saltzmann
piston shock and Kidder's isentropic shell compression.  These provide
the quantitative targets for the validation tests and the example
scripts.

No run evaluates a reference solution (only the Kidder problem's
piston reads :mod:`.kidder_exact`), so each name below is imported on
first use (:mod:`repro.utils.lazy`).
"""

from ..utils.lazy import lazy_exports

_EXPORTS = {
    "RiemannState": ".riemann",
    "RiemannSolution": ".riemann",
    "solve_riemann": ".riemann",
    "solve_star": ".riemann",
    "sod_solution": ".riemann",
    "noh_exact": ".",
    "sedov_exact": ".",
    "saltzmann_exact": ".",
    "kidder_exact": ".",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
