"""Self-similar Sedov–Taylor blast-wave solution (cylindrical, 2-D).

The similarity ansatz (s = j + 2, j = 2 for cylindrical geometry)

    u(r,t) = (2 r)/(s t) V(λ),   ρ = ρ0 G(λ),
    p(r,t) = ρ0 (4 r²)/(s² t²) P(λ),        λ = r / R(t)

reduces the Euler equations to three coupled ODEs in ``x = ln λ``,

    (V−1) G'/G·λ           = −λV' − j V                (continuity)
    (V−1) λV' + (P/G) λP'·(1/P)·P = ...                (momentum)
    (V−1) (λP'/P − γ λG'/G) = s − 2V                   (entropy)

solved here as a 3×3 linear system for the log-derivatives at each
point and integrated inward from the strong-shock jump conditions at
λ = 1 (V = 2/(γ+1), G = (γ+1)/(γ−1), P = 2/(γ+1)).  The energy
constant follows from the integral

    α = 2π (4/s²) ∫₀¹ ( ½ G V² + P/(γ−1) ) λ³ dλ

and the shock radius is ``R(t) = (E t² / (α ρ0))^{1/s}``.  For γ = 1.4
this gives α ≈ 0.984 — the textbook value for the cylindrical blast.

Everything is computed numerically (no tabulated magic constants), so
the module doubles as a reference implementation of the similarity
solution; results are cached per γ.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..utils.lazy import require

#: what the structured error names when scipy is missing
_FEATURE = "the Sedov reference solution (repro.analytic.sedov_exact)"

J = 2          #: cylindrical geometry
S = J + 2      #: the similarity exponent denominator (R ∝ t^{2/s})
_X_MIN = -16.0  #: integrate to λ = e^{-16} (the origin limit)


def _rhs(x: float, yvec: np.ndarray, gamma: float) -> np.ndarray:
    """Log-derivatives (dV/dx, dlnG/dx, dlnP/dx) at one similarity point."""
    V, lnG, lnP = yvec
    G = np.exp(lnG)
    P = np.exp(lnP)
    vm1 = V - 1.0
    # Unknowns: a = dV/dx, b = dlnG/dx, c = dlnP/dx.
    # (1) vm1*b + a = -j V
    # (2) vm1*a + (P/G) c = (s/2)V - V^2 - 2P/G
    # (3) vm1*(c - gamma*b) = s - 2V
    A = np.array([
        [1.0, vm1, 0.0],
        [vm1, 0.0, P / G],
        [0.0, -gamma * vm1, vm1],
    ])
    rhs = np.array([
        -J * V,
        0.5 * S * V - V * V - 2.0 * P / G,
        S - 2.0 * V,
    ])
    return np.linalg.solve(A, rhs)


@dataclass(frozen=True)
class SedovSimilarity:
    """The integrated similarity profiles and the energy constant α."""

    gamma: float
    alpha: float
    lam: np.ndarray     #: similarity coordinate grid (ascending, (0, 1])
    V: np.ndarray
    G: np.ndarray
    P: np.ndarray

    def profiles(self, r: np.ndarray, t: float, energy: float,
                 rho0: float = 1.0
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ρ, radial u, p) at radii ``r`` and time ``t``."""
        interp1d = require("scipy.interpolate", _FEATURE).interp1d
        r = np.asarray(r, dtype=np.float64)
        R = shock_radius(t, energy, rho0, self.gamma)
        lam = r / R
        inside = lam <= 1.0
        fV = interp1d(self.lam, self.V, bounds_error=False, fill_value=(self.V[0], self.V[-1]))
        fG = interp1d(self.lam, self.G, bounds_error=False, fill_value=(self.G[0], self.G[-1]))
        fP = interp1d(self.lam, self.P, bounds_error=False, fill_value=(self.P[0], self.P[-1]))
        rho = np.where(inside, rho0 * fG(lam), rho0)
        u = np.where(inside, (2.0 * r / (S * max(t, 1e-300))) * fV(lam), 0.0)
        p = np.where(inside, rho0 * (4.0 * r * r / (S * S * t * t)) * fP(lam), 0.0)
        return rho, u, p


@lru_cache(maxsize=8)
def similarity(gamma: float = 1.4) -> SedovSimilarity:
    """Integrate the similarity ODEs for ``gamma`` (cached)."""
    solve_ivp = require("scipy.integrate", _FEATURE).solve_ivp
    gp1 = gamma + 1.0
    gm1 = gamma - 1.0
    y0 = np.array([2.0 / gp1, np.log(gp1 / gm1), np.log(2.0 / gp1)])
    xs = np.linspace(0.0, _X_MIN, 2001)
    sol = solve_ivp(
        _rhs, (0.0, _X_MIN), y0, t_eval=xs, args=(gamma,),
        rtol=1e-10, atol=1e-12, method="Radau",
    )
    lam = np.exp(sol.t)[::-1]
    V = sol.y[0][::-1]
    G = np.exp(sol.y[1])[::-1]
    P = np.exp(sol.y[2])[::-1]
    # Energy integral on the similarity grid (trapezoid; the λ³ weight
    # makes the origin tail negligible).
    integrand = (0.5 * G * V * V + P / gm1) * lam ** 3
    integral = np.trapezoid(integrand, lam)
    alpha = 2.0 * np.pi * (4.0 / (S * S)) * integral
    return SedovSimilarity(gamma=gamma, alpha=float(alpha),
                           lam=lam, V=V, G=G, P=P)


def shock_radius(t: float, energy: float, rho0: float = 1.0,
                 gamma: float = 1.4) -> float:
    """``R(t) = (E t² / (α ρ0))^{1/4}`` for the cylindrical blast."""
    alpha = similarity(gamma).alpha
    return float((energy * t * t / (alpha * rho0)) ** (1.0 / S))


def shock_density(gamma: float = 1.4, rho0: float = 1.0) -> float:
    """Strong-shock density jump (γ+1)/(γ−1) — 6 for γ = 1.4."""
    return rho0 * (gamma + 1.0) / (gamma - 1.0)
