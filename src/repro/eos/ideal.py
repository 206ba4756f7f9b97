"""Ideal-gas (gamma-law) equation of state."""

from __future__ import annotations

import numpy as np

from ..utils.errors import EosError
from .base import Eos


class IdealGas(Eos):
    """Gamma-law gas: ``p = (γ-1) ρ e``, ``c² = γ p / ρ``.

    This is the EoS used by all four of BookLeaf's bundled test problems
    (Sod, Noh, Sedov, Saltzmann).
    """

    name = "ideal"
    nonnegative_e = True

    def __init__(self, gamma: float):
        if gamma <= 1.0:
            raise EosError(f"ideal gas requires gamma > 1, got {gamma}")
        self.gamma = float(gamma)

    def pressure(self, rho, e):
        return (self.gamma - 1.0) * rho * e

    def sound_speed_sq(self, rho, e):
        # c² = γ p / ρ = γ (γ-1) e; guard e >= 0 so cold cells give c = 0
        # rather than NaN (the MaterialTable applies the ccut floor).
        return self.gamma * (self.gamma - 1.0) * np.maximum(e, 0.0)

    def pressure_into(self, rho, e, out):
        np.multiply(rho, self.gamma - 1.0, out=out)
        out *= e
        return out

    def sound_speed_sq_into(self, rho, e, out):
        np.maximum(e, 0.0, out=out)
        out *= self.gamma * (self.gamma - 1.0)
        return out

    def energy_from_pressure(self, rho, p):
        rho = np.asarray(rho, dtype=np.float64)
        return p / ((self.gamma - 1.0) * rho)
