"""Equation-of-state interface.

BookLeaf closes Euler's equations with one EoS per material: ideal gas,
Tait, JWL, or void (Section III-A of the paper).  Every EoS maps
``(density, specific internal energy) -> (pressure, sound speed²)`` and
must be vectorised: inputs are numpy arrays over the cells of one
material and outputs have the same shape.

Pressure and sound-speed cutoffs (BookLeaf's ``pcut``/``ccut``) are
applied by the :class:`~repro.eos.multimaterial.MaterialTable`, not by
the individual EoS classes, so the pure thermodynamics stays testable.
"""

from __future__ import annotations

import abc

import numpy as np


class Eos(abc.ABC):
    """Abstract equation of state ``p(ρ, e)``, ``c²(ρ, e)``."""

    #: short name used in input decks (``eos = ideal``)
    name: str = "abstract"
    #: whether ``e >= 0`` belongs to this material's admissible set
    #: (the probe's ``negative:e`` sentinel checks only such cells):
    #: true for a gas; a stiffened or reactive closure (Tait, JWL) and
    #: void reach negative ``e`` on healthy states
    nonnegative_e: bool = False

    @abc.abstractmethod
    def pressure(self, rho: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Pressure from density and specific internal energy."""

    @abc.abstractmethod
    def sound_speed_sq(self, rho: np.ndarray, e: np.ndarray) -> np.ndarray:
        """Squared adiabatic sound speed ``c² = ∂p/∂ρ|_s``.

        Implementations may return the standard thermodynamic identity
        ``c² = ∂p/∂ρ + (p/ρ²) ∂p/∂e`` evaluated pointwise.
        """

    def pressure_into(self, rho: np.ndarray, e: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """Pressure written into ``out``.  Subclasses may override with
        an allocation-free implementation; the default just copies."""
        out[...] = self.pressure(rho, e)
        return out

    def sound_speed_sq_into(self, rho: np.ndarray, e: np.ndarray,
                            out: np.ndarray) -> np.ndarray:
        """Sound speed² written into ``out`` (see :meth:`pressure_into`)."""
        out[...] = self.sound_speed_sq(rho, e)
        return out

    def energy_from_pressure(self, rho: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Invert ``p(ρ, e)`` for ``e`` — used by problem setups that
        specify initial pressure rather than energy.  Optional."""
        raise NotImplementedError(f"{self.name} EoS cannot invert p -> e")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
