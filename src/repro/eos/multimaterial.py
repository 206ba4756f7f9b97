"""Multi-material EoS dispatch — BookLeaf's ``getpc`` substrate.

Each cell carries a material index; the :class:`MaterialTable` maps
indices to :class:`~repro.eos.base.Eos` instances and evaluates pressure
and sound speed for the whole mesh in one vectorised sweep per material
(mask + fancy indexing, so cost is O(ncell) regardless of how many
materials exist).

The table also owns BookLeaf's global cutoffs:

* ``pcut`` — pressures with ``|p| < pcut`` are snapped to zero,
* ``ccut`` — sound-speed-squared floor, keeping the CFL timestep finite
  in cold or void cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..perf.workspace import scratch
from ..utils.deck import Deck
from ..utils.errors import DeckError, EosError
from .base import Eos
from .ideal import IdealGas
from .jwl import Jwl
from .tait import Tait
from .void import Void


@dataclass
class MaterialTable:
    """Material-index -> EoS dispatch with global cutoffs."""

    eos: List[Eos] = field(default_factory=list)
    pcut: float = 1.0e-8
    ccut: float = 1.0e-9

    def add(self, eos: Eos) -> int:
        """Register an EoS; returns the material index it was given."""
        self.eos.append(eos)
        return len(self.eos) - 1

    @property
    def nmat(self) -> int:
        return len(self.eos)

    def _check(self, mat: np.ndarray) -> None:
        nmat = len(self.eos)
        if nmat == 0:
            raise EosError("MaterialTable has no materials")
        # mat.min()/max() without their Python-level wrappers
        if mat.size and (np.minimum.reduce(mat, axis=None) < 0
                         or np.maximum.reduce(mat, axis=None) >= nmat):
            raise EosError(
                f"material indices out of range [0, {self.nmat}): "
                f"min={mat.min()} max={mat.max()}"
            )

    def getpc(self, mat: np.ndarray, rho: np.ndarray, e: np.ndarray,
              out: Optional[Tuple[np.ndarray, np.ndarray]] = None,
              ws=None) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate pressure and sound-speed² for every cell.

        This is BookLeaf's ``getpc`` kernel: one EoS call per material
        over the cells of that material, then the global cutoffs.
        ``out`` receives ``(p, cs2)`` (they must not alias the inputs);
        a workspace makes the single-material path allocation-free.
        """
        mat = np.asarray(mat)
        rho = np.asarray(rho, dtype=np.float64)
        e = np.asarray(e, dtype=np.float64)
        self._check(mat)
        if out is None:
            p = np.empty_like(rho)
            cs2 = np.empty_like(rho)
        else:
            p, cs2 = out
        if len(self.eos) == 1:
            # Fast path: single material, no mask gathers.
            self.eos[0].pressure_into(rho, e, p)
            self.eos[0].sound_speed_sq_into(rho, e, cs2)
        else:
            for imat, eos in enumerate(self.eos):
                sel = mat == imat
                if not sel.any():
                    continue
                p[sel] = eos.pressure(rho[sel], e[sel])
                cs2[sel] = eos.sound_speed_sq(rho[sel], e[sel])
        ws = scratch(ws)
        t = ws.borrow(p.shape)
        small = ws.borrow(p.shape, dtype=bool)
        np.abs(p, out=t)
        np.less(t, self.pcut, out=small)
        p[small] = 0.0
        ws.release(t, small)
        np.maximum(cs2, self.ccut, out=cs2)
        return p, cs2

    def nonnegative_e_cells(self, mat: np.ndarray) -> Optional[np.ndarray]:
        """Mask of the cells whose material admits only ``e >= 0``
        (:attr:`Eos.nonnegative_e`); ``None`` when every material
        does."""
        needs = np.array([eos.nonnegative_e for eos in self.eos])
        return None if needs.all() else needs[mat]

    def gamma_like(self, mat: np.ndarray) -> np.ndarray:
        """Per-cell effective γ for the viscosity coefficient.

        The CSW quadratic viscosity coefficient uses (γ+1)/4; materials
        without a γ (Tait/JWL/void) fall back to 5/3.
        """
        mat = np.asarray(mat)
        out = np.full(mat.shape, 5.0 / 3.0)
        for imat, eos in enumerate(self.eos):
            if isinstance(eos, IdealGas):
                out[mat == imat] = eos.gamma
        return out


def eos_from_section(options: Dict[str, object]) -> Eos:
    """Build one EoS from deck options (``eos = ideal|tait|jwl|void``)."""
    kind = str(options.get("eos", "ideal")).lower()
    if kind == "ideal":
        return IdealGas(gamma=float(options.get("gamma", 1.4)))
    if kind == "tait":
        return Tait(
            rho0=float(options.get("rho0", 1.0)),
            a1=float(options.get("a1", 1.0)),
            a3=float(options.get("a3", 7.0)),
            cavitation_pressure=float(options.get("cavitation_pressure", 0.0)),
        )
    if kind == "jwl":
        return Jwl(
            rho0=float(options.get("rho0", 1.0)),
            a=float(options.get("a", 1.0)),
            b=float(options.get("b", 1.0)),
            r1=float(options.get("r1", 4.0)),
            r2=float(options.get("r2", 1.0)),
            omega=float(options.get("omega", 0.3)),
        )
    if kind == "void":
        return Void()
    raise DeckError(f"unknown eos kind {kind!r}")


def material_table_from_deck(deck: Deck,
                             pcut: Optional[float] = None,
                             ccut: Optional[float] = None) -> MaterialTable:
    """Build a :class:`MaterialTable` from ``[MATERIAL k]`` sections.

    Material deck indices are 1-based (as in BookLeaf); internal indices
    are 0-based in deck order.
    """
    sections = deck.indexed("MATERIAL")
    if not sections:
        raise DeckError(f"deck {deck.source} defines no [MATERIAL] sections")
    table = MaterialTable()
    if pcut is not None:
        table.pcut = pcut
    if ccut is not None:
        table.ccut = ccut
    for section in sections:
        table.add(eos_from_section(section.options))
    return table
