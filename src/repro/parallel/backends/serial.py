"""The ``serial`` backend: one rank, no decomposition, ``SerialComms``.

Exists so the :mod:`repro.api` façade drives serial, thread-parallel
and process-parallel runs through one code path: a serial run is a
"decomposed" run with one rank that the driver builds without a
transport (``driver.build_rank(0)`` — the global state, the do-nothing
:class:`~repro.core.comms.SerialComms`).  No partitioning, no halos, no
barriers — the hydro loop is byte-for-byte the serial one, and this
backend's whole contribution is to run it inline.
"""

from __future__ import annotations

from typing import Optional

from ...utils.errors import BookLeafError


class SerialBackend:
    """Run the single rank inline on the calling thread."""

    name = "serial"

    def prepare(self, driver) -> None:
        if driver.nranks != 1:
            raise BookLeafError(
                f"the serial backend runs exactly 1 rank, not "
                f"{driver.nranks}; pick backend='threads' or 'processes'"
            )
        driver.hydros.append(driver.build_rank(0))

    def execute(self, driver, max_steps: Optional[int] = None) -> list:
        hydro = driver.hydros[0]
        hydro.run(max_steps=max_steps)
        return [driver.report(hydro)]
