#!/usr/bin/env python
"""Checkpoint/restart: stop a calculation and resume it bit-exactly.

Runs the Sedov blast halfway, freezes it to a snapshot file, thaws
that into a driver built fresh from the same setup and carries on —
then proves the resumed trajectory is bit-for-bit identical to an
uninterrupted run.  (Restore is always an overlay into a freshly built
driver: see docs/FLEET.md, "Snapshots".)

Run:  python examples/checkpoint_restart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.output.restart import freeze, read_restart, thaw
from repro.problems import load_problem


def main() -> None:
    kwargs = dict(nx=40, ny=40, time_end=0.5)

    print("reference: uninterrupted Sedov run ...")
    straight = load_problem("sedov", **kwargs).make_hydro()
    straight.run()
    print(f"  {straight.nstep} steps to t = {straight.time:.3f}")

    print("interrupted run: stop at step 100, checkpoint, resume ...")
    first = load_problem("sedov", **kwargs).make_hydro()
    first.run(max_steps=100)
    with tempfile.TemporaryDirectory() as tmp:
        path = freeze(Path(tmp) / "sedov.state", first)
        size_kb = path.stat().st_size / 1024
        print(f"  checkpoint written at t = {first.time:.4f} "
              f"({size_kb:.0f} KiB)")
        resumed = load_problem("sedov", **kwargs).make_hydro()
        thaw(resumed, read_restart(path))
        resumed.run()
    print(f"  resumed to t = {resumed.time:.3f} "
          f"({resumed.nstep} total steps)")

    identical = (
        resumed.nstep == straight.nstep
        and np.array_equal(resumed.state.rho, straight.state.rho)
        and np.array_equal(resumed.state.u, straight.state.u)
        and np.array_equal(resumed.state.x, straight.state.x)
    )
    print(f"\nbit-for-bit identical to the uninterrupted run: {identical}")
    assert identical


if __name__ == "__main__":
    main()
