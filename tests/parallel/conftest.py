"""Live Typhon endpoints over either transport, all in this process.

The protocol (:class:`~repro.parallel.typhon.TyphonComms`) is written
once against a transport, so its unit tests run once too — over the
in-process transport and the shared-memory one.  A shared-memory
transport driven from rank *threads* needs no fork: the segments, the
pipes and the failure event work the same inside one process.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.parallel.backends.processes import SharedMemoryTransport
from repro.parallel.commplan import compile_plans
from repro.parallel.halo import build_subdomains, local_state
from repro.parallel.partition import partition
from repro.parallel.typhon import TyphonComms, TyphonContext
from repro.problems import load_problem

TRANSPORTS = ("in-process", "shared-memory")


@contextmanager
def live_ranks(transport, nranks=2, mode="overlap"):
    """``(ctx, subs, states, comms)``: a Sod setup decomposed over
    ``nranks`` live endpoints on the named transport."""
    setup = load_problem("sod", nx=16, ny=4)
    mesh = setup.state.mesh
    subs = build_subdomains(mesh, partition(mesh, nranks, "rcb"), nranks)
    if transport == "in-process":
        ctx = TyphonContext(subs)
    else:
        ctx = SharedMemoryTransport(compile_plans(subs))
    states = [local_state(sub, setup.state) for sub in subs]
    comms = [TyphonComms(ctx, sub, mode=mode) for sub in subs]
    try:
        yield ctx, subs, states, comms
    finally:
        if transport == "shared-memory":
            ctx.cleanup()


def both_transports(body):
    """Run ``body(ctx, subs, states, comms)`` over each transport in
    turn.  A loop rather than a pytest parametrisation so the tests
    that predate the second transport keep their ids."""
    def test():
        for transport in TRANSPORTS:
            print(f"transport: {transport}")  # shown when the body fails
            with live_ranks(transport) as ranks:
                body(*ranks)
    test.__name__ = body.__name__
    test.__doc__ = body.__doc__
    return test


def run_spmd(fns, timeout=30.0):
    """Run one callable per rank on its own thread; re-raise the first
    failure (without its traceback — the frames would pin views of the
    transport's boards past its cleanup)."""
    errors = []

    def wrap(fn):
        def inner():
            try:
                fn()
            except BaseException as exc:   # noqa: BLE001
                errors.append(exc.with_traceback(None))
        return inner

    threads = [threading.Thread(target=wrap(fn), daemon=True) for fn in fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        assert not t.is_alive(), "a rank thread is still blocked"
    if errors:
        raise errors[0]
