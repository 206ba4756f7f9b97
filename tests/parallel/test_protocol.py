"""Structural conformance of every comms endpoint and backend.

The communication seam is a typed contract
(:mod:`repro.parallel.interface`): these tests hold both
implementations — the serial no-op endpoint and the one Typhon
protocol class every decomposed backend runs — against the full seam
table.
"""

import inspect

import pytest

import repro.core.comms
from repro.core.comms import SerialComms
from repro.parallel import available_backends, get_backend
from repro.parallel.backends import BACKENDS
from repro.parallel.interface import (
    SEAM_ATTRIBUTES,
    SEAM_METHODS,
    CommBackend,
    CommEndpoint,
    seam_violations,
)
from repro.parallel.typhon import TyphonComms
from repro.utils.errors import BookLeafError

ENDPOINTS = [SerialComms, TyphonComms]


@pytest.mark.parametrize("cls", ENDPOINTS,
                         ids=lambda c: c.__name__)
def test_endpoint_covers_full_seam(cls):
    assert seam_violations(cls) == []


@pytest.mark.parametrize("cls", ENDPOINTS,
                         ids=lambda c: c.__name__)
def test_endpoint_declares_conformance(cls):
    assert getattr(cls, "__comm_endpoint__", False)


def test_serial_endpoint_has_one_name():
    assert not hasattr(repro.core.comms, "NullComms")


def test_live_endpoints_satisfy_protocol():
    """isinstance() against the runtime-checkable Protocol, on real
    endpoint instances built the way the backends build them."""
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem

    serial = SerialComms()
    assert isinstance(serial, CommEndpoint)
    assert (serial.rank, serial.size) == (0, 1)

    setup = load_problem("sod", nx=12, ny=4)
    driver = DistributedHydro(setup, 2, backend="threads")
    for hydro in driver.hydros:
        assert isinstance(hydro.comms, CommEndpoint)
    for attr in SEAM_ATTRIBUTES:
        assert hasattr(driver.hydros[0].comms, attr)


def test_seam_table_is_read_off_the_protocol():
    """There is no second hand-kept method list to drift: the table the
    checker enforces is computed from the Protocol's own members."""
    assert len(SEAM_METHODS) <= 16
    for name, params in SEAM_METHODS.items():
        sig = inspect.signature(getattr(CommEndpoint, name))
        assert tuple(p.lstrip("*") for p in params) == tuple(
            p for p in sig.parameters if p != "self"), name
    assert SEAM_METHODS["post_node_sums"] == ("state", "*partials")


def test_complete_kinematics_hands_back_the_stale_strip():
    """The kernels never ask an endpoint for its plan: the cells whose
    corner gathers went stale ride back from the complete half (none on
    a domain without a halo)."""
    cells, nodes = SerialComms().complete_kinematics(None)
    assert cells.shape == (0,) and nodes.shape == (0, 4)
    assert not hasattr(SerialComms, "comm_plan")
    assert not hasattr(TyphonComms, "comm_plan")


def test_split_phase_methods_are_part_of_the_seam():
    """Post/complete is the only form an exchange has, on every
    endpoint — serial degenerates the halves to no-ops."""
    exchanges = ("kinematics", "node_sums", "cell_arrays", "cell_fields")
    for what in exchanges:
        assert f"post_{what}" in SEAM_METHODS, what
        assert f"complete_{what}" in SEAM_METHODS, what
    assert set(SEAM_METHODS) - {
        f"{half}_{what}" for half in ("post", "complete")
        for what in exchanges
    } == {"reduce_dt", "allreduce_max", "allreduce_sum", "allreduce_min",
          "owned_cell_mask", "physical_boundary_sides",
          "physical_boundary_side_mask"}
    serial = SerialComms()
    partials = (object(), object())
    serial.post_node_sums(None, *partials)
    assert serial.complete_node_sums(None, *partials) == partials


def test_live_endpoints_return_their_plan():
    """Both schedules drive the same compiled plan and hand back its
    stale strip; which one an endpoint runs is its own attribute, not
    something the seam lets a kernel ask."""
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem
    from tests.parallel.conftest import run_spmd

    setup = load_problem("sod", nx=12, ny=4)
    for mode in ("packed", "overlap"):
        driver = DistributedHydro(setup, 2, backend="threads",
                                  comm_plan=mode)
        strips = {}

        def exchange(hydro):
            hydro.comms.post_kinematics(hydro.state)
            strips[hydro.comms.rank] = hydro.comms.complete_kinematics(
                hydro.state)

        run_spmd([lambda h=h: exchange(h) for h in driver.hydros])
        for hydro in driver.hydros:
            plan = hydro.comms.plan
            assert plan.rank == hydro.comms.rank
            assert hydro.comms.mode == mode
            cells, nodes = strips[plan.rank]
            assert cells is plan.halo_cells and nodes is plan.halo_nodes
            assert cells.size


def test_seam_checker_catches_drift():
    class Broken:
        def post_kinematics(self, wrong_name):
            pass

    problems = seam_violations(Broken)
    assert any("missing" in p for p in problems)
    assert any("drifted" in p for p in problems)


def test_registry_is_complete_and_conforming():
    assert available_backends() == ("serial", "threads", "processes")
    for name, cls in BACKENDS.items():
        assert cls.name == name
        backend = get_backend(name)
        assert isinstance(backend, CommBackend)
        sig = inspect.signature(cls.execute)
        assert "max_steps" in sig.parameters


def test_unknown_backend_rejected():
    with pytest.raises(BookLeafError, match="unknown comm backend"):
        get_backend("mpi")
