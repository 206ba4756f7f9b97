"""Structural conformance of every comms endpoint and backend.

The communication seam is a typed contract
(:mod:`repro.parallel.interface`): these tests hold both
implementations — the serial no-op endpoint and the one Typhon
protocol class every decomposed backend runs — against the full seam
table.
"""

import inspect

import pytest

from repro.core.comms import NullComms, SerialComms
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


def test_null_comms_is_serial_comms():
    assert NullComms is SerialComms


def test_live_endpoints_satisfy_protocol():
    """isinstance() against the runtime-checkable Protocol, on real
    endpoint instances built the way the backends build them."""
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem

    serial = NullComms()
    assert isinstance(serial, CommEndpoint)
    assert (serial.rank, serial.size) == (0, 1)

    setup = load_problem("sod", nx=12, ny=4)
    driver = DistributedHydro(setup, 2, backend="threads")
    for hydro in driver.hydros:
        assert isinstance(hydro.comms, CommEndpoint)
    for attr in SEAM_ATTRIBUTES:
        assert hasattr(driver.hydros[0].comms, attr)


def test_seam_table_matches_protocol_definition():
    """The table the checker enforces and the Protocol's own methods
    must agree — otherwise the checker tests a stale seam."""
    proto_methods = {
        name for name, member in vars(CommEndpoint).items()
        if not name.startswith("_") and callable(member)
    }
    assert proto_methods == set(SEAM_METHODS)


def test_comm_plan_is_part_of_the_seam():
    """The plan accessor is seam API: kernels and telemetry may ask
    any endpoint for its compiled plan (None on serial)."""
    assert "comm_plan" in SEAM_METHODS
    assert NullComms().comm_plan() is None


def test_split_phase_methods_are_part_of_the_seam():
    """The overlapped protocol's post/complete halves are seam API on
    every endpoint — serial degenerates them to no-ops."""
    for name in ("post_kinematics", "complete_kinematics",
                 "post_cell_fields", "complete_cell_fields",
                 "post_node_sums", "complete_node_sums",
                 "post_cell_arrays", "complete_cell_arrays",
                 "overlap_enabled"):
        assert name in SEAM_METHODS, name
    serial = NullComms()
    assert serial.overlap_enabled() is False


def test_live_endpoints_return_their_plan():
    from repro.parallel import DistributedHydro
    from repro.problems import load_problem

    setup = load_problem("sod", nx=12, ny=4)
    for mode, enabled in (("packed", False), ("overlap", True)):
        driver = DistributedHydro(setup, 2, backend="threads",
                                  comm_plan=mode)
        for hydro in driver.hydros:
            plan = hydro.comms.comm_plan()
            assert plan is not None
            assert plan.rank == hydro.comms.rank
            assert hydro.comms.overlap_enabled() is enabled


def test_seam_checker_catches_drift():
    class Broken:
        def exchange_kinematics(self, wrong_name):
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
