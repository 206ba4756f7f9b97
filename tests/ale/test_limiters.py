"""Unit and property tests for the remap limiters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ale.limiters import barth_jespersen, van_leer


def test_van_leer_classic_values():
    assert van_leer(np.array([1.0]))[0] == pytest.approx(1.0)
    assert van_leer(np.array([0.0]))[0] == 0.0
    assert van_leer(np.array([-3.0]))[0] == 0.0
    assert van_leer(np.array([1e9]))[0] == pytest.approx(2.0, rel=1e-6)


@given(st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_van_leer_bounds(r):
    phi = van_leer(np.array([r]))[0]
    assert 0.0 <= phi <= 2.0
    # symmetric property phi(r)/r == phi(1/r) for positive r
    if r > 1e-6:
        assert phi / r == pytest.approx(van_leer(np.array([1.0 / r]))[0],
                                        rel=1e-9)


def test_bj_unconstrained_when_within_bounds():
    phi = np.array([1.0])
    alpha = barth_jespersen(phi, np.array([0.0]), np.array([2.0]),
                            np.array([[0.5], [-0.5]]))
    assert alpha[0] == 1.0


def test_bj_limits_overshoot():
    phi = np.array([1.0])
    # increment of +2 but max bound 1.5 -> alpha = 0.25
    alpha = barth_jespersen(phi, np.array([0.5]), np.array([1.5]),
                            np.array([[2.0]]))
    assert alpha[0] == pytest.approx(0.25)


def test_bj_limits_undershoot():
    phi = np.array([1.0])
    alpha = barth_jespersen(phi, np.array([0.9]), np.array([2.0]),
                            np.array([[-1.0]]))
    assert alpha[0] == pytest.approx(0.1)


def test_bj_zero_increment_no_constraint():
    alpha = barth_jespersen(np.array([1.0]), np.array([1.0]),
                            np.array([1.0]), np.array([[0.0], [0.0]]))
    assert alpha[0] == 1.0


@given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=3, max_size=3),
       st.floats(0.1, 5.0))
@settings(max_examples=80, deadline=None)
def test_bj_reconstruction_stays_in_bounds(ds, spread):
    """Property: φ + α d never leaves [φmin, φmax]."""
    phi = np.array([1.0])
    phi_min = np.array([1.0 - spread])
    phi_max = np.array([1.0 + spread])
    d = np.array(ds)[:, None]           # (npoints, ncell)
    alpha = barth_jespersen(phi, phi_min, phi_max, d)
    recon = phi[0] + alpha[0] * d[:, 0]
    assert np.all(recon >= phi_min[0] - 1e-12)
    assert np.all(recon <= phi_max[0] + 1e-12)
    assert 0.0 <= alpha[0] <= 1.0
