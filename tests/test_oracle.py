"""Quadrature reference solver: silence, convergence reporting, scalar limit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavezones import oracle
from wavezones.model import DEFAULT_PARAMS, WaveguideParams, crossing_point, validate
from wavezones.oracle import (
    field_modal_integral,
    j_int_quadrature,
    scalar_kg_exact,
    scalar_kg_far,
)


def test_frozen_reference_point():
    u = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS)
    assert u.shape == (2,)
    assert u.dtype.kind == "f"
    assert u[0] == pytest.approx(0.02873566377564936, abs=1e-8)
    assert u[1] == pytest.approx(0.00470814208695972, abs=1e-8)


def test_return_info_reports_convergence():
    u, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    assert info["richardson"] < 1e-6
    assert info["epsilon"] > 0.0
    assert info["omega_max"] > 10.0


def test_silent_before_switch_on():
    for t in (-20.0, -1.0, -0.01):
        u = field_modal_integral(t, 30.0, DEFAULT_PARAMS)
        assert np.max(np.abs(u)) < 1e-10


def test_silent_outside_front():
    # V = x/t above the faster speed: exponentially small once the front
    # has passed a few widths beyond the observation point
    u = field_modal_integral(30.0, 30.0 * 2.2, DEFAULT_PARAMS)
    assert np.max(np.abs(u)) < 1e-8


def test_controls_are_honoured(monkeypatch):
    # the contour height is a numerical knob: another height, same value
    monkeypatch.setattr(oracle, "_auto_epsilon", lambda t, x, c1: 0.002)
    u, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    assert info["epsilon"] == 0.002
    assert u[0] == pytest.approx(0.02873566377564936, abs=1e-6)


def test_scalar_exact_frozen():
    assert scalar_kg_exact(20.0, 12.0, 2.0, 3.0) == pytest.approx(-0.026234040321450672, abs=1e-14)
    assert scalar_kg_exact(5.0, 12.0, 2.0, 3.0) == 0.0


def test_scalar_far_matches_exact_deep_inside_cone():
    c, Om = 2.0, 3.0
    t, x = 400.0, 320.0
    assert scalar_kg_far(t, x, c, Om) == pytest.approx(scalar_kg_exact(t, x, c, Om), rel=2e-3)


def test_decoupled_limit_matches_scalar_closed_form():
    # mu -> 0: component 1 must collapse onto the single-line closed form
    p = validate(WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=0.0))
    t, x = 25.0, 20.0
    u = field_modal_integral(t, x, p)
    assert u[0] == pytest.approx(scalar_kg_exact(t, x, 2.0, 3.0), abs=2e-7)
    assert abs(u[1]) < 1e-9


def test_j_int_quadrature_component_structure():
    x = 58.0
    t = x / 1.465141  # mid-wedge ray
    j = j_int_quadrature(t, x, DEFAULT_PARAMS)
    # the crossing amplitude points along component 2 only
    assert abs(j[0]) < 1e-12
    assert j[1] == pytest.approx(0.0032504099 - 0.0024207154j, abs=1e-8)


@given(st.floats(min_value=2.0, max_value=40.0), st.floats(min_value=0.3, max_value=1.9))
@settings(max_examples=10)
def test_field_is_finite_and_real(t, V):
    u = field_modal_integral(t, t * V, DEFAULT_PARAMS)
    assert np.all(np.isfinite(u))
    assert u.dtype.kind == "f"
