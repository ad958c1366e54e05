"""Quadrature reference solver: silence, convergence reporting, scalar limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavezones import oracle
from wavezones.errors import NoConvergence
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


def _base_intervals(t, x, p):
    """The oracle's (lo, hi, intervals) of both panels before any doubling."""
    cp = crossing_point(p)
    w_split = max(8.0, 1.2 * cp.omega_c)
    w_max = max(50.0 * cp.omega_c, w_split + 20.0)
    ppu = max(600.0, 3.0 * (x / p.c2 + abs(t)))
    return [
        (0.0, w_split, max(64, int(4.0 * ppu * w_split))),
        (w_split, w_max, max(64, int(ppu * (w_max - w_split)))),
    ]


def _count_samples(monkeypatch):
    counted = []
    modal_sum = oracle._modal_sum
    monkeypatch.setattr(oracle, "_modal_sum", lambda w, *a: counted.append(w.size) or modal_sum(w, *a))
    return counted


def test_return_info_counts_samples(monkeypatch):
    # nested doubling: one doubling evaluates the finest grid once,
    # (2 n1 + 1) + (2 n2 + 1) samples; evaluating the base grid and the
    # doubled grid separately would take (n1 + 1) + (n2 + 1) more
    counted = _count_samples(monkeypatch)
    _, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    (_, _, n1), (_, _, n2) = _base_intervals(20.0, 24.0, DEFAULT_PARAMS)
    assert info["doublings"] == 1
    assert info["samples"] == (2 * n1 + 1) + (2 * n2 + 1)
    assert sum(counted) == info["samples"]


@pytest.mark.parametrize("t, x", [(20.0, 24.0), (30.0, 66.0)])
def test_nested_blocks_equal_one_shot_trapezoid(t, x):
    # interior and silent (x > c1 t) point: the nested, blocked sums are the
    # plain trapezoid rule on the finest grid reached, with the same tail.
    # The silent value is a cancellation ~1e-20, so it is held to the field
    # scale of the interior point, max|u| = 0.0287, and, looser, to its own size
    u, info = field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True)
    eps, w_max, d = info["epsilon"], info["omega_max"], info["doublings"]
    raw = oracle._tail_correction(w_max + 1j * eps, t, x, DEFAULT_PARAMS)
    for lo, hi, n in _base_intervals(t, x, DEFAULT_PARAMS):
        n <<= d
        h = (hi - lo) / n
        wgt = np.ones(n + 1)
        wgt[[0, -1]] = 0.5
        raw = raw + h * (oracle._modal_sum(lo + h * np.arange(n + 1) + 1j * eps, x, t, DEFAULT_PARAMS) @ wgt)
    ref = 2.0 * np.real(raw * (1j / (2.0 * math.pi)))
    assert np.max(np.abs(u - ref)) <= 1e-12 * 0.0287
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_unmet_tolerance_raises_after_every_doubling(monkeypatch):
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 0.0)
    counted = _count_samples(monkeypatch)
    with pytest.raises(NoConvergence) as err:
        field_modal_integral(20.0, 24.0, DEFAULT_PARAMS)
    assert math.isfinite(err.value.achieved) and err.value.achieved > 0.0
    d = oracle._MAX_REFINEMENT
    assert sum(counted) == sum((n << d) + 1 for _, _, n in _base_intervals(20.0, 24.0, DEFAULT_PARAMS))


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
