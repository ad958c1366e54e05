"""Quadrature reference solver: silence, convergence reporting, scalar limit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wavezones import oracle
from wavezones.errors import NoConvergence
from wavezones.model import DEFAULT_PARAMS, WaveguideParams, validate
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
    return oracle._panels(t, x, p)[2]


def _count_samples(monkeypatch):
    """Sizes of the frequency tables the oracle computes, one entry per block."""
    counted = []
    tables = oracle._tables
    monkeypatch.setattr(oracle, "_tables", lambda w, p: counted.append(w.size) or tables(w, p))
    return counted


def test_return_info_counts_samples(monkeypatch):
    # nested doubling: one doubling evaluates the finest grid once,
    # (2 n1 + 1) + (2 n2 + 1) samples; evaluating the base grid and the
    # doubled grid separately would take (n1 + 1) + (n2 + 1) more
    counted = _count_samples(monkeypatch)
    _, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    (_, _, n1), (_, _, n2) = _base_intervals(20.0, 24.0, DEFAULT_PARAMS)
    assert info["doublings"] == 1
    assert info["batch"] == 1
    assert info["samples"] == (2 * n1 + 1) + (2 * n2 + 1)
    assert sum(counted) == info["samples"]


def _integrand(omega, t, x, p):
    """Modal integrand at the frequencies omega, shape (2, n), from the oracle's tables."""
    return sum(h * np.exp(ik * x - 1j * omega * t) for ik, h in oracle._tables(omega, p))


def _one_shot(t, x, p, doublings):
    """Plain trapezoid of the modal integrand on the point's grid after the
    given number of doublings, with the oracle's eps, w_max and tail."""
    eps, _, panels = oracle._panels(t, x, p)
    raw = oracle._tail_correction(panels[-1][1] + 1j * eps, t, x, p)
    for lo, hi, n in panels:
        n <<= doublings
        h = (hi - lo) / n
        for j0 in range(0, n + 1, 1 << 16):
            j = np.arange(j0, min(j0 + (1 << 16), n + 1))
            wgt = np.where((j == 0) | (j == n), 0.5, 1.0)
            raw = raw + h * (_integrand(lo + h * j + 1j * eps, t, x, p) @ wgt)
    return 2.0 * np.real(raw * (1j / (2.0 * math.pi)))


@pytest.mark.parametrize("t, x", [(20.0, 24.0), (30.0, 66.0)])
def test_nested_blocks_equal_one_shot_trapezoid(t, x):
    # interior and silent (x > c1 t) point: the nested, blocked sums are the
    # plain trapezoid rule on the finest grid reached, with the same tail.
    # The silent value is a cancellation ~1e-20, so it is held to the field
    # scale of the interior point, max|u| = 0.0287, and, looser, to its own size
    u, info = field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True)
    ref = _one_shot(t, x, DEFAULT_PARAMS, info["doublings"])
    assert np.max(np.abs(u - ref)) <= 1e-12 * 0.0287
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def _mu(mu):
    return validate(WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=mu))


#: (params, t, x): interior points at the floor density and above it, near
#: the front (V = 1.81, 1.95), silent before the impulse and beyond c1
#: (V = 2.001 is loud: eps = 10 barely damps it), and weak and strong coupling
ACCURACY = [
    (DEFAULT_PARAMS, 20.0, 24.0), (DEFAULT_PARAMS, 60.0, 60.0),
    (DEFAULT_PARAMS, 150.0, 100.0), (DEFAULT_PARAMS, 220.0, 300.0),
    (DEFAULT_PARAMS, 60.0, 108.6), (DEFAULT_PARAMS, 40.0, 78.0),
    (DEFAULT_PARAMS, -5.0, 10.0), (DEFAULT_PARAMS, 30.0, 66.0), (DEFAULT_PARAMS, 50.0, 100.05),
    (_mu(0.05), 60.0, 60.0), (_mu(1.2), 60.0, 60.0), (_mu(1.2), 40.0, 76.0),
]


@pytest.mark.parametrize("p, t, x", ACCURACY, ids=[f"mu{p.mu}-{t}-{x}" for p, t, x in ACCURACY])
def test_value_within_tolerance_of_a_four_times_denser_trapezoid(p, t, x):
    # an error check that does not rest on the Richardson estimate: the
    # returned value against one plain trapezoid at 4x the final density
    u, info = field_modal_integral(t, x, p, return_info=True)
    ref = _one_shot(t, x, p, info["doublings"] + 2)
    assert np.max(np.abs(u - ref)) <= max(oracle._TOL * np.max(np.abs(u)), oracle._ABS_FLOOR)


def test_interior_points_refine_to_4800_per_unit_at_least():
    # the coarser start keeps the finest reachable interior density
    ppu = oracle._panels(20.0, 24.0, DEFAULT_PARAMS)[1]
    assert ppu * 2**oracle._MAX_REFINEMENT == 4800.0
    for t, x in [(150.0, 100.0), (220.0, 300.0), (40.0, 78.0)]:
        ppu = oracle._panels(t, x, DEFAULT_PARAMS)[1]
        assert ppu * 2**oracle._MAX_REFINEMENT >= 24.0 * (x / DEFAULT_PARAMS.c2 + t)


def test_field_grid_falls_on_few_quadrature_grids():
    # the density and silent eps ladders let the 6x5 field grid share tables
    grids = set()
    for t in np.linspace(30.0, 220.0, 6):
        for V in np.linspace(0.65, 2.2, 5):
            eps, _, panels = oracle._panels(t, V * t, DEFAULT_PARAMS)
            grids.add((eps, panels))
    assert len(grids) <= 10


def test_unmet_tolerance_raises_after_every_doubling(monkeypatch):
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 0.0)
    counted = _count_samples(monkeypatch)
    with pytest.raises(NoConvergence) as err:
        field_modal_integral(20.0, 24.0, DEFAULT_PARAMS)
    assert math.isfinite(err.value.achieved) and err.value.achieved > 0.0
    d = oracle._MAX_REFINEMENT
    assert sum(counted) == sum((n << d) + 1 for _, _, n in _base_intervals(20.0, 24.0, DEFAULT_PARAMS))


#: floor-density interior points on one quadrature grid, above-floor interior
#: points, silent points beyond the front (x > c1 t) and before the impulse
MIXED = [(20.0, 24.0), (20.0, 10.0), (40.0, 60.0), (220.0, 300.0), (150.0, 100.0),
         (30.0, 66.0), (10.0, 30.0), (-5.0, 10.0), (-2.0, 2.0)]


def _columns(points):
    return np.array([t for t, _ in points]), np.array([x for _, x in points])


def test_array_call_matches_scalar_calls(monkeypatch):
    tables, kernel = _count_samples(monkeypatch), []
    modal_sum = oracle._modal_sum
    monkeypatch.setattr(oracle, "_modal_sum", lambda tb, w, *a: kernel.append(w.size) or modal_sum(tb, w, *a))
    u, info = field_modal_integral(*_columns(MIXED), DEFAULT_PARAMS, return_info=True)
    assert u.shape == (len(MIXED), 2) and u.dtype.kind == "f"
    # the three floor-density interior points share one grid, and so do
    # (30, 66) and (-2, 2) (eps 10 at the floor density): one set of tables
    # per grid, while every point evaluates its integrand on all its samples
    assert [i["batch"] for i in info] == [3, 3, 3, 1, 1, 2, 1, 1, 2]
    grids = {}
    for (t, x), row in zip(MIXED, info):
        eps, _, panels = oracle._panels(t, x, DEFAULT_PARAMS)
        grids[eps, panels] = max(grids.get((eps, panels), 0), row["samples"])
    assert sum(tables) == sum(grids.values())
    assert sum(kernel) == sum(i["samples"] for i in info)
    singles = [field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True) for t, x in MIXED]
    ref = np.array([v for v, _ in singles])
    scale = np.max(np.abs(ref[:5]))
    assert np.max(np.abs(u - ref)) <= 1e-13 * scale
    for row, (_, single) in zip(info, singles):
        assert {**row, "batch": 1} == single


def test_points_of_one_grid_stop_at_their_own_level(monkeypatch):
    # with the absolute floor alone, these floor-density points first meet it
    # after 2, 3 and 4 doublings (Richardson estimates of 7.7e-8, 5.5e-8 and
    # 1.4e-7 at the first doubling, then falling 4x per doubling from 1.4e-9,
    # 8.0e-9 and 1.6e-8): each keeps its own stopping level
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 2.5e-9)
    points = [(20.0, 24.0), (20.0, 10.0), (60.0, 60.0)]
    u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    assert [i["doublings"] for i in info] == [2, 3, 4]
    assert [i["batch"] for i in info] == [3, 3, 3]
    for row, (t, x) in zip(u, points):
        assert np.array_equal(row, field_modal_integral(t, x, DEFAULT_PARAMS))


def test_unmet_tolerance_reported_per_point(monkeypatch):
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 0.0)
    points = [(20.0, 24.0), (20.0, 10.0), (-5.0, 10.0)]
    u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    assert u.shape == (3, 2) and np.all(np.isnan(u))
    for row in info:
        assert isinstance(row["error"], NoConvergence)
        assert math.isfinite(row["error"].achieved) and row["error"].achieved == row["richardson"]
        assert row["doublings"] == oracle._MAX_REFINEMENT


def test_array_call_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        field_modal_integral(np.array([20.0, 30.0]), np.array([24.0]), DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        field_modal_integral(np.array([20.0, 30.0]), np.array([24.0, -1.0]), DEFAULT_PARAMS)


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
