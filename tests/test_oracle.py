"""Quadrature reference solver: silence, convergence reporting, scalar limit."""

import math
import warnings

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
    # u[0] is 1.4e-10 off an independent reference, 0.0287356469549: the
    # integrand without the subtraction, cut at 8 w_max, two more doublings
    u = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS)
    assert u.shape == (2,)
    assert u.dtype.kind == "f"
    assert u[0] == pytest.approx(0.02873564642655081, abs=1e-8)
    assert u[1] == pytest.approx(0.00470814208695972, abs=1e-8)


def test_return_info_reports_convergence():
    u, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    assert info["richardson"] < 1e-6
    assert info["epsilon"] > 0.0
    assert info["omega_max"] > 10.0


def _base_intervals(t, x, p):
    """The oracle's (lo, hi, intervals) of every panel of the point before any
    doubling, the last one ending at the point's cutoff."""
    grid = oracle._panels(t, x, p)
    panels = grid[2]
    (m,), (L,) = oracle._cutoffs([(t, x)], [grid], p)
    return panels[:-1] + ((panels[-1][0], L, m),)


def _finest(panels, doublings):
    """Samples of the panels (lo, hi, n) after the doublings; an empty panel has none."""
    return sum((n << doublings) + 1 for _, _, n in panels if n)


def _count_samples(monkeypatch):
    """Sizes of the frequency tables the oracle computes, one entry per block."""
    counted = []
    tables = oracle._tables
    monkeypatch.setattr(oracle, "_tables", lambda w, p, uncoupled=False: counted.append(w.size) or tables(w, p, uncoupled))
    return counted


def test_return_info_counts_samples(monkeypatch):
    # nested doubling: one doubling evaluates the finest grid once,
    # (2 n1 + 1) + (2 n2 + 1) + (2 n3 + 1) samples over the three panels;
    # evaluating the base grid and the doubled grid separately would take
    # (n1 + 1) + (n2 + 1) + (n3 + 1) more
    counted = _count_samples(monkeypatch)
    _, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    (_, _, n1), (_, _, n2), (_, _, n3) = _base_intervals(20.0, 24.0, DEFAULT_PARAMS)
    assert info["doublings"] == 1
    assert info["batch"] == 1
    assert min(n1, n2, n3) > 0
    assert info["samples"] == (2 * n1 + 1) + (2 * n2 + 1) + (2 * n3 + 1)
    assert sum(counted) == info["samples"]


def _integrand(omega, t, x, p):
    """Coupled minus uncoupled modal integrand at the frequencies omega,
    shape (2, n), from the oracle's tables."""
    return sum(h * np.exp(ik * x - 1j * omega * t) for ik, h in oracle._tables(omega, p))


def _one_shot(t, x, p, doublings, full=False):
    """Trapezoid of the difference integrand on the point's grid up to its
    cutoff (with full, up to w_max) after the given number of doublings,
    with the oracle's eps, tail and Euler-Maclaurin terms at w_split, W and
    L, plus the mu = 0 closed form."""
    eps, _, panels = oracle._panels(t, x, p)
    if not full:
        panels = _base_intervals(t, x, p)
    (_, w_split, n_in), (_, W, n_mid), (_, L, n_far) = panels
    _, slope, tail = oracle._ends(np.array([w_split, W, L]) + 1j * eps, t, x, p)
    h_in, h_mid = w_split / (n_in << doublings), (W - w_split) / (n_mid << doublings)
    h_far = (L - W) / (n_far << doublings) if n_far else 0.0
    raw = tail[2] - ((h_in**2 - h_mid**2) * slope[0] + h_mid**2 * slope[1] + h_far**2 * (slope[2] - slope[1])) / 12.0
    for lo, hi, n in panels:
        if not n:
            continue
        n <<= doublings
        h = (hi - lo) / n
        for j0 in range(0, n + 1, 1 << 16):
            j = np.arange(j0, min(j0 + (1 << 16), n + 1))
            wgt = np.where((j == 0) | (j == n), 0.5, 1.0)
            raw = raw + h * (_integrand(lo + h * j + 1j * eps, t, x, p) @ wgt)
    return oracle._closed_form(t, x, p) + 2.0 * np.real(raw * (1j / (2.0 * math.pi)))


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
#: (V = 2.001 is barely beyond: eps = 10 damps it by e^{-0.25} only, and its
#: cutoff sits at w_max), and weak and strong coupling; then the points where
#: the coarse start moves the error most: the 6x5 window's (220, 143) and
#: (182, 188.825), the default window's (500, 403.8), and (400, 300), whose
#: eps is a rung below 1e-3 (before the Euler-Maclaurin term at w_split
#: they read 0.14, 0.06, 0.44 and 0.04 of the tolerance; with it 0.0005,
#: 0.0005, 0.0019 and under 0.0001; with the start at 0.53 per unit of phase
#: rate 0.0005, 0.0005, 0.0001 and 0.015)
ACCURACY = [
    (DEFAULT_PARAMS, 20.0, 24.0), (DEFAULT_PARAMS, 60.0, 60.0),
    (DEFAULT_PARAMS, 150.0, 100.0), (DEFAULT_PARAMS, 220.0, 300.0),
    (DEFAULT_PARAMS, 60.0, 108.6), (DEFAULT_PARAMS, 40.0, 78.0),
    (DEFAULT_PARAMS, -5.0, 10.0), (DEFAULT_PARAMS, 30.0, 66.0), (DEFAULT_PARAMS, 50.0, 100.05),
    (_mu(0.05), 60.0, 60.0), (_mu(1.2), 60.0, 60.0), (_mu(1.2), 40.0, 76.0),
    (DEFAULT_PARAMS, 220.0, 143.0), (DEFAULT_PARAMS, 182.0, 188.825),
    (DEFAULT_PARAMS, 500.0, 403.8), (DEFAULT_PARAMS, 400.0, 300.0),
]


@pytest.mark.parametrize("p, t, x", ACCURACY, ids=[f"mu{p.mu}-{t}-{x}" for p, t, x in ACCURACY])
def test_value_within_tolerance_of_a_four_times_denser_trapezoid(p, t, x):
    # an error check that does not rest on the Richardson estimate: the
    # returned value against one plain trapezoid at 4x the final density
    u, info = field_modal_integral(t, x, p, return_info=True)
    ref = _one_shot(t, x, p, info["doublings"] + 2)
    assert np.max(np.abs(u - ref)) <= max(oracle._TOL * np.max(np.abs(u)), oracle._ABS_FLOOR)


def test_cutoff_grows_towards_a_front_and_stops_at_w_max():
    # deep inside the cone the lowest rung (w_max 2^-3.5 = 22.6) suffices;
    # on the ray V = 1.8125, just beyond the c2 front, the slow root's phase
    # rate x/c2 - t shrinks with t and the cutoff climbs to w_max at t = 30;
    # just beyond the c1 front no rung qualifies
    w_max = oracle._panels(60.0, 60.0, DEFAULT_PARAMS)[2][-1][1]
    cutoff = lambda t, x: _base_intervals(t, x, DEFAULT_PARAMS)[-1][1]
    assert cutoff(60.0, 60.0) < w_max / 8
    # (the rungs are rounded up to nodes of each point's far panel)
    front = [round(cutoff(t, 1.8125 * t), 2) for t in (220.0, 144.0, 106.0, 68.0, 30.0)]
    assert front == sorted(front) and front[0] < front[-1] == round(w_max, 2)
    assert cutoff(50.0, 100.05) == w_max


@pytest.mark.parametrize("t, x", [(20.0, 24.0), (60.0, 60.0), (60.0, 108.6), (40.0, 78.0)])
def test_truncation_at_the_cutoff_within_the_tail_bound(t, x):
    # the cutoff's promise: the same trapezoid run on to w_max moves the value
    # by less than the bound on the tail estimate (5.5e-9, 6.7e-9, 3.3e-9 and
    # 4.7e-10 measured at cutoffs 45, 23, 181 and 128)
    d = field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True)[1]["doublings"]
    short, full = _one_shot(t, x, DEFAULT_PARAMS, d), _one_shot(t, x, DEFAULT_PARAMS, d, full=True)
    assert np.max(np.abs(short - full)) <= oracle._TAIL_BOUND


def test_interior_points_refine_to_19200_per_unit_at_the_floor_and_24_per_unit_of_rate():
    # the coarse start keeps the finest reachable interior density: 19200/unit
    # at the floor, and 24 per unit of phase rate above it (0.75 / sqrt(2)
    # samples per unit of rate, doubled 6 times, is 34)
    ppu = oracle._panels(20.0, 24.0, DEFAULT_PARAMS)[1]
    assert ppu * 2**oracle._MAX_REFINEMENT == 19200.0
    for t, x in [(150.0, 100.0), (220.0, 300.0), (40.0, 78.0), (220.0, 400.0), (500.0, 403.8), (350.0, 650.0)]:
        ppu = oracle._panels(t, x, DEFAULT_PARAMS)[1]
        assert ppu * 2**oracle._MAX_REFINEMENT >= 24.0 * (x / DEFAULT_PARAMS.c2 + t)


def test_field_grid_falls_on_few_quadrature_grids():
    # the window's interior points all start at the floor density and its
    # silent points all take eps 10: the 6x5 field grid shares its inner and
    # middle tables, the sets that hold most of its table samples, on two
    # grids (each far density adds only a small table)
    grids = set()
    for t in np.linspace(30.0, 220.0, 6):
        for V in np.linspace(0.65, 2.2, 5):
            eps, _, panels = oracle._panels(t, V * t, DEFAULT_PARAMS)
            grids.add((eps, panels[:-1]))
    assert len(grids) == 2


def test_field_grid_window_takes_at_most_1_3_million_samples():
    # the 6x5 window of `wavezones field`: run to w_max, its points would take
    # 6,034,014 integrand samples; the subtraction lets most stop near 23
    # (1,643,130), and the coarse start at 0.75 samples per unit of phase
    # rate puts 23 of the 30 points on one grid at the floor (1,196,766);
    # with the Euler-Maclaurin end terms and the start at 0.53 per unit, all
    # 24 interior points are on it (764,895 measured)
    t = np.repeat(np.linspace(30.0, 220.0, 6), 5)
    V = np.tile(np.linspace(0.65, 2.2, 5), 6)
    _, info = field_modal_integral(t, V * t, DEFAULT_PARAMS, return_info=True)
    assert all(row["error"] is None for row in info)
    assert sum(row["samples"] for row in info) <= 1_300_000


def test_front_column_samples_its_tail_at_its_phase_rate():
    # the window's V = 1.8125 column, just beyond the c2 front, has cutoffs up
    # to w_max, but above W its roots' phase rates are small: its far panels
    # are coarse (224,452 samples measured; 615,702 at one density throughout)
    t = np.linspace(30.0, 220.0, 6)
    _, info = field_modal_integral(t, 1.8125 * t, DEFAULT_PARAMS, return_info=True)
    assert all(row["error"] is None for row in info)
    assert sum(row["samples"] for row in info) <= 250_000


#: parameter sets on which the far panel's rate bound is checked; the last
#: three pass validate with an UnsupportedRegime warning (v_fast >= c2), which
#: concerns the zone classification, not the oracle
FAR_BOUND = [
    _mu(0.05), _mu(0.5), _mu(1.0), _mu(1.2),
    WaveguideParams(c1=2.0, c2=1.0, omega1=3.0, omega2=3.5, mu=0.5),
    WaveguideParams(c1=3.0, c2=1.0, omega1=3.0, omega2=3.5, mu=2.0),
    WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=6.0, mu=5.0),
]


@pytest.mark.parametrize("p", FAR_BOUND, ids=[f"c{p.c1}-{p.c2}-w{p.omega2}-mu{p.mu}" for p in FAR_BOUND])
def test_tables_slopes_fall_from_w_to_speed_limit(p):
    # every root of the tables has dk/domega non-increasing on [W, w_max],
    # between 1/c_r and its value at W, and the slopes _frame samples hold it
    # on a 4000-node sample: so |x dk/domega - t| is at most R there
    _, W, w_max, (lo, hi) = oracle._frame(p)
    omega = np.geomspace(W, w_max, 4000)
    layers = oracle._layers(p)
    # the coupled roots pair with the layers in order, then one uncoupled
    # root per forced layer
    speeds = [c for c, _, _ in layers] + [c for c, _, f in layers if f != 0.0]
    roots = [(np.real(dk), c) for (_, _, dk), c in zip(oracle._modes(omega, p, slopes=True), speeds, strict=True)]
    for kp, c in roots:
        assert np.all(np.diff(kp) <= 1e-15)
        assert np.all(kp >= (1.0 - 1e-12) / c)
        assert lo <= kp.min() and kp.max() <= hi
    assert lo == min(1.0 / c for c, _, _ in layers)
    assert hi == pytest.approx(max(kp[0] for kp, _ in roots), rel=1e-12)


def test_unmet_tolerance_raises_after_every_doubling(monkeypatch):
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 0.0)
    counted = _count_samples(monkeypatch)
    with pytest.raises(NoConvergence) as err:
        field_modal_integral(20.0, 24.0, DEFAULT_PARAMS)
    assert math.isfinite(err.value.achieved) and err.value.achieved > 0.0
    d = oracle._MAX_REFINEMENT
    assert sum(counted) == _finest(_base_intervals(20.0, 24.0, DEFAULT_PARAMS), d)


#: floor-density interior points on one quadrature grid, an interior point
#: at the floor density one eps rung lower (300, 250), an above-floor one
#: (424/unit) at that eps (300, 500), silent points beyond the front
#: (x > c1 t) and before the impulse
MIXED = [(20.0, 24.0), (20.0, 10.0), (40.0, 60.0), (220.0, 400.0), (300.0, 250.0), (300.0, 500.0),
         (30.0, 66.0), (10.0, 30.0), (-5.0, 10.0), (-2.0, 2.0)]


def _columns(points):
    return np.array([t for t, _ in points]), np.array([x for _, x in points])


def test_array_call_matches_scalar_calls(monkeypatch):
    tables, kernel = _count_samples(monkeypatch), []
    chain = oracle._chain
    monkeypatch.setattr(oracle, "_chain", lambda tb, w, run, ms: kernel.append(sum(ms)) or chain(tb, w, run, ms))
    u, info = field_modal_integral(*_columns(MIXED), DEFAULT_PARAMS, return_info=True)
    assert u.shape == (len(MIXED), 2) and u.dtype.kind == "f"
    # the four floor-density interior points at eps 1e-3 share their inner
    # and middle panels, and so do the four silent points (eps 10 at 75/unit):
    # one table per (eps, panel), far panels included, while every point
    # evaluates its integrand on all its samples
    assert [i["batch"] for i in info] == [4, 4, 4, 4, 1, 1, 4, 4, 4, 4]
    grids = {}
    for (t, x), row in zip(MIXED, info):
        eps, _, panels = oracle._panels(t, x, DEFAULT_PARAMS)
        for key, cut in zip(enumerate(panels), _base_intervals(t, x, DEFAULT_PARAMS)):
            grids[eps, key] = max(grids.get((eps, key), 0), _finest([cut], row["doublings"]))
    assert sum(tables) == sum(grids.values())
    assert sum(kernel) == sum(i["samples"] for i in info)
    singles = [field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True) for t, x in MIXED]
    ref = np.array([v for v, _ in singles])
    scale = np.max(np.abs(ref[:6]))
    assert np.max(np.abs(u - ref)) <= 1e-13 * scale
    for row, (_, single) in zip(info, singles):
        assert {**row, "batch": 1} == single


#: the 6x5 window of `wavezones field`, in the order it calls the oracle in:
#: column by column (V, then t)
WINDOW = [(t, V * t) for V in np.linspace(0.65, 2.2, 5) for t in np.linspace(30.0, 220.0, 6)]


def _record_runs(monkeypatch):
    """(points, per-point sample counts) of every call of the chain kernel."""
    runs, chain = [], oracle._chain

    def record(tables, iomega, run, ms):
        runs.append((tuple(run), tuple(int(m) for m in ms)))
        return chain(tables, iomega, run, ms)

    monkeypatch.setattr(oracle, "_chain", record)
    return runs


def _matches_scalar_calls(points, u, info):
    """The array call's values within 1e-13 of scale of per-point scalar
    calls, and its info dicts equal theirs apart from batch and, within the
    same 1e-13 of scale, the Richardson estimate."""
    singles = [field_modal_integral(t, x, DEFAULT_PARAMS, return_info=True) for t, x in points]
    ref = np.array([v for v, _ in singles])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(u - ref)) <= 1e-13 * scale
    for row, (_, single) in zip(info, singles):
        assert abs(row["richardson"] - single["richardson"]) <= 1e-13 * scale
        assert {**row, "batch": 1, "richardson": 0.0} == {**single, "richardson": 0.0}


def test_window_in_column_order_chains_each_column_of_a_grid(monkeypatch):
    # the window's 24 interior points share the floor grid's inner and
    # middle tables, and its 6 silent points the silent grid's; in column
    # order each column is one run on its grid, whose phase factors cost two
    # exponentials per root and block
    runs = _record_runs(monkeypatch)
    u, info = field_modal_integral(*_columns(WINDOW), DEFAULT_PARAMS, return_info=True)
    grids = {oracle._panels(*p, DEFAULT_PARAMS)[:2] for p in WINDOW}
    assert grids == {oracle._panels(20.0, 24.0, DEFAULT_PARAMS)[:2], (10.0, 75.0)}
    columns = [tuple(WINDOW[i:i + 6]) for i in range(0, 30, 6)]
    assert all(len({oracle._panels(*p, DEFAULT_PARAMS)[:2] for p in c}) == 1 for c in columns)
    chained = {run for run, _ in runs if len(run) > 1}
    assert chained == set(columns)
    _matches_scalar_calls(WINDOW, u, info)


def test_silent_points_share_one_contour_height_and_chain(monkeypatch):
    # a larger eps only deepens a silent point's e^{-eps * slack}, so every
    # silent point, before the impulse or beyond the c1 front, at any slack,
    # takes eps = 10; the window's V = 2.2 column then shares one table set
    # and chains as one run
    c1 = DEFAULT_PARAMS.c1
    for t, x in [(-50.0, 0.0), (-5.0, 10.0), (-1e-3, 0.0), (0.0, 0.0), (0.0, 5.0),
                 (50.0, 100.05), (30.0, 66.0), (220.0, 484.0), (10.0, 1e4)]:
        assert oracle._panels(t, x, DEFAULT_PARAMS)[0] == 10.0
    column = [p for p in WINDOW if p[1] >= c1 * p[0]]
    assert len(column) == 6
    runs = _record_runs(monkeypatch)
    _, info = field_modal_integral(*_columns(column), DEFAULT_PARAMS, return_info=True)
    assert {oracle._panels(*p, DEFAULT_PARAMS)[:2] for p in column} == {(10.0, 75.0)}
    assert [row["batch"] for row in info] == [6] * 6
    assert tuple(column) in {run for run, _ in runs}


def test_column_across_density_and_eps_rungs_splits_into_one_run_per_grid(monkeypatch):
    # on V = 1.9 the interior eps steps down a rung above t = 250 and the
    # density up a rung above t = 275.2: t = 240-300 falls on three grids
    points = [(t, 1.9 * t) for t in np.arange(240.0, 301.0, 5.0)]
    runs = _record_runs(monkeypatch)
    u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    grid = lambda p: oracle._panels(*p, DEFAULT_PARAMS)[:2]
    groups = {}
    for p in points:
        groups.setdefault(grid(p), []).append(p)
    assert sorted(len(g) for g in groups.values()) == [3, 5, 5]
    chained = {run for run, _ in runs if len(run) > 1}
    assert {tuple(g) for g in groups.values()} <= chained
    # every run lies on one table, (eps, panel); a far panel, set by the
    # tail's phase rate, is shared across the two densities of one eps
    tables = lambda p: {(eps, i, panel) for eps, _, panels in [oracle._panels(*p, DEFAULT_PARAMS)] for i, panel in enumerate(panels)}
    assert all(set.intersection(*map(tables, run)) for run in chained)
    assert any(len({grid(p) for p in run}) > 1 for run in chained)
    _matches_scalar_calls(points, u, info)


def test_run_members_stop_at_their_own_cutoff(monkeypatch):
    # at t = 200, x = 338, 340 and 342 share every panel, but the last
    # point's cutoff is higher: the far run chains on past the first two
    # points' count, and each point sums its far samples up to its own
    points = [(200.0, 338.0), (200.0, 340.0), (200.0, 342.0)]
    runs = _record_runs(monkeypatch)
    u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    assert [row["omega_max"] for row in info][1:] != [info[0]["omega_max"]] * 2
    assert any(ms[0] == ms[1] < ms[2] for run, ms in runs if len(run) == 3)
    _matches_scalar_calls(points, u, info)


def test_descending_row_chains_from_its_smallest_x(monkeypatch):
    # t = 350, x = 650, 560, 470, all on one grid (eps 1e-3 / sqrt(2),
    # 424/unit): at the lowest frequencies e^{-Im k x} underflows at x = 650,
    # so a chain started there would grow a zero by the step e^{Im k 90}; it
    # starts at x = 470
    points = [(350.0, 650.0), (350.0, 560.0), (350.0, 470.0)]
    eps = 1e-3 / 2**0.5
    assert {oracle._panels(*p, DEFAULT_PARAMS)[:2] for p in points} == {(eps, 300.0 * 2**0.5)}
    lowest = oracle._tables(np.array([eps * 1j]), DEFAULT_PARAMS)
    assert min(abs(np.exp(ik[0] * 650.0)) for ik, _ in lowest) == 0.0
    runs = _record_runs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    chained = [run for run, _ in runs if len(run) > 1]
    assert chained and all(run == tuple(points[::-1]) for run in chained)
    _matches_scalar_calls(points, u, info)


def test_chain_takes_each_points_exponential_where_its_step_overflows():
    # per-point exponents 2x - 900: -900, -100 and 700.  The first underflows
    # and the step, e^{800}, is not finite, so the kernel does not chain; it
    # sums each point's own exponentials, without a warning
    m = 16
    tables = [(np.full(m, 2.0 + 0.5j), np.ones((2, m), dtype=complex))]
    iomega = np.full(m, 1.0 + 0.3j)
    run = [(900.0, 0.0), (900.0, 400.0), (900.0, 800.0)]
    ms = np.array([m, m, m - 4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = oracle._chain(tables, iomega, run, ms)
    for (t, x), n, row in zip(run, ms, got):
        terms = np.exp(tables[0][0][:n] * x - iomega[:n] * t)
        assert np.all(np.isfinite(row))
        assert row == pytest.approx(np.full(2, terms.sum()), rel=1e-13)


def test_points_of_one_grid_stop_at_their_own_level(monkeypatch):
    # with the absolute floor alone, these floor-density points first meet it
    # after 1, 2 and 2 doublings (Richardson estimates of 1.4e-8, 1.2e-7 and
    # 1.5e-7 at the first doubling, then 2.5e-11, 8.1e-11 and 8.8e-11 at the
    # second, falling about 1000x per doubling): they share the inner and
    # middle tables, and each keeps its own stopping level and cutoff
    monkeypatch.setattr(oracle, "_TOL", 0.0)
    monkeypatch.setattr(oracle, "_ABS_FLOOR", 5e-8)
    points = [(15.0, 20.0), (20.0, 24.0), (60.0, 60.0)]
    u, info = field_modal_integral(*_columns(points), DEFAULT_PARAMS, return_info=True)
    assert [i["doublings"] for i in info] == [1, 2, 2]
    assert [i["batch"] for i in info] == [3, 3, 3]
    assert len({i["omega_max"] for i in info}) == 3
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


def test_empty_array_calls_return_no_rows():
    empty = np.array([])
    u, info = field_modal_integral(empty, empty, DEFAULT_PARAMS, return_info=True)
    assert u.shape == (0, 2) and info == []
    assert field_modal_integral(empty, empty, DEFAULT_PARAMS).shape == (0, 2)
    u, info = oracle._uncoupled_quadrature(empty, empty, DEFAULT_PARAMS)
    assert u.shape == (0, 2) and info == []


def test_array_call_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        field_modal_integral(np.array([20.0, 30.0]), np.array([24.0]), DEFAULT_PARAMS)
    with pytest.raises(ValueError):
        field_modal_integral(np.array([20.0, 30.0]), np.array([24.0, -1.0]), DEFAULT_PARAMS)


def test_silent_before_switch_on():
    for t in (-20.0, -1.0, -0.01):
        u = field_modal_integral(t, 30.0, DEFAULT_PARAMS)
        assert np.max(np.abs(u)) < 1e-10


def test_silent_just_beyond_the_front():
    # V = 2.001: by causality u = 0 for x > c1 t.  The integrand's 1/omega
    # front tail, cut at w_max where its phase rate is near 0, gives
    # u1 = -5.0e-3 here unless it is subtracted.  Held to 1e-3 of the field
    # scale of (20, 24)
    u = field_modal_integral(50.0, 100.05, DEFAULT_PARAMS)
    assert np.max(np.abs(u)) <= 1e-3 * 0.0287


def test_tail_is_dropped_where_its_phase_is_stationary():
    # at (50, 100.05) the cutoff is w_max and the c1 roots' phase rate there,
    # about x / c1 - t = 0.025, is under 0.1: their one-term tails would be
    # divided by it, so they are left out.  With them the value reads
    # (-3.1e-9, -1.08e-7)
    u = field_modal_integral(50.0, 100.05, DEFAULT_PARAMS)
    assert u == pytest.approx([1.37e-8, 1.02e-7], abs=oracle._ABS_FLOOR)


def test_field_next_to_the_source_is_the_uncoupled_front():
    # at t -> 0+ the coupling has not acted yet: u1 = -J0(omega1 tau)/(2 c1)
    # = -0.25 at (1e-3, 0).  The integrand's 1/omega tail, cut at w_max,
    # gives -0.145 here unless it is subtracted
    u = field_modal_integral(1e-3, 0.0, DEFAULT_PARAMS)
    assert u[0] == pytest.approx(scalar_kg_exact(1e-3, 0.0, 2.0, 3.0), abs=1e-5)
    assert abs(u[1]) < 1e-6


def test_silent_outside_front():
    # V = x/t above the faster speed: exponentially small once the front
    # has passed a few widths beyond the observation point
    u = field_modal_integral(30.0, 30.0 * 2.2, DEFAULT_PARAMS)
    assert np.max(np.abs(u)) < 1e-8


def test_controls_are_honoured(monkeypatch):
    # the contour height is a numerical knob: another height, same value
    panels = oracle._panels
    monkeypatch.setattr(oracle, "_panels", lambda t, x, p: (0.002,) + panels(t, x, p)[1:])
    u, info = field_modal_integral(20.0, 24.0, DEFAULT_PARAMS, return_info=True)
    assert info["epsilon"] == 0.002
    assert u[0] == pytest.approx(0.02873564642655081, abs=1e-6)


def test_scalar_exact_frozen():
    assert scalar_kg_exact(20.0, 12.0, 2.0, 3.0) == pytest.approx(-0.026234040321450672, abs=1e-14)
    assert scalar_kg_exact(5.0, 12.0, 2.0, 3.0) == 0.0


def test_scalar_far_matches_exact_deep_inside_cone():
    c, Om = 2.0, 3.0
    t, x = 400.0, 320.0
    assert scalar_kg_far(t, x, c, Om) == pytest.approx(scalar_kg_exact(t, x, c, Om), rel=2e-3)


def test_decoupled_limit_matches_scalar_closed_form():
    # mu -> 0: the quadrature of the uncoupled integrand on the full cutoff
    # must collapse onto the single-line closed form, which the oracle adds
    # back after subtracting that integrand
    p = validate(WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=0.0))
    t, x = 25.0, 20.0
    u, info = oracle._uncoupled_quadrature(np.array([t]), np.array([x]), p)
    assert info[0]["error"] is None
    assert info[0]["omega_max"] == oracle._panels(t, x, p)[2][-1][1]
    assert u[0, 0] == pytest.approx(scalar_kg_exact(t, x, 2.0, 3.0), abs=2e-7)
    assert abs(u[0, 1]) < 1e-9


def test_closed_form_skips_an_unforced_layer(monkeypatch):
    # the default forcing (1, 0) leaves layer 2 unforced: its K is never evaluated
    seen = []
    monkeypatch.setattr(oracle, "scalar_kg_exact", lambda t, x, c, om: seen.append(c) or 0.25)
    assert oracle._closed_form(10.0, 5.0, DEFAULT_PARAMS).tolist() == [0.25, 0.0]
    assert seen == [DEFAULT_PARAMS.c1]


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
