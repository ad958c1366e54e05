"""Branch solvers, group velocity, extrema, complex branch points.

Frozen values below were produced by the bisection/Newton solvers themselves
and cross-checked once against a high-precision mpmath run; they guard against
regressions, not against the original derivation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavezones.dispersion import (
    branch_k,
    cutoff_frequencies,
    derivatives_at,
    exchange_branch_points,
    group_velocity,
    group_velocity_extrema,
    sample_diagram,
)
from wavezones.model import DEFAULT_PARAMS, crossing_point, dispersion_D

CUT_LOW = 2.9874430850491644
CUT_HIGH = 3.5107241152776347


def test_cutoffs_frozen_and_are_roots_at_k_zero():
    lo, hi = cutoff_frequencies(DEFAULT_PARAMS)
    assert lo == pytest.approx(CUT_LOW, abs=1e-12)
    assert hi == pytest.approx(CUT_HIGH, abs=1e-12)
    assert abs(dispersion_D(lo, 0.0, DEFAULT_PARAMS)) < 1e-10
    assert abs(dispersion_D(hi, 0.0, DEFAULT_PARAMS)) < 1e-10


def test_branch_k_frozen_point():
    assert branch_k(1, 4.0, DEFAULT_PARAMS) == pytest.approx(1.0613531104463851, abs=1e-10)
    assert branch_k(2, 4.0, DEFAULT_PARAMS) == pytest.approx(1.3345175091969346, abs=1e-10)


def test_group_velocity_frozen_point():
    assert group_velocity(1, 4.0, DEFAULT_PARAMS) == pytest.approx(0.8674872705737794, abs=1e-10)
    assert group_velocity(2, 4.0, DEFAULT_PARAMS) == pytest.approx(1.3198824552290034, abs=1e-10)


@given(st.floats(min_value=4.0, max_value=9.0), st.sampled_from([1, 2]))
def test_branch_solution_satisfies_dispersion(omega, branch):
    k = branch_k(branch, omega, DEFAULT_PARAMS)
    # residual scaled by the quartic's size at this point
    scale = max(1.0, abs(omega) ** 4)
    assert abs(dispersion_D(omega, k, DEFAULT_PARAMS)) < 1e-9 * scale


@given(st.floats(min_value=4.0, max_value=9.0), st.sampled_from([1, 2]))
def test_group_velocity_matches_fd(omega, branch):
    h = 1e-6 * (1.0 + omega)
    kp_fd = (branch_k(branch, omega + h, DEFAULT_PARAMS) - branch_k(branch, omega - h, DEFAULT_PARAMS)) / (2 * h)
    vg = group_velocity(branch, omega, DEFAULT_PARAMS)
    assert vg * kp_fd == pytest.approx(1.0, abs=5e-6)


def test_extrema_frozen():
    ex = group_velocity_extrema(DEFAULT_PARAMS)
    assert len(ex) == 2
    mx = next(e for e in ex if e.kind == "max")
    mn = next(e for e in ex if e.kind == "min")
    assert mx.branch == 2 and mn.branch == 2
    assert mx.omega_e == pytest.approx(4.822953729629031, abs=1e-9)
    assert mx.v_e == pytest.approx(1.4979219866980635, abs=1e-9)
    assert mx.k_e == pytest.approx(1.9088807829474377, abs=1e-9)
    assert mx.cubic_coeff == pytest.approx(-0.15770945630446362, rel=1e-6)
    assert mn.omega_e == pytest.approx(5.454583062100831, abs=1e-9)
    assert mn.v_e == pytest.approx(1.4427260773697537, abs=1e-9)
    assert mn.k_e == pytest.approx(2.3388775250563496, abs=1e-9)
    assert mn.cubic_coeff == pytest.approx(0.109274283094781, rel=1e-6)
    # extremum means the velocity derivative vanishes there
    for e in (mx, mn):
        h = 1e-5
        dv = (
            group_velocity(e.branch, e.omega_e + h, DEFAULT_PARAMS)
            - group_velocity(e.branch, e.omega_e - h, DEFAULT_PARAMS)
        ) / (2 * h)
        assert abs(dv) < 1e-6


def _fd_extrema(params, n=20001):
    """Group-velocity extrema of omega_pm(k), independently of the k'' scan.

    omega^2 at real k solves the quartic D = 0 in closed form (the + root is
    branch 1, the - root branch 2); v_g is a central difference of omega in
    k, extrema are sign changes of its slope on a geometric k grid, each
    polished by golden-section search.  Returns sorted (branch, kind, v_e).
    """
    c1, c2, w1, w2, mu = params.c1, params.c2, params.omega1, params.omega2, params.mu

    def vg(k, sign):
        def omega(q):
            a1, a2 = w1 * w1 + (c1 * q) ** 2, w2 * w2 + (c2 * q) ** 2
            return np.sqrt(0.5 * (a1 + a2) + sign * np.sqrt(0.25 * (a1 - a2) ** 2 + mu * mu))

        h = 1e-5 * k
        return (omega(k + h) - omega(k - h)) / (2.0 * h)

    ks = np.geomspace(1e-3, 1e3, n)
    found = []
    for branch, sign in ((1, 1.0), (2, -1.0)):
        slope = np.diff(vg(ks, sign))
        for i in np.nonzero(slope[:-1] * slope[1:] < 0.0)[0]:
            kind = "max" if slope[i] > 0.0 else "min"
            f = (lambda k: -vg(k, sign)) if kind == "max" else (lambda k: vg(k, sign))
            lo, hi = ks[i], ks[i + 2]
            for _ in range(60):
                a, b = hi - 0.618 * (hi - lo), lo + 0.618 * (hi - lo)
                lo, hi = (lo, b) if f(a) < f(b) else (a, hi)
            found.append((branch, kind, float(vg(0.5 * (lo + hi), sign))))
    return sorted(found)


def _validated_sample(count=30, seed=11):
    """Parameter sets validating without an UnsupportedRegime warning, drawn
    from c2/c1 in [0.5, 0.98], omega2/omega1 in [1.01, 2], mu/(omega1 omega2) < 0.9."""
    import warnings

    from wavezones.errors import WavezonesError
    from wavezones.model import WaveguideParams, validate

    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        r, s, m = rng.uniform(0.5, 0.98), rng.uniform(1.01, 2.0), rng.uniform(0.0, 0.9)
        params = WaveguideParams(c1=2.0, c2=2.0 * r, omega1=3.0, omega2=3.0 * s, mu=m * 9.0 * s)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                validate(params)
            except WavezonesError:
                continue
        if not caught:
            out.append(params)
    return out


def test_extrema_match_an_independent_scan():
    from wavezones.dispersion import velocity_extrema

    for params in _validated_sample():
        got = sorted((e.branch, e.kind, e.v_e) for e in velocity_extrema(params))
        want = _fd_extrema(params)
        assert [g[:2] for g in got] == [w[:2] for w in want], params
        assert all(abs(g[2] - w[2]) < 1e-6 for g, w in zip(got, want)), (params, got, want)


@pytest.mark.parametrize("params", [
    (2.0, 1.0401, 3.0, 3.3512, 0.23470426969236488),   # max just above the upper cutoff
    (2.0, 1.9207, 3.0, 3.7126, 5.691314812460935),     # min far above the crossing
])
def test_extrema_away_from_the_crossing_are_found(params):
    from wavezones.model import WaveguideParams
    from wavezones.saddle import find_real_saddles

    params = WaveguideParams(*params)
    ex = group_velocity_extrema(params)
    assert [(e.branch, e.kind) for e in ex] == [(2, "max"), (2, "min")]
    v_max, v_min = ex[0].v_e, ex[1].v_e
    # a speed inside (v_min, v_max) meets all four real families
    V = min(1.001 * v_min, 0.5 * (v_min + v_max))
    assert [s.index for s in find_real_saddles(V, params)] == [1, 2, 3, 4]


def test_exchange_branch_points_frozen_and_symmetric():
    bp = exchange_branch_points(DEFAULT_PARAMS)
    assert len(bp) == 4
    target = 5.130146187994365 + 0.4616673610927871j
    assert any(abs(b - target) < 1e-9 for b in bp)
    # quadrant symmetry: closed under negation and conjugation
    for b in bp:
        assert any(abs(b2 + b) < 1e-9 for b2 in bp)
        assert any(abs(b2 - b.conjugate()) < 1e-9 for b2 in bp)


def test_derivatives_consistency():
    w = 4.7
    for br in (1, 2):
        k = branch_k(br, w, DEFAULT_PARAMS)
        dv = derivatives_at(w, k, DEFAULT_PARAMS)
        assert dv.kp * dv.vg == pytest.approx(1.0, abs=1e-12)
        assert dv.vg == pytest.approx(-dv.Dk / dv.Dw, abs=1e-12)
        h = 1e-5
        kp_fd = (branch_k(br, w + h, DEFAULT_PARAMS) - branch_k(br, w - h, DEFAULT_PARAMS)) / (2 * h)
        assert dv.kp == pytest.approx(kp_fd, abs=1e-7)
        kpp_fd = (
            branch_k(br, w + h, DEFAULT_PARAMS)
            - 2 * branch_k(br, w, DEFAULT_PARAMS)
            + branch_k(br, w - h, DEFAULT_PARAMS)
        ) / h**2
        assert dv.kpp == pytest.approx(kpp_fd, abs=1e-4)


def test_sample_diagram_structure():
    s = sample_diagram(DEFAULT_PARAMS, 2.5, 6.0, 8)
    assert s.dtype.names == ("omega", "k1", "k2", "vg1", "vg2")
    assert len(s) == 8
    assert np.all(np.isnan(s["k1"][s["omega"] < CUT_HIGH]))
    assert np.all(np.isnan(s["k2"][s["omega"] < CUT_LOW]))
    ok1 = ~np.isnan(s["k1"])
    ok2 = ~np.isnan(s["k2"])
    assert np.all(np.diff(s["k1"][ok1]) > 0)
    assert np.all(np.diff(s["k2"][ok2]) > 0)


def test_velocities_bracket_crossing_ray_speeds():
    # both modal velocities at the crossing frequency sit strictly inside
    # the wedge (v_slow, v_fast)
    cp = crossing_point(DEFAULT_PARAMS)
    v1 = group_velocity(1, cp.omega_c, DEFAULT_PARAMS)
    v2 = group_velocity(2, cp.omega_c, DEFAULT_PARAMS)
    for v in (v1, v2):
        assert cp.v_slow < v.real < cp.v_fast
    assert v1 == pytest.approx(1.425271, abs=1e-5)
    assert v2 == pytest.approx(1.472339, abs=1e-5)


def test_group_velocities_below_fast_speed():
    for w in np.linspace(3.6, 12.0, 30):
        for br in (1, 2):
            vg = group_velocity(br, w, DEFAULT_PARAMS)
            assert 0.0 < vg.real < DEFAULT_PARAMS.c1
