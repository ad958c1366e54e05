"""Stationary-point location on both branches, real and complex."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from wavezones import dispersion, saddle
from wavezones.dispersion import group_velocity, group_velocity_extrema
from wavezones.errors import ExtremumNotFound, NoConvergence
from wavezones.model import DEFAULT_PARAMS, crossing_point, dispersion_D
from wavezones.saddle import find_complex_saddles, find_real_saddles, phase_difference
from wavezones.zones import _row

V_WINDOW = (1.4427260773697537, 1.4979219866980635)  # slow/fast velocity extrema


def test_two_saddles_below_window_frozen():
    rs = find_real_saddles(1.0, DEFAULT_PARAMS)
    assert [r.index for r in rs] == [1, 2]
    sp1, sp2 = rs
    assert sp1.branch == 1 and sp2.branch == 2
    assert sp1.omega_star == pytest.approx(4.2068270192139074, abs=1e-10)
    assert sp1.k_star == pytest.approx(1.2825219343357082, abs=1e-10)
    assert sp1.g == pytest.approx(-2.924305084878199, abs=1e-10)
    assert sp1.alpha == pytest.approx(-0.5622070312177716, abs=1e-9)
    assert sp2.omega_star == pytest.approx(3.4536559426444717, abs=1e-10)
    assert sp2.g == pytest.approx(-2.5850230105378262, abs=1e-10)
    assert all(r.is_real for r in rs)


def test_four_saddles_inside_window():
    rs = find_real_saddles(1.45, DEFAULT_PARAMS)
    assert [r.index for r in rs] == [1, 2, 3, 4]
    assert [r.branch for r in rs] == [1, 2, 2, 2]
    # the three slow-branch stationary points are frequency ordered
    w = [r.omega_star.real for r in rs[1:]]
    assert w[0] < w[1] < w[2]


def test_count_ladder_across_regimes():
    expected = {0.5: 2, 1.3: 2, 1.45: 4, 1.47: 4, 1.55: 2, 1.9: 1, 2.0: 0, 2.5: 0}
    for V, n in expected.items():
        assert len(find_real_saddles(V, DEFAULT_PARAMS)) == n, V


@pytest.mark.parametrize("mu", [0.05, 0.5])
def test_pair_survives_just_inside_window(mu):
    # a hair inside each extremum speed both members of the merging pair are
    # real: four saddles, never an odd count
    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    for e in group_velocity_extrema(p):
        inward = -1.0 if e.kind == "max" else 1.0
        for d in (1e-12, 1e-11, 1e-10, 1e-9):
            V = e.v_e * (1.0 + inward * d)
            assert [r.index for r in find_real_saddles(V, p)] == [1, 2, 3, 4], (e.kind, d)


@given(st.floats(min_value=0.05, max_value=1.5), st.floats(min_value=0.01, max_value=2.1, exclude_max=True))
def test_count_follows_ladder_over_coupling(mu, V):
    # the ladder [0, 1, 2, 4, 2] read off the extrema alone
    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    try:
        speeds = [e.v_e for e in group_velocity_extrema(p)]
    except ExtremumNotFound:
        speeds = []
    assume(all(abs(V - s) > 1e-9 * s for s in [p.c1, p.c2, *speeds]))
    if V >= p.c1:
        want = 0
    elif V >= p.c2:
        want = 1
    else:
        want = 4 if speeds and min(speeds) < V < max(speeds) else 2
    assert len(find_real_saddles(V, p)) == want


def test_complex_partner_below_window_frozen():
    cs = find_complex_saddles(1.0, DEFAULT_PARAMS)
    assert len(cs) == 1
    c = cs[0]
    assert c.index == 6 and c.branch == 2 and not c.is_real
    assert c.omega_star == pytest.approx(5.135578225530515 - 0.47158967046585354j, abs=1e-9)
    assert complex(c.g).imag == pytest.approx(0.14202141474426644, abs=1e-9)


def test_complex_partner_above_window():
    cs = find_complex_saddles(1.55, DEFAULT_PARAMS)
    assert [c.index for c in cs] == [5]
    assert complex(cs[0].g).imag > 0.0


@given(st.floats(min_value=0.2, max_value=1.95))
def test_real_saddles_sit_where_group_velocity_equals_ray_speed(V):
    assume(abs(V - V_WINDOW[0]) > 1e-3 and abs(V - V_WINDOW[1]) > 1e-3)
    for r in find_real_saddles(V, DEFAULT_PARAMS):
        vg = group_velocity(r.branch, r.omega_star.real, DEFAULT_PARAMS)
        assert abs(vg - V) < 1e-8
        # and the point actually lies on the branch
        scale = max(1.0, abs(r.omega_star) ** 4)
        assert abs(dispersion_D(r.omega_star.real, r.k_star.real, DEFAULT_PARAMS)) < 1e-8 * scale


@given(st.floats(min_value=0.2, max_value=1.95))
def test_complex_saddles_decay(V):
    assume(not (V_WINDOW[0] - 1e-3 < V < V_WINDOW[1] + 1e-3))
    for c in find_complex_saddles(V, DEFAULT_PARAMS):
        assert not c.is_real
        # upper half phase: the exponential must shrink with distance
        assert complex(c.g).imag > 0.0
        # saddle condition holds off the real axis too
        scale = max(1.0, abs(c.omega_star) ** 4)
        assert abs(dispersion_D(c.omega_star, c.k_star, DEFAULT_PARAMS)) < 1e-7 * scale


def test_isolation_grows_with_distance():
    rs = find_real_saddles(1.45, DEFAULT_PARAMS)
    sp2, sp3 = rs[1], rs[2]
    x_small, x_large = 10.0, 400.0
    d_small = phase_difference(sp2, sp3, x_small * 1.45, x_small)
    d_large = phase_difference(sp2, sp3, x_large * 1.45, x_large)
    assert d_large > d_small


def test_velocity_attribute_recorded():
    for V in (0.7, 1.45, 1.9):
        for r in find_real_saddles(V, DEFAULT_PARAMS):
            assert r.V == V
            assert r.params == DEFAULT_PARAMS
            # g is the per-distance phase k - omega/V
            assert r.g == pytest.approx(r.k_star - r.omega_star / V, abs=1e-12)


def test_one_cache_layer():
    for fn in (find_real_saddles, find_complex_saddles, dispersion.velocity_extrema, saddle._vg_segments,
               crossing_point, _row):
        assert fn.cache_info().maxsize > 0
        assert not hasattr(fn.__wrapped__, "cache_info"), fn.__name__


def test_extremum_scan_runs_once_when_there_is_none(monkeypatch):
    # mu = 0 has no extremum: the empty result is cached like any other, so
    # rows at many speeds and the raising public call scan k'' once
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.0, omega2=3.4567)  # a set no other test caches
    scanned = []
    scan = dispersion._kpp_on_branch
    monkeypatch.setattr(dispersion, "_kpp_on_branch", lambda b, w, q: scanned.append(b) or scan(b, w, q))
    for V in np.linspace(0.3, 1.95, 50):
        _row(float(V), p)
    with pytest.raises(ExtremumNotFound):
        group_velocity_extrema(p)
    assert scanned == [1, 2]


def test_real_saddles_evaluate_the_branch_pointwise(monkeypatch):
    # the branch is tabulated once per parameter set; a new V only polishes
    # roots, so every branch evaluation it makes is at a single frequency
    saddle._vg_segments(DEFAULT_PARAMS)
    shapes = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            shapes.extend(np.ndim(a) for a in args)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dispersion, "branch_k", recording(dispersion.branch_k))
    monkeypatch.setattr(dispersion, "derivatives_at", recording(dispersion.derivatives_at))
    for V in np.linspace(0.3123456, 1.9123456, 20):
        find_real_saddles(float(V), DEFAULT_PARAMS)
    assert shapes and set(shapes) == {0}


def _complex_side_ladder(p):
    """(extremum, V) on the side of each extremum where its pair is complex."""
    for e in group_velocity_extrema(p):
        out = 1.0 if e.kind == "max" else -1.0
        for f in (1e-9, 1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.2):
            V = e.v_e * (1.0 + out * f)
            if V < p.c1:
                yield e, V


@pytest.mark.parametrize("mu", [0.05, 0.3, 1.0])
def test_preferred_sign_continues_to_the_decaying_member(mu):
    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    for e, V in _complex_side_ladder(p):
        w, k = saddle._continue_complex(e, V, -math.copysign(1.0, e.cubic_coeff), p)
        assert (k - w / V).imag > 0.0, (mu, e.kind, V)


@pytest.mark.parametrize("first_attempt", ["fails", "discarded"])
def test_other_sign_is_the_fallback(monkeypatch, first_attempt):
    # the first attempt returns None, or runs the other sign and lands on
    # the Im g < 0 member; the fallback attempt runs the preferred sign, so
    # the kept root must come back through it unchanged
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.3)
    ladder = list(_complex_side_ladder(p))
    find_complex_saddles.cache_clear()
    want = {V: find_complex_saddles(V, p) for _, V in ladder}
    original = saddle._continue_complex
    calls = []

    def flipped(e, V, sign, params):
        calls.append(sign)
        if len(calls) % 2 == 1 and first_attempt == "fails":
            return None
        return original(e, V, -sign, params)

    monkeypatch.setattr(saddle, "_continue_complex", flipped)
    find_complex_saddles.cache_clear()
    try:
        for e, V in ladder:
            calls.clear()
            assert find_complex_saddles(V, p) == want[V]
            assert calls == [-math.copysign(1.0, e.cubic_coeff), math.copysign(1.0, e.cubic_coeff)]
    finally:
        find_complex_saddles.cache_clear()


def test_both_signs_failing_raises(monkeypatch):
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.3)
    original = saddle._continue_complex

    # each sign on its own: the preferred one fails, the other one yields the
    # Im g < 0 member, which is never kept
    def preferred_fails(e, V, sign, params):
        return None if sign == -math.copysign(1.0, e.cubic_coeff) else original(e, V, sign, params)

    for patched in (preferred_fails, lambda e, V, sign, params: None):
        monkeypatch.setattr(saddle, "_continue_complex", patched)
        find_complex_saddles.cache_clear()
        try:
            with pytest.raises(NoConvergence):
                find_complex_saddles(1.0, p)
        finally:
            find_complex_saddles.cache_clear()


# ---------------------------------------------------------------------------
# complex saddles of a whole grid of speeds, by continuation along V


def _diagram_speeds(p, n):
    """n speeds on the zone_atlas window [0.3, 2.1], plus rows 1e-9 to 0.2
    relative beside each v_e on the side where its pair is complex."""
    near = [e.v_e * (1.0 + (1.0 if e.kind == "max" else -1.0) * f)
            for e in dispersion.velocity_extrema(p) for f in (1e-9, 1e-6, 1e-4, 1e-2, 0.05, 0.1, 0.2)]
    return sorted(np.linspace(0.3, 2.1, n).tolist() + [V for V in near if V < p.c1])


def _assert_grid_matches_points(vs, p):
    """The roots of complex_saddles_along(vs) are those of
    find_complex_saddles at each V, to 1e-9 relative."""
    for V, got in zip(vs, saddle.complex_saddles_along(vs, p)):
        want = find_complex_saddles(V, p)
        assert [(s.index, s.branch, s.is_real, s.V) for s in got] == [(s.index, s.branch, s.is_real, s.V) for s in want]
        for a, b in zip(got, want):
            assert abs(a.omega_star - b.omega_star) <= 1e-9 * abs(b.omega_star), (p.mu, V)
            assert abs(a.k_star - b.k_star) <= 1e-9 * abs(b.k_star), (p.mu, V)
            assert abs(a.alpha - b.alpha) <= 1e-6 * (1.0 + abs(b.alpha)), (p.mu, V)
            assert a.g.imag > 0.0


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("n", [60, 400])
def test_seeded_roots_agree_with_scalar(mu, n):
    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    _assert_grid_matches_points(_diagram_speeds(p, n), p)


def test_no_complex_saddles_without_coupling():
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.0)
    assert saddle.complex_saddles_along(np.linspace(0.3, 2.1, 60), p) == [()] * 60


def test_continuation_runs_one_homotopy_per_extremum(monkeypatch):
    # the 400 rows of the zone_atlas window are close enough that every
    # seeded Newton lands on the decaying member
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.5)
    calls = []
    homotopy = saddle._homotopy_root

    def counted(e, V, params):
        calls.append(V)
        return homotopy(e, V, params)

    monkeypatch.setattr(saddle, "_homotopy_root", counted)
    got = saddle.complex_saddles_along(np.linspace(0.3, 2.1, 400), p)
    assert sum(len(g) for g in got) > 300
    assert len(calls) == len(dispersion.velocity_extrema(p))


def _seeded_newton(monkeypatch, seeded):
    """Replace the seeded Newton solves (those outside the homotopy) by seeded."""
    newton, continue_complex = saddle._newton_system, saddle._continue_complex
    depth = [0]

    def homotopy(*args):
        depth[0] += 1
        try:
            return continue_complex(*args)
        finally:
            depth[0] -= 1

    def patched(w, k, inv_v, params):
        return newton(w, k, inv_v, params) if depth[0] else seeded(newton, w, k, inv_v, params)

    monkeypatch.setattr(saddle, "_continue_complex", homotopy)
    monkeypatch.setattr(saddle, "_newton_system", patched)


@pytest.mark.parametrize("seeded", ["fails", "lands on the growing member"])
def test_failed_seeded_solve_falls_back_to_homotopy(monkeypatch, seeded):
    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.3)
    vs = _diagram_speeds(p, 60)
    want = [find_complex_saddles(V, p) for V in vs]

    def solve(newton, w, k, inv_v, params):
        if seeded == "fails":
            return None
        # the conjugate of a root is a root, with Im g < 0
        w, k = newton(w, k, inv_v, params)
        return w.conjugate(), k.conjugate()

    _seeded_newton(monkeypatch, solve)
    assert saddle.complex_saddles_along(vs, p) == want


def test_diagram_raises_like_the_scalar_path(monkeypatch):
    from wavezones.zones import classify, zone_diagram

    p = dataclasses.replace(DEFAULT_PARAMS, mu=0.3)
    V = 1.6  # above v_max: only the maximum's pair is complex
    monkeypatch.setattr(saddle, "_newton_system", lambda w, k, inv_v, params: None)
    find_complex_saddles.cache_clear()
    _row.cache_clear()
    try:
        with pytest.raises(NoConvergence) as scalar:
            classify(100.0, V, p)
        with pytest.raises(NoConvergence) as diagram:
            zone_diagram(p, (1.0, 500.0), (V, 1.7), shape=(4, 3))
    finally:
        find_complex_saddles.cache_clear()
        _row.cache_clear()
    assert str(diagram.value) == str(scalar.value)
    assert "V=1.6" in str(scalar.value) and "omega_e=" in str(scalar.value)


def test_scalar_continuation_keeps_the_complex_member_far_below_v_e():
    # at mu = 1 the extrema nearly merge, and far below v_e a homotopy whose
    # first stage sits 1% of the way from 1/v_e to 1/V seeds outside the
    # cubic model, where Newton ends on the real axis (Im g ~ 1e-163); the
    # bounded first seed keeps the decaying member there
    p = dataclasses.replace(DEFAULT_PARAMS, mu=1.0)
    vs = np.linspace(0.1, 1.49, 300).tolist()
    (seeded,) = saddle.complex_saddles_along(vs, p)[0]
    assert seeded.omega_star.imag < -0.5
    (scalar,) = find_complex_saddles(0.1, p)
    assert abs(scalar.omega_star - seeded.omega_star) <= 1e-9 * abs(seeded.omega_star)


@pytest.mark.parametrize("mu", [0.7, 0.8, 0.9, 1.0])
def test_point_and_grid_agree_where_the_extrema_nearly_merge(mu):
    # far below v_e (V < 0.027 at mu = 0.7 up to V < 0.112 at mu = 1) a first
    # stage 1% of the way from 1/v_e to 1/V seeds outside the cubic model, and
    # Newton can end there on a real root
    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    vs = np.linspace(0.02, 1.49, 120).tolist()
    _assert_grid_matches_points(vs, p)
    sixes = [s for V in vs for s in find_complex_saddles(V, p) if s.index == 6]
    assert len(sixes) > 100
    assert all(abs(s.omega_star.imag) > 1e-2 for s in sixes)
