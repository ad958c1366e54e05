"""Closed-form field pieces and their assembly against the quadrature solver.

Frozen complex values were produced by this package and cross-checked against
the quadrature oracle during development; they pin the normalisation
(prefactors, branch of the square root, sign of the phase) rather than the
underlying physics, which the relative-error tests at the bottom cover.
"""

import math

import numpy as np
import pytest

from wavezones.asymptotics import (
    airy_term,
    assemble_field,
    j_term,
    q_function,
    sp_term,
)
from wavezones.dispersion import group_velocity_extrema
from wavezones.errors import NoConvergence
from wavezones.model import DEFAULT_PARAMS, j_parameters
from wavezones.oracle import field_modal_integral, j_int_quadrature
from wavezones.saddle import find_real_saddles
from wavezones.special import bessel_j0
from wavezones.zones import classify


def test_sp_term_frozen_below_window():
    rs = {r.index: r for r in find_real_saddles(1.0, DEFAULT_PARAMS)}
    s1 = sp_term(rs[1], 60.0, 60.0, DEFAULT_PARAMS)
    s2 = sp_term(rs[2], 60.0, 60.0, DEFAULT_PARAMS)
    assert s1[0] == pytest.approx(-0.0001333263457676699 - 0.0004098406423270674j, abs=1e-12)
    assert s1[1] == pytest.approx(0.000564755340495607 + 0.0017360386664290288j, abs=1e-12)
    assert s2[0] == pytest.approx(0.007252336293823595 - 0.0028793869343086186j, abs=1e-12)
    assert s2[1] == pytest.approx(0.001310545219333801 - 0.0005203242966799683j, abs=1e-12)


def test_sp_term_frozen_fast_ray():
    rs = find_real_saddles(1.9, DEFAULT_PARAMS)
    s1 = sp_term(rs[0], 40.0, 76.0, DEFAULT_PARAMS)
    assert s1[0] == pytest.approx(-0.009077553290719477 - 0.01334604421222582j, abs=1e-12)
    assert s1[1] == pytest.approx(0.0003565848765440463 + 0.000524259938262586j, abs=1e-12)


def test_sp_term_inverse_sqrt_spreading():
    r = find_real_saddles(1.0, DEFAULT_PARAMS)[0]
    near = sp_term(r, 60.0, 60.0, DEFAULT_PARAMS)
    far = sp_term(r, 240.0, 240.0, DEFAULT_PARAMS)
    assert np.abs(near) / np.abs(far) == pytest.approx([2.0, 2.0], rel=1e-9)


def test_j_term_frozen_and_polarised():
    j = j_term(40.0, 58.0, DEFAULT_PARAMS)
    # crossing amplitude has no first component
    assert abs(j[0]) < 1e-14
    assert j[1] == pytest.approx(-3.6598214718266192e-3 - 1.5019919196806101e-3j, abs=1e-12)


def test_j_parameters_frozen():
    jp = j_parameters(40.0, 58.0, DEFAULT_PARAMS)
    assert jp.b == pytest.approx(1.9476960106415722, abs=1e-10)
    assert jp.scale == pytest.approx(1.9477383577758527, abs=1e-10)
    assert jp.drift == pytest.approx(-0.012843694261244333, abs=1e-10)


def test_j_term_nodes_follow_bessel_zero():
    # along a fixed ray the pulse magnitude vanishes where b hits the first
    # J0 zero, 2.404825557695773
    V = 1.465141
    lo, hi = 60.0, 80.0
    f = lambda x: j_parameters(x / V, x, DEFAULT_PARAMS).b - 2.404825557695773
    assert f(lo) < 0.0 < f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    x0 = 0.5 * (lo + hi)
    mag = np.abs(j_term(x0 / V, x0, DEFAULT_PARAMS)[1])
    side = np.abs(j_term((x0 - 8.0) / V, x0 - 8.0, DEFAULT_PARAMS)[1])
    assert mag < 1e-3 * side


def test_j_term_matches_its_quadrature():
    x = 58.0
    t = x / 1.465141
    jq = j_int_quadrature(t, x, DEFAULT_PARAMS)
    jt = j_term(t, x, DEFAULT_PARAMS)
    assert np.max(np.abs(jq - jt)) < 1e-6


def test_q_function_frozen():
    assert q_function(0.5, 0.5) == pytest.approx(0.119783978241098 + 5.404946286703325j, abs=1e-9)
    q0 = q_function(0.0, 0.3)
    assert abs(q0.real) < 1e-12
    assert q0.imag == pytest.approx(4.933033087031669, abs=1e-9)


@pytest.mark.parametrize("z", [0.0, 0.3, 0.6, 0.9, 1.0])
def test_q_function_bessel_identity(z):
    # zero drift collapses the loop integral onto the circular average
    ref = 2j * math.pi * bessel_j0(math.sqrt(max(0.0, 1.0 - z * z)))
    assert q_function(0.0, z) == pytest.approx(ref, abs=1e-9)


def test_airy_term_frozen_on_min_ray():
    e_min = next(e for e in group_velocity_extrema(DEFAULT_PARAMS) if e.kind == "min")
    x = 400.0
    at = airy_term(e_min, x / e_min.v_e, x, DEFAULT_PARAMS)
    assert at[0] == pytest.approx(0.0010132918121078 - 0.0002758084742917j, abs=1e-10)
    assert at[1] == pytest.approx(0.0022878425317837 - 0.0006227291591336j, abs=1e-10)


def test_assembly_is_twice_real_part_of_terms():
    fv = assemble_field(60.0, 60.0, DEFAULT_PARAMS)
    tot = sum(tm.value for tm in fv.terms)
    assert np.allclose(fv.u, 2.0 * np.real(tot), atol=0.0)
    assert not fv.used_oracle


@pytest.mark.parametrize(
    "t, V, tol",
    [
        (40.0, 1.9, 0.02),
        (60.0, 1.0, 0.01),
        (100.0, 0.5, 1e-3),
        (94.0, 1.33, 0.06),
    ],
)
def test_assembly_against_oracle(t, V, tol):
    x = V * t
    fv = assemble_field(t, x, DEFAULT_PARAMS)
    u = field_modal_integral(t, x, DEFAULT_PARAMS)
    rel = np.max(np.abs(fv.u - u)) / np.max(np.abs(u))
    assert rel < tol


def test_assembly_error_contracts_just_below_v_min():
    # Rays just below v_min = 1.44273, where the terms are SP[1] + SP[2] +
    # Ai[6].  The one-point Airy form that once served here dropped an order,
    # and its error over the term envelope sum |2 term| oscillated between
    # 0.002 and 0.094 over t = 150..1200 without decaying; with the two-saddle
    # form the far values must halve the near ones
    early, late = (150.0, 200.0, 300.0), (800.0, 1000.0, 1200.0)
    for V in (1.44, 1.442):
        ts = np.array(early + late)
        u = field_modal_integral(ts, V * ts, DEFAULT_PARAMS)
        err = [_envelope_error(assemble_field(t, V * t, DEFAULT_PARAMS), ui) for t, ui in zip(ts, u)]
        assert max(err[3:]) <= 0.5 * max(err[:3])


def _envelope_error(fv, u):
    """Assembly error over the term envelope sum |2 term|."""
    return np.max(np.abs(fv.u - u)) / np.max(sum(np.abs(2.0 * d.value) for d in fv.terms))


@pytest.mark.parametrize("kind", ["min", "max"])
def test_airy_form_on_both_sides_of_each_extremum(kind):
    # one millionth off v_e the pair is real on one side and a complex saddle
    # with its conjugate on the other; the two-saddle form serves both, each
    # within 0.02 of the envelope against the oracle (2e-3..1.9e-2 measured),
    # and the two sides agree to 4e-3 of the envelope
    ext = next(e for e in group_velocity_extrema(DEFAULT_PARAMS) if e.kind == kind)
    ts = np.array([200.0, 200.0, 800.0, 800.0])
    vs = ext.v_e + np.array([-1e-6, 1e-6, -1e-6, 1e-6])
    u = field_modal_integral(ts, vs * ts, DEFAULT_PARAMS)
    fvs = [assemble_field(float(t), float(V * t), DEFAULT_PARAMS) for t, V in zip(ts, vs)]
    sides = set()
    for fv, ui in zip(fvs, u):
        ai = [d for d in fv.terms if d.kind == "Ai"]
        assert len(ai) == 1 and ai[0].saddles, fv.terms
        sides.add(ai[0].saddles)
        assert _envelope_error(fv, ui) < 0.02
    assert len(sides) == 2
    for lo, hi in ((fvs[0], fvs[1]), (fvs[2], fvs[3])):
        assert np.max(np.abs(lo.u - hi.u)) < 4e-3 * np.max(sum(np.abs(2.0 * d.value) for d in lo.terms))


def _rounding_band(raises):
    reason = "known defect: within about 1e-12 relative of v_e rounding destroys the two-saddle form"
    return pytest.mark.xfail(strict=True, raises=raises, reason=reason)


@pytest.mark.parametrize(
    "mu, kind, rel",
    [
        # z4 = 0: u is inf, with a divide-by-zero RuntimeWarning
        pytest.param(0.5, "max", -1e-15, marks=_rounding_band((RuntimeWarning, AssertionError))),
        # finite, but off by 0.98 of the envelope
        pytest.param(0.5, "max", -1e-13, marks=_rounding_band(AssertionError)),
        pytest.param(0.5, "min", -1e-13, marks=_rounding_band(AssertionError)),
        # x = v_max t, so x / t is v_max + 1 ulp and 1/V rounds to 1/v_max:
        # both homotopy roots have Im g == 0, and the classifier raises
        pytest.param(0.3, "max", 0.0, marks=_rounding_band(NoConvergence)),
    ],
)
def test_airy_form_within_rounding_of_v_e(mu, kind, rel):
    # the both-sides bound above, 0.02 of the envelope against the oracle,
    # on rays a few ulps to 1e-13 relative from v_e; the fix is the xi -> 0
    # limit of the two-saddle form, its amplitudes at the double root
    import dataclasses

    p = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    ext = next(e for e in group_velocity_extrema(p) if e.kind == kind)
    t, x = 200.0, ext.v_e * (1.0 + rel) * 200.0
    fv = assemble_field(t, x, p)
    assert np.all(np.isfinite(fv.u))
    assert _envelope_error(fv, field_modal_integral(t, x, p)) < 0.02


@pytest.mark.parametrize("kind, dv", [("min", -0.02), ("min", -0.1), ("max", 0.02), ("max", 0.1)])
def test_airy_term_tends_to_the_complex_saddle_on_the_shadow_side(kind, dv):
    # where the kept complex saddle has decayed by e^{-x Im g} = e^{-15.5},
    # the two-saddle form is its stationary-point term up to the Airy
    # expansion's own next order, 5 / (72 x Im g) = 4.5e-3; a wrong branch of
    # zeta^(1/4) or of the conjugate's root is off by order one
    from wavezones.saddle import find_complex_saddles

    ext = next(e for e in group_velocity_extrema(DEFAULT_PARAMS) if e.kind == kind)
    V = ext.v_e + dv
    sc = next(s for s in find_complex_saddles(V, DEFAULT_PARAMS) if s.index == (6 if kind == "min" else 5))
    x = 31.0 / (2.0 * sc.g.imag)
    ai = airy_term(ext, x / V, x, DEFAULT_PARAMS)
    sp = sp_term(sc, x / V, x, DEFAULT_PARAMS)
    assert np.max(np.abs(ai - sp)) / np.max(np.abs(sp)) < 1.25 * 5.0 / (72.0 * 15.5)


def test_assembly_rejects_an_unknown_term_kind(monkeypatch):
    from wavezones import zones
    from wavezones.errors import UnknownLabel, WavezonesError

    label = zones.ZoneLabel("SP", ("SP",), 1, "Ai")
    monkeypatch.setattr(zones, "classify", lambda t, V, params, S: (label, [zones.TermDescriptor("X")]))
    with pytest.raises(UnknownLabel) as info:
        assemble_field(60.0, 60.0, DEFAULT_PARAMS)
    assert isinstance(info.value, WavezonesError)


@pytest.mark.parametrize("t, V", [(60.0, 1.0), (3.0, 1.0)])
def test_assembly_returns_valued_copies_of_the_shared_descriptors(t, V):
    # an SP point and a B point (oracle fallback)
    fv = assemble_field(t, V * t, DEFAULT_PARAMS)
    shared = classify(t, V, DEFAULT_PARAMS)[1]
    assert [(d.kind, d.saddles, d.note) for d in fv.terms] == [(d.kind, d.saddles, d.note) for d in shared]
    assert all(d.value is not None and d.value.shape == (2,) for d in fv.terms)
    assert all(d.value is None for d in shared)
    assert all(d.value is None for d in classify(t, V, DEFAULT_PARAMS)[1])


def test_assembly_silent_zones():
    for t, x in ((-5.0, 30.0), (10.0, 25.0)):
        fv = assemble_field(t, x, DEFAULT_PARAMS)
        assert fv.zone.primary == "zero"
        assert fv.terms == [] or len(fv.terms) == 0
        assert np.all(fv.u == 0.0)


def test_assembly_delegates_near_source():
    fv = assemble_field(3.0, 3.0, DEFAULT_PARAMS)
    assert fv.zone.primary == "B"
    assert fv.used_oracle
    u = field_modal_integral(3.0, 3.0, DEFAULT_PARAMS)
    assert np.allclose(fv.u, u, rtol=1e-6, atol=1e-12)


def test_assembly_matches_pinned_field_grid():
    # the assembled side of `wavezones field --grid 6x5 --t-min 30 --t-max 220
    # --v-min 0.65 --v-max 2.2` (the field_grid benchmark window), pinned with
    # its zone and term labels; no point there falls back to the oracle
    import csv
    from pathlib import Path

    with open(Path(__file__).parent / "data" / "field_6x5.csv") as fh:
        pinned = list(csv.DictReader(fh))
    points = [(t, V) for t in np.linspace(30.0, 220.0, 6).tolist() for V in np.linspace(0.65, 2.2, 5).tolist()]
    assert len(pinned) == len(points)
    for (t, V), row in zip(points, pinned):
        assert (t, V) == (float(row["t"]), float(row["V"]))
        fv = assemble_field(t, V * t, DEFAULT_PARAMS)
        assert not fv.used_oracle
        terms = "+".join(f"{d.kind}[{' '.join(str(i) for i in d.saddles)}]" for d in fv.terms) or "-"
        assert (fv.zone.primary, terms) == (row["zone"], row["terms"]), (t, V)
        envelope = 2.0 * sum(np.max(np.abs(d.value)) for d in fv.terms)
        want = np.array([float(row["u1"]), float(row["u2"])])
        assert np.all(np.abs(fv.u - want) <= 1e-14 * envelope), (t, V)
