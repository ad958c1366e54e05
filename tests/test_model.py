"""Parameter validation, dispersion function, amplitude, crossing point."""

import json
import re

import numpy as np
import pytest

from wavezones.errors import (
    DegenerateSpeeds,
    NonPositiveParameter,
    OrderingViolation,
    OverstrongCoupling,
    ParameterFileError,
)
from wavezones.model import (
    DEFAULT_PARAMS,
    WaveguideParams,
    amplitude_A,
    crossing_point,
    dispersion_D,
    j_parameters,
    load_params,
    symbol_dk,
    symbol_dw,
    validate,
)


def test_default_preset_is_valid():
    assert validate(DEFAULT_PARAMS) is DEFAULT_PARAMS
    assert DEFAULT_PARAMS.c1 == 2.0 and DEFAULT_PARAMS.c2 == 1.8
    assert DEFAULT_PARAMS.mu == 0.5


@pytest.mark.parametrize(
    "kwargs, exc",
    [
        (dict(c1=-2.0), NonPositiveParameter),
        (dict(omega1=0.0), NonPositiveParameter),
        (dict(c2=2.5), OrderingViolation),
        (dict(omega2=2.0), OrderingViolation),
        (dict(c2=2.0), DegenerateSpeeds),
        (dict(mu=11.0), OverstrongCoupling),
    ],
)
def test_validation_rejections(kwargs, exc):
    # the message names the offending parameter and then the value it saw
    base = dict(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=0.5)
    base.update(kwargs)
    ((name, value),) = kwargs.items()
    with pytest.raises(exc, match=rf"\b{name}\b.*{re.escape(repr(value))}"):
        validate(WaveguideParams(**base))


def test_dispersion_product_structure():
    p = DEFAULT_PARAMS
    w, k = 4.7, 1.3
    P = w * w - p.omega1**2 - p.c1**2 * k * k
    Q = w * w - p.omega2**2 - p.c2**2 * k * k
    assert dispersion_D(w, k, p) == pytest.approx(P * Q - p.mu**2, rel=1e-14)


def _symbol_matrix(w, k, p):
    """The 2x2 Fourier symbol, entry by entry, independent of the helpers."""
    return np.array(
        [
            [w * w - p.omega1 * p.omega1 - p.c1 * p.c1 * k * k, p.mu],
            [p.mu, w * w - p.omega2 * p.omega2 - p.c2 * p.c2 * k * k],
        ],
        dtype=complex,
    )


def test_symbol_helpers_match_explicit_matrix():
    rng = np.random.default_rng(7)
    for _ in range(20):
        w, k = rng.normal(4.0, 2.0, 2) + 1j * rng.normal(0.0, 0.5, 2)
        f1, f2 = rng.normal(0.0, 1.0, 2)
        p = WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=0.5, f1=f1, f2=f2)
        M = _symbol_matrix(w, k, p)
        P, Q = M[0, 0], M[1, 1]
        # round-off of anything built from P Q - mu^2 scales with this
        size = abs(P) * abs(Q) + p.mu**2
        assert abs(dispersion_D(w, k, p) - np.linalg.det(M)) <= 1e-12 * size
        adj = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]])
        assert np.allclose(amplitude_A(w, k, p), adj @ np.array([f1, f2]), rtol=1e-12, atol=1e-12 * size)
        h = 1e-6
        det = lambda w_, k_: np.linalg.det(_symbol_matrix(w_, k_, p))
        dk_fd = (det(w, k + h) - det(w, k - h)) / (2 * h)
        dw_fd = (det(w + h, k) - det(w - h, k)) / (2 * h)
        assert symbol_dk(k, P, Q, p) == pytest.approx(dk_fd, rel=1e-6, abs=1e-8 * size)
        assert symbol_dw(w, P, Q) == pytest.approx(dw_fd, rel=1e-6, abs=1e-8 * size)


def test_crossing_point_values():
    cp = crossing_point(DEFAULT_PARAMS)
    assert cp.omega_c == pytest.approx(5.109330989268041, abs=1e-12)
    assert cp.k_c == pytest.approx(2.067925479671278, abs=1e-12)
    assert cp.v_fast == pytest.approx(1.6189403145068335, abs=1e-12)
    assert cp.v_slow == pytest.approx(1.311341654750535, abs=1e-12)
    # the crossing sits on both unperturbed lines, so D there is exactly -mu^2
    assert dispersion_D(cp.omega_c, cp.k_c, DEFAULT_PARAMS) == pytest.approx(
        -DEFAULT_PARAMS.mu**2, abs=1e-13
    )


def test_amplitude_at_crossing_lives_in_component_two():
    p = DEFAULT_PARAMS
    cp = crossing_point(p)
    a = amplitude_A(cp.omega_c, cp.k_c, p)
    assert a[0] == pytest.approx(0.0, abs=1e-12)
    assert a[1] == pytest.approx(-p.mu, abs=1e-12)


def test_pulse_argument_wedge():
    p = DEFAULT_PARAMS
    cp = crossing_point(p)
    x = 80.0
    inside = 0.5 * (x / cp.v_fast + x / cp.v_slow)
    assert j_parameters(inside, x, p).b > 0.0
    assert np.isnan(j_parameters(x / cp.v_fast - 1.0, x, p).b)
    assert not j_parameters(x / cp.v_fast - 1.0, x, p).inside


def test_load_params_roundtrip(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"c1": 2.0, "c2": 1.8, "omega1": 3.0, "omega2": 3.5, "mu": 0.5}))
    assert load_params(str(f)) == DEFAULT_PARAMS


def test_load_params_names_offending_key(tmp_path):
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"c1": 2.0, "c2": 1.8, "omega1": 3.0, "omega2": 3.5, "mu": 0.5, "zz": 1}))
    with pytest.raises(ParameterFileError, match="zz"):
        load_params(str(f))
