"""Two-layer coupled waveguide model: parameters, dispersion function, source.

The displacement pair u = (u1, u2) obeys, for a point impulse at t = 0, x = 0,

    [ c1^2 d_xx - omega1^2 - d_tt        mu            ] [u1]   [f1]
    [        mu            c2^2 d_xx - omega2^2 - d_tt ] [u2] = [f2] delta(t) delta(x)

with causal (zero for t < 0) response.  In the Fourier domain the matrix
symbol has determinant

    D(omega, k) = P * Q - mu^2,
    P = omega^2 - omega1^2 - c1^2 k^2,
    Q = omega^2 - omega2^2 - c2^2 k^2,

and the transformed field is adj(symbol) @ f / D.  Everything downstream
(branch roots, saddle points, zone classification, the asymptotic terms and
the quadrature oracle) is built on the symbol helpers below: they are the
only place P, Q, the partials of D and the numerator are written out.

Conventions: layer 1 is the fast layer (c1 > c2) and layer 2 carries the
higher cutoff (omega2 >= omega1), so the uncoupled dispersion curves cross at
a single positive (omega, k) returned by :func:`crossing_point`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import warnings

import numpy as np

from .errors import (
    DegenerateSpeeds,
    NonPositiveParameter,
    OrderingViolation,
    OverstrongCoupling,
    ParameterFileError,
    UnsupportedRegime,
)

__all__ = [
    "WaveguideParams",
    "CrossingPoint",
    "DEFAULT_PARAMS",
    "validate",
    "load_params",
    "symbol_pq",
    "symbol_dk",
    "symbol_dw",
    "symbol_second",
    "symbol_numerator",
    "dispersion_D",
    "amplitude_A",
    "modal_weight",
    "crossing_point",
    "JParameters",
    "j_parameters",
]


@dataclasses.dataclass(frozen=True)
class WaveguideParams:
    """Physical constants of the two-layer system.

    :param c1: wave speed of layer 1 (the faster layer).
    :param c2: wave speed of layer 2, 0 < c2 < c1.
    :param omega1: cutoff frequency of uncoupled layer 1.
    :param omega2: cutoff frequency of uncoupled layer 2, omega2 >= omega1.
    :param mu: interlayer coupling, 0 <= mu < omega1 * omega2.
    :param f1: impulse amplitude applied to layer 1.
    :param f2: impulse amplitude applied to layer 2.
    """

    c1: float
    c2: float
    omega1: float
    omega2: float
    mu: float
    f1: float = 1.0
    f2: float = 0.0


#: Reference parameter set used throughout the tests and examples.
DEFAULT_PARAMS = WaveguideParams(c1=2.0, c2=1.8, omega1=3.0, omega2=3.5, mu=0.5)


def validate(params: WaveguideParams) -> WaveguideParams:
    """Check parameter ranges and orderings; return the validated params.

    Raises :class:`NonPositiveParameter`, :class:`DegenerateSpeeds`,
    :class:`OrderingViolation`, or :class:`OverstrongCoupling` on hard
    violations.  Emits an :class:`UnsupportedRegime` warning when the fast
    group speed at the crossing is not below c2, because the zone portrait
    downstream assumes the exchange wedge closes inside the slow cone.
    """
    for name in ("c1", "c2", "omega1", "omega2"):
        if not getattr(params, name) > 0:
            raise NonPositiveParameter(f"{name} must be > 0, got {getattr(params, name)!r}")
    if params.mu < 0:
        raise NonPositiveParameter(f"mu must be >= 0, got {params.mu!r}")
    if params.c1 == params.c2:
        raise DegenerateSpeeds(f"c1 == c2: layer speeds must differ, got c1={params.c1!r}, c2={params.c2!r}")
    if params.c1 < params.c2:
        raise OrderingViolation(f"need c1 > c2, got c1={params.c1}, c2={params.c2}")
    if params.omega2 < params.omega1:
        raise OrderingViolation(
            f"need omega2 >= omega1, got omega1={params.omega1}, omega2={params.omega2}"
        )
    if params.mu >= params.omega1 * params.omega2:
        raise OverstrongCoupling(
            f"mu={params.mu} not below omega1*omega2={params.omega1 * params.omega2}"
        )
    if params.omega2 > params.omega1:
        cp = crossing_point(params)
        if cp.v_fast >= params.c2:
            warnings.warn(
                f"fast crossing speed v_fast={cp.v_fast:.6g} >= c2={params.c2}: "
                "zone classification untested in this regime",
                UnsupportedRegime,
                stacklevel=2,
            )
    return params


_PARAM_KEYS = ("c1", "c2", "omega1", "omega2", "mu", "f1", "f2")


def load_params(source) -> WaveguideParams:
    """Build validated :class:`WaveguideParams` from a JSON file path or dict.

    Unknown keys are rejected by name; c1, c2, omega1, omega2, mu are
    required, f1/f2 default to (1, 0).
    """
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParameterFileError(f"cannot read parameter file {source!r}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParameterFileError("parameter file must hold a JSON object")
    unknown = sorted(set(data) - set(_PARAM_KEYS))
    if unknown:
        raise ParameterFileError(f"unknown parameter key(s): {', '.join(unknown)}")
    missing = [k for k in _PARAM_KEYS[:5] if k not in data]
    if missing:
        raise ParameterFileError(f"missing required parameter key(s): {', '.join(missing)}")
    clean = {}
    for key, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParameterFileError(f"parameter {key!r} must be a number, got {value!r}")
        clean[key] = float(value)
    return validate(WaveguideParams(**clean))


# ---------------------------------------------------------------------------
# the matrix symbol: its entries and partial derivatives, written out once


def symbol_pq(omega, k, params: WaveguideParams):
    """Diagonal entries (P, Q) of the matrix symbol; D = P Q - mu^2.

    Accepts scalars or broadcastable arrays, real or complex.
    """
    w2 = omega**2
    k2 = k**2
    return w2 - params.omega1**2 - params.c1**2 * k2, w2 - params.omega2**2 - params.c2**2 * k2


def symbol_dk(k, P, Q, params: WaveguideParams):
    """d_k D = -2 k (c1^2 Q + c2^2 P), from the entries at (omega, k)."""
    return -2.0 * k * (params.c1**2 * Q + params.c2**2 * P)


def symbol_dw(omega, P, Q):
    """d_omega D = 2 omega (P + Q), from the entries at (omega, k)."""
    return 2.0 * omega * (P + Q)


def symbol_second(omega, k, P, Q, params: WaveguideParams):
    """Second partials (D_kk, D_ww, D_wk) of D, from the entries at (omega, k)."""
    c1s, c2s = params.c1**2, params.c2**2
    Dkk = -2.0 * (c1s * Q + c2s * P) + 8.0 * (c1s * c2s) * k**2
    Dww = 2.0 * (P + Q) + 8.0 * omega**2
    Dwk = -4.0 * omega * k * (c1s + c2s)
    return Dkk, Dww, Dwk


def symbol_numerator(P, Q, params: WaveguideParams):
    """Components of adj(symbol) @ f: (Q f1 - mu f2, P f2 - mu f1)."""
    return Q * params.f1 - params.mu * params.f2, P * params.f2 - params.mu * params.f1


def dispersion_D(omega, k, params: WaveguideParams):
    """Determinant D(omega, k) of the Fourier-domain matrix symbol.

    Accepts scalars or broadcastable arrays, real or complex.
    """
    P, Q = symbol_pq(omega, k, params)
    return P * Q - params.mu**2


def amplitude_A(omega, k, params: WaveguideParams) -> np.ndarray:
    """Numerator vector adj(symbol) @ f of the transformed field.

    The physical transform is amplitude_A / D.  For the default forcing
    (f1, f2) = (1, 0) this is (Q, -mu).  Returns an array whose leading axis
    has length 2; scalar omega, k give shape (2,).
    """
    P, Q = symbol_pq(omega, k, params)
    return np.stack(np.broadcast_arrays(*symbol_numerator(P, Q, params)))


def modal_weight(omega, k, params: WaveguideParams) -> np.ndarray:
    """Residue weight A / d_k D of the transformed field at a root of D.

    Same shape convention as :func:`amplitude_A`.  The division is done in
    place, so array calls (the oracle's sample blocks) make no extra copy.
    """
    P, Q = symbol_pq(omega, k, params)
    h = np.stack(np.broadcast_arrays(*symbol_numerator(P, Q, params)))
    h /= symbol_dk(k, P, Q, params)
    return h


# ---------------------------------------------------------------------------
# crossing of the uncoupled branches


@dataclasses.dataclass(frozen=True)
class CrossingPoint:
    """Intersection of the uncoupled layer dispersion curves.

    :param omega_c: crossing frequency.
    :param k_c: crossing wavenumber (> 0).
    :param v_fast: group speed of the uncoupled fast layer there, c1^2 k_c / omega_c.
    :param v_slow: group speed of the uncoupled slow layer there, c2^2 k_c / omega_c.
    """

    omega_c: float
    k_c: float
    v_fast: float
    v_slow: float


@functools.lru_cache(maxsize=64)
def crossing_point(params: WaveguideParams) -> CrossingPoint:
    """Solve omega^2 = omega_j^2 + c_j^2 k^2 simultaneously for both layers.

    Exists (at k > 0) iff c1 != c2 and omega2 > omega1; independent of mu.
    Cached per parameter set (the record is frozen, so callers share it).
    """
    dc2 = params.c1**2 - params.c2**2
    if dc2 == 0.0:
        raise DegenerateSpeeds(f"c1 == c2: uncoupled branches do not cross, got c1={params.c1!r}, c2={params.c2!r}")
    k2 = (params.omega2**2 - params.omega1**2) / dc2
    if k2 <= 0.0:
        raise OrderingViolation(f"no positive-k crossing: need omega2 > omega1 with c1 > c2, got omega1="
                                f"{params.omega1!r}, omega2={params.omega2!r}, c1={params.c1!r}, c2={params.c2!r}")
    k_c = math.sqrt(k2)
    omega_c = math.sqrt(params.omega1**2 + (params.c1 * k_c) ** 2)
    return CrossingPoint(
        omega_c=omega_c,
        k_c=k_c,
        v_fast=params.c1**2 * k_c / omega_c,
        v_slow=params.c2**2 * k_c / omega_c,
    )


# ---------------------------------------------------------------------------
# the exchange pulse


@dataclasses.dataclass(frozen=True)
class JParameters:
    """Stretched coordinates of the exchange pulse at one (t, x)."""

    xi: float        # time stretch of the pulse envelope
    b: float         # Bessel argument, >= 0 inside the wedge, NaN outside
    drift: float     # centered time in stretch units
    scale: float     # loop-integral second parameter
    c_norm: float    # pulse normalisation c1^2 c2^2 k_c^2 (1/v_slow - 1/v_fast)

    @property
    def inside(self) -> bool:
        return bool(np.isfinite(self.b))


def j_parameters(t: float, x: float, params: WaveguideParams) -> JParameters:
    """Exchange-pulse coordinates at (t, x).

    b = mu sqrt((t - x/v_fast)(x/v_slow - t)) / (c1 c2 k_c (1/v_slow - 1/v_fast))
    is real and >= 0 inside the wedge x/v_fast <= t <= x/v_slow and NaN
    outside it; it vanishes identically when mu = 0 (no exchange).
    """
    cp = crossing_point(params)
    inv_gap = 1.0 / cp.v_slow - 1.0 / cp.v_fast
    ck = params.c1 * params.c2 * cp.k_c
    xi = ck * inv_gap / params.mu if params.mu > 0 else math.inf
    drift = (t - 0.5 * x * (1.0 / cp.v_fast + 1.0 / cp.v_slow)) / xi if params.mu > 0 else 0.0
    scale = x * params.mu / (2.0 * ck)
    if x / cp.v_fast <= t <= x / cp.v_slow:
        b = params.mu * math.sqrt((t - x / cp.v_fast) * (x / cp.v_slow - t)) / (ck * inv_gap)
    else:
        b = math.nan
    c_norm = (params.c1 * params.c2) ** 2 * cp.k_c**2 * inv_gap
    return JParameters(xi=xi, b=b, drift=drift, scale=scale, c_norm=c_norm)
