"""Asymptotic term families of the transient field.

Every term here is a right-half-plane contribution: the physical field is

    u(t, x) = 2 Re [ sum of terms ],

and each evaluator folds in the i/(2 pi) inversion prefactor so the terms
of one point can be summed directly.  Families:

  * stationary-point terms, real or complex saddle (x^{-1/2} spreading);
  * Airy terms near a group-velocity extremum: one uniform two-saddle
    (Chester-Friedman-Ursell) form on both sides of the extremum, from the
    real pair or a complex saddle and its conjugate, and the classical
    one-point form only where the pair is missing (V = v_e to rounding);
  * the exchange pulse (Bessel J0 carrier at the crossing frequency)
    inside its wedge;
  * the cut-encircling special function q_function used by the
    quasi-intersection regime.

assemble_field ties these to the zone classifier and is the public
entry point for evaluating the field at one (t, x).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import oracle, zones
from .errors import DegenerateCurvature, InvalidArgument, NoConvergence, OutsideWedge, UnknownLabel, WrongSignCurvature
from .model import WaveguideParams, amplitude_A, crossing_point, j_parameters, modal_weight
from .saddle import SaddlePoint, find_complex_saddles, find_real_saddles, merge_families, pair_is_real
# airy_ai_prime is unused here, but perfbench/spans.py rebinds it (with
# airy_ai and bessel_j0) in this module, and its install() fails without it
from .special import airy_ai, airy_ai_prime, airy_pair, bessel_j0
from .zones import TermDescriptor

__all__ = [
    "FieldValue",
    "sp_term",
    "airy_term",
    "j_term",
    "q_function",
    "assemble_field",
]

_TWO_PI = 2.0 * math.pi


@dataclasses.dataclass
class FieldValue:
    """Assembled field at one point: u = 2 Re(sum of term values)."""

    u: np.ndarray
    zone: object
    terms: list[TermDescriptor]
    used_oracle: bool


def sp_term(sp: SaddlePoint, t: float, x: float, params: WaveguideParams) -> np.ndarray:
    """Stationary-point contribution of one saddle (real or complex).

    (i / 2 pi) * h * sqrt(2 pi / (-i alpha x)) * exp(i (k* x - omega* t))
    with the principal square root; for real saddles this reproduces the
    classical form with phase offset sign(alpha) * pi/4, for complex ones
    the exponential decays.  Requires x > 0 and a nondegenerate curvature.
    """
    if x <= 0.0:
        raise InvalidArgument(f"stationary-point term needs x > 0, got x={x!r}")
    if abs(sp.alpha) < 1e-12:
        raise DegenerateCurvature(f"curvature {sp.alpha!r} too small for an isolated-saddle form")
    h = modal_weight(sp.omega_star, sp.k_star, params)
    root = np.sqrt(_TWO_PI / (-1j * sp.alpha * x))
    phase = np.exp(1j * (sp.k_star * x - sp.omega_star * t))
    return (1j / _TWO_PI) * h * root * phase


# ---------------------------------------------------------------------------
# Airy family


def _pair_calibrated(p: SaddlePoint, q: SaddlePoint, t, x, params) -> np.ndarray:
    """Chester-Friedman-Ursell (uniform two-saddle) Airy form of the merging pair p, q.

    With phi = k* x - omega* t and sp_term's amplitudes S = h sqrt(2 pi / (-i alpha x))
    turned to A_p = S_p e^{-i pi/4}, A_q = S_q e^{i pi/4}, the value is
    (i / 2 pi) sqrt(pi) e^{i (phi_p + phi_q) / 2} [(A_p + A_q) z4 Ai(zeta) - i (A_p - A_q) Ai'(zeta) / z4],
    xi = (3/4 |phi_q - phi_p|)^{2/3}, z4 = (-zeta)^{1/4} (principal roots).  A real
    pair (p the member with alpha > 0) has zeta = -xi; a complex saddle p with its
    conjugate q has zeta = +xi, and the form tends to p's sp_term as xi grows.
    """
    if p.is_real:
        if not (p.alpha.real > 0) ^ (q.alpha.real > 0):
            raise WrongSignCurvature(f"pair calibration needs opposite-curvature saddles, got alpha={p.alpha.real:.6g} "
                                     f"(family {p.index}) and alpha={q.alpha.real:.6g} (family {q.index})")
        if q.alpha.real > 0:
            p, q = q, p
    phi_p, phi_q = (s.k_star * x - s.omega_star * t for s in (p, q))
    xi = (0.75 * abs(phi_q - phi_p)) ** (2.0 / 3.0)
    zeta = -xi if p.is_real else xi
    z4 = (-zeta + 0j) ** 0.25
    rot = complex(math.sqrt(0.5), -math.sqrt(0.5))  # e^{-i pi/4}
    a_p, a_q = (modal_weight(s.omega_star, s.k_star, params) * np.sqrt(_TWO_PI / (-1j * s.alpha * x)) * r
                for s, r in ((p, rot), (q, rot.conjugate())))
    ai, aip = airy_pair(zeta)
    bracket = (a_p + a_q) * z4 * ai - 1j * (a_p - a_q) * aip / z4
    return (1j / _TWO_PI) * math.sqrt(math.pi) * np.exp(0.5j * (phi_p + phi_q)) * bracket


def _local_airy(ext, t, x, params) -> np.ndarray:
    """Classical one-point Airy form, exact at V = v_e."""
    a = ext.cubic_coeff
    V = x / t
    s = math.copysign(1.0, a) * (x * x / abs(a)) ** (1.0 / 3.0) * (1.0 / V - 1.0 / ext.v_e)
    h = modal_weight(complex(ext.omega_e), complex(ext.k_e), params)
    carrier = np.exp(1j * (ext.k_e * x - ext.omega_e * t))
    return 1j * h * airy_ai(s) * carrier / (x * abs(a)) ** (1.0 / 3.0)


def airy_term(ext, t: float, x: float, params: WaveguideParams) -> np.ndarray:
    """Airy contribution of the group-velocity extremum ext at (t, x).

    The two-saddle form on both sides of v_e; the one-point form only where the
    pair is missing (V = v_e to rounding).  The extremum kind must match its
    curvature sign (WrongSignCurvature otherwise).
    """
    if x <= 0.0 or t <= 0.0:
        raise InvalidArgument(f"Airy term needs t > 0 and x > 0, got t={t!r}, x={x!r}")
    if (ext.kind == "min") != (ext.cubic_coeff > 0):
        raise WrongSignCurvature(f"extremum kind {ext.kind!r} contradicts cubic coefficient {ext.cubic_coeff:.3g}")
    V = x / t
    pair, partner = merge_families(ext)
    if pair_is_real(ext, V):
        got = {s.index: s for s in find_real_saddles(V, params)}
        if all(i in got for i in pair):
            return _pair_calibrated(*(got[i] for i in pair), t, x, params)
    else:
        # the pair's other member is the kept saddle's conjugate: D has real coefficients
        for p in find_complex_saddles(V, params):
            if p.index == partner:
                conj = {f: getattr(p, f).conjugate() for f in ("omega_star", "k_star", "alpha", "g")}
                return _pair_calibrated(p, dataclasses.replace(p, **conj), t, x, params)
    return _local_airy(ext, t, x, params)


# ---------------------------------------------------------------------------
# exchange pulse


def j_term(t: float, x: float, params: WaveguideParams) -> np.ndarray:
    """Exchange-pulse contribution inside the wedge x/v_fast <= t <= x/v_slow.

    -A(omega_c, k_c) e^{i (k_c x - omega_c t)} J0(b) / (4 Cn) with
    Cn = c1^2 c2^2 k_c^2 (1/v_slow - 1/v_fast); lives in component 2 for
    excitation (1, 0) since the crossing amplitude is (0, -mu).
    """
    if params.mu <= 0.0:
        raise OutsideWedge(f"no exchange pulse without interlayer coupling, got mu={params.mu!r}")
    jp = j_parameters(t, x, params)
    cp = crossing_point(params)
    if not jp.inside:
        raise OutsideWedge(f"(t={t:.6g}, x={x:.6g}) outside [{x/cp.v_fast:.6g}, {x/cp.v_slow:.6g}]")
    amp = amplitude_A(complex(cp.omega_c), complex(cp.k_c), params)
    carrier = np.exp(1j * (cp.k_c * x - cp.omega_c * t))
    return -amp * carrier * bessel_j0(jp.b) / (4.0 * jp.c_norm)


# ---------------------------------------------------------------------------
# the cut-encircling special function


def _w_odd(tau):
    """Odd square root of 1 + tau^2 with the finite cut [-i, i]."""
    return tau * np.sqrt(1.0 + 1.0 / tau**2)


def _q_loop(z: float, rel_tol: float) -> complex:
    """Closed-loop realization (the beta = 0 case): i * int_0^2pi e^{i cos - z sin}."""
    n = 64
    prev = None
    while n <= (1 << 20):
        theta = _TWO_PI * np.arange(n) / n
        cur = 1j * (_TWO_PI / n) * np.sum(np.exp(1j * np.cos(theta) - z * np.sin(theta)))
        change = math.inf if prev is None else abs(cur - prev)
        if change <= max(rel_tol * abs(cur), 1e-13):
            return complex(cur)
        prev = cur
        n *= 2
    raise NoConvergence(f"loop quadrature for the cut integral did not settle at z={z!r}, rel_tol={rel_tol!r} "
                        f"with {n // 2} nodes", achieved=change)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def _gl_path(f, a: complex, b: complex, n_panels: int) -> complex:
    """64-point Gauss-Legendre on n_panels equal panels of the segment [a, b]."""
    edges = np.linspace(0.0, 1.0, n_panels + 1)
    total = 0.0 + 0.0j
    d = b - a
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid = a + d * 0.5 * (lo + hi)
        half = d * 0.5 * (hi - lo)
        tau = mid + half * _GL_NODES
        total += half * np.sum(_GL_WEIGHTS * f(tau))
    return total


#: panel doublings q_function attempts before reporting NoConvergence
_Q_DOUBLINGS = 8


def q_function(beta: float, z: float, rel_tol: float = 1e-9) -> complex:
    """The contour special function int_Gamma (1+tau^2)^{-1/2} e^{i(beta tau^2 + z tau + sqrt(1+tau^2))} dtau.

    beta = 0 uses the closed loop around the cut [-i, i]; beta > 0 uses an
    open path entering along e^{i 5pi/4}, passing right of the cut through
    -0.7-1.5i, 0.7-1.5i, 0.7+1.5i, and exiting along e^{i pi/4} (both rays
    in decay sectors of e^{i beta tau^2}).  Step halving drives the result
    below rel_tol; beyond z^2/(8 beta) ~ 30 the integral is intrinsically
    ill-conditioned in double precision (NoConvergence reports it).
    """
    if beta < 0.0:
        raise InvalidArgument(f"beta must be nonnegative, got beta={beta!r}")
    if beta == 0.0:
        return _q_loop(z, rel_tol)

    def f(tau):
        w = _w_odd(tau)
        return np.exp(1j * (beta * tau**2 + z * tau + w)) / w

    # ray length: beta R^2 - 0.71 (1+|z|) R >= 34 kills the tail below 1e-14
    cz = 0.71 * (1.0 + abs(z))
    R = (cz + math.sqrt(cz * cz + 4.0 * beta * 34.0)) / (2.0 * beta)
    a1 = complex(-0.7, -1.5)
    a2 = complex(0.7, -1.5)
    a3 = complex(0.7, 1.5)
    nodes = [a1 + R * np.exp(1j * 1.25 * math.pi), a1, a2, a3, a3 + R * np.exp(1j * 0.25 * math.pi)]

    def whole(mult: int) -> complex:
        total = 0.0 + 0.0j
        for p, q in zip(nodes[:-1], nodes[1:]):
            length = abs(q - p)
            rate = max(2.0 * beta * max(abs(p), abs(q)) + abs(z) + 1.0, 1.0)
            panels = mult * max(1, math.ceil(length * rate / 6.0))
            total += _gl_path(f, p, q, panels)
        return total

    prev = whole(1)
    mult = 2
    diff = math.inf
    for _ in range(_Q_DOUBLINGS):
        cur = whole(mult)
        diff = abs(cur - prev)
        if diff <= max(rel_tol * abs(cur), 1e-13):
            return complex(cur)
        prev = cur
        mult *= 2
    raise NoConvergence(
        f"open-contour quadrature did not settle at beta={beta:.3g}, z={z:.3g}",
        achieved=diff,
    )


# ---------------------------------------------------------------------------
# assembly


def assemble_field(t: float, x: float, params: WaveguideParams, S: float = 3.0) -> FieldValue:
    """Evaluate the field at (t, x) from the zone classification.

    Sums the active asymptotic terms as u = 2 Re(sum); in zones without a
    usable simplification (B, and the quasi-intersection zone Q whose
    closed form is not wired in) the direct quadrature value is returned
    and flagged via used_oracle.  The returned terms are new descriptors
    carrying their values; the classifier's shared ones stay valueless.
    """
    if not (math.isfinite(t) and math.isfinite(x)):
        raise InvalidArgument(f"assemble_field needs finite t and x, got t={t!r}, x={x!r}")
    if x <= 0.0:
        raise InvalidArgument(f"assemble_field needs x > 0, got x={x!r}")
    V = x / t if t > 0.0 else math.inf
    label, descriptors = zones.classify(t, V, params, S)

    if label.primary == "zero":
        return FieldValue(u=np.zeros(2), zone=label, terms=[], used_oracle=False)

    if label.primary in ("B", "Q"):
        u = oracle.field_modal_integral(t, x, params)
        half = (u / 2.0).astype(complex)
        terms = [
            dataclasses.replace(d, value=half if d.kind in ("B", "Q") else np.zeros(2, dtype=complex))
            for d in descriptors
        ]
        return FieldValue(u=np.asarray(u, dtype=float), zone=label, terms=terms, used_oracle=True)

    # real and complex family indices are disjoint
    saddles = {s.index: s for s in find_real_saddles(V, params) + find_complex_saddles(V, params)}
    total = np.zeros(2, dtype=complex)
    terms = []
    for d in descriptors:
        if d.kind in ("SP", "SPe", "J"):
            # J marks saddles riding the exchange pulse.  The pulse is not an
            # extra additive piece: the closed form j_term is the two-wave
            # (uniform) rewrite of the same near-crossing saddle content, so
            # adding it on top of the saddle terms double counts.  Evaluate
            # the members by steepest descent; j_term stays available as the
            # pulse envelope diagnostic.
            value = sum((sp_term(saddles[i], t, x, params) for i in d.saddles), np.zeros(2, dtype=complex))
        elif d.kind == "Ai":
            value = airy_term(d.extremum, t, x, params)
        else:
            raise UnknownLabel(f"unexpected term kind {d.kind!r} in zone {label.primary!r}")
        total += value
        terms.append(TermDescriptor(d.kind, d.saddles, value, d.note, d.extremum))
    return FieldValue(u=2.0 * np.real(total), zone=label, terms=terms, used_oracle=False)
