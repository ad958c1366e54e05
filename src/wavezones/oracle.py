"""Reference evaluations no asymptotics: direct quadrature of the inversion integral.

The displacement is recovered from the shifted-line modal integral

    u(t, x) = 2 Re [ (i / 2 pi) * Integral_0^inf  sum_j A(w, k_j) / d_k D * e^{i (k_j x - w t)} dw ],

where the sum runs over the two k-roots with positive imaginary part and the
line is raised to Im w = eps > 0.  That shift is an exact contour deformation
(the integrand has no singularities above the real axis and conjugate
symmetry makes the half-line rewrite exact), so eps is a numerical knob:

  * interior points use a small eps (large eps would inflate e^{-i w t});
  * silent points (t <= 0 or x >= c1 t) use a large eps, which multiplies
    the whole integrand by e^{eps (t - x / v)} << 1 and lets causality and
    the supersonic silence emerge to near machine level.

Refinement nests: each level doubles the interval count of both panels, so
its trapezoid sum is the previous level's sum plus only the new odd-indexed
samples, and a point that stops after d doublings has evaluated each sample of
its finest grid exactly once.  Successive levels are compared as a Richardson
estimate, reported through :class:`NoConvergence` on failure.  Samples are
evaluated in fixed blocks of :data:`_BLOCK`, small enough that the integrand's
temporaries stay in cache.

The module also carries the scalar one-layer references and the direct loop
quadrature of the exchange-pulse integral, used as oracles in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .dispersion import k_squared_roots
from .errors import NoConvergence, OutsideFarZone, OutsideWedge
from .model import (
    WaveguideParams,
    crossing_point,
    j_parameters,
    modal_weight,
    symbol_dk,
    symbol_dw,
    symbol_numerator,
    symbol_pq,
)
from .special import bessel_j0

__all__ = [
    "field_modal_integral",
    "scalar_kg_exact",
    "scalar_kg_far",
    "j_int_quadrature",
]


#: density doublings attempted before giving up
_MAX_REFINEMENT = 3
#: relative Richardson target
_TOL = 3e-4
#: absolute convergence floor (silent-zone values)
_ABS_FLOOR = 1e-8
#: samples evaluated at once: a block's complex temporaries are 512 KB each,
#: so the few alive at a time stay in cache (400k-sample blocks, 6.4 MB
#: temporaries, cost 1.1-1.4x more per sample and 3x the peak memory)
_BLOCK = 32_768


def _auto_epsilon(t: float, x: float, c1: float) -> float:
    slack = x / c1 - t
    if t > 0.0 and slack < 0.0:
        return min(1e-3, 0.25 / max(t, 1.0))
    # silent region: push the contour up until e^{-eps * slack} is negligible
    if t <= 0.0:
        slack = abs(t) + x / c1
    return min(10.0, 30.0 / max(slack, 3.0))


def _sqrt_upper(r):
    s = np.sqrt(r)
    return np.where(s.imag < 0.0, -s, s)


def _modal_sum(omega, x, t, params: WaveguideParams):
    """sum over the two Im k > 0 roots of A / d_k D * e^{i (k x - omega t)}, shape (2, n)."""
    out = None
    for r in k_squared_roots(omega, params):
        k = _sqrt_upper(r)
        term = modal_weight(omega, k, params)
        term *= np.exp(1j * (k * x - omega * t))
        out = term if out is None else out + term
    return out


def _tail_correction(w_end, t, x, params: WaveguideParams):
    """Leading integration-by-parts tail of the truncated modal integral.

    integral_L^inf a e^{i phi} dw ~ i a(L) e^{i phi(L)} / phi'(L) per root,
    which removes the O(1/(L tau)) truncation error.  Roots whose phase is
    nearly stationary at the truncation point are skipped (the correction
    would be invalid there; refinement reporting covers that case).
    """
    tail = np.zeros(2, dtype=complex)
    for r in k_squared_roots(w_end, params):
        k = complex(_sqrt_upper(r))
        P, Q = symbol_pq(w_end, k, params)
        Dk = symbol_dk(k, P, Q, params)
        rate = (-symbol_dw(w_end, P, Q) / Dk) * x - t
        if abs(rate) < 0.1:
            continue
        f = np.array(symbol_numerator(P, Q, params), dtype=complex)
        tail += 1j * f / Dk * np.exp(1j * (k * x - w_end * t)) / rate
    return tail


def _sample_sum(t, x, lo, h, first, stride, count, eps, params):
    """Sum of the modal integrand at omega = lo + h (first + stride j) + i eps, j < count."""
    total = np.zeros(2, dtype=complex)
    for j0 in range(0, count, _BLOCK):
        j1 = min(j0 + _BLOCK, count)
        idx = np.arange(first + stride * j0, first + stride * j1, stride, dtype=float)
        total += _modal_sum(lo + h * idx + 1j * eps, x, t, params).sum(axis=1)
    return total


def field_modal_integral(t: float, x: float, params: WaveguideParams, return_info: bool = False):
    """Displacement pair u(t, x) by direct quadrature (the numeric oracle).

    Returns a real length-2 array; with return_info=True also a dict holding
    the contour height, truncation, final density, Richardson estimate, the
    number of integrand samples evaluated and the number of doublings made.
    Raises :class:`NoConvergence` when doubling the density never brings the
    Richardson estimate under tolerance.
    """
    if x < 0.0:
        raise ValueError("field is evaluated for x >= 0 (it is even in x)")
    cp = crossing_point(params)
    eps = _auto_epsilon(t, x, params.c1)
    w_split = max(8.0, 1.2 * cp.omega_c)
    w_max = max(50.0 * cp.omega_c, w_split + 20.0)
    # base sample density on the outer panel, scaled with the phase rate;
    # the cutoff panel [0, w_split] is always sampled 4x denser
    ppu = max(600.0, 3.0 * (x / params.c2 + abs(t)))

    tail = _tail_correction(w_max + 1j * eps, t, x, params)
    panels = [
        (0.0, w_split, max(64, int(4.0 * ppu * w_split))),
        (w_split, w_max, max(64, int(ppu * (w_max - w_split)))),
    ]

    def value(sums, level):
        raw = sum(s * ((hi - lo) / (n << level)) for s, (lo, hi, n) in zip(sums, panels))
        return 2.0 * np.real((raw + tail) * (1j / (2.0 * math.pi)))

    # level 0: interior samples at full weight, the two ends at half weight
    sums = [
        _sample_sum(t, x, lo, (hi - lo) / n, 1, 1, n - 1, eps, params)
        + 0.5 * _sample_sum(t, x, lo, hi - lo, 0, 1, 2, eps, params)
        for lo, hi, n in panels
    ]
    prev = value(sums, 0)
    est = math.inf
    for level in range(1, _MAX_REFINEMENT + 1):
        # level d halves the spacing: only the odd-indexed samples are new
        for i, (lo, hi, n) in enumerate(panels):
            new = n << (level - 1)
            sums[i] += _sample_sum(t, x, lo, (hi - lo) / (2 * new), 1, 2, new, eps, params)
        cur = value(sums, level)
        est = float(np.max(np.abs(cur - prev))) / 3.0
        scale = float(np.max(np.abs(cur)))
        if est <= max(_TOL * scale, _ABS_FLOOR):
            if return_info:
                return cur, {
                    "epsilon": eps,
                    "omega_max": w_max,
                    "points_per_unit": ppu * 2**level,
                    "richardson": est,
                    "samples": sum((n << level) + 1 for _, _, n in panels),
                    "doublings": level,
                }
            return cur
        prev = cur
    raise NoConvergence(
        f"modal quadrature not converged at t={t:.6g}, x={x:.6g} (density {ppu * 2**_MAX_REFINEMENT:.0f}/unit)",
        achieved=est,
    )


# ---------------------------------------------------------------------------
# scalar one-layer references


def scalar_kg_exact(t: float, x: float, c: float, Omega: float) -> float:
    """Impulse response of a single layer: -J0(Omega sqrt(t^2 - x^2/c^2))/(2c).

    Zero outside the cone |x| >= c t (and for t <= 0).
    """
    if t <= 0.0 or abs(x) >= c * t:
        return 0.0
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    return -bessel_j0(z) / (2.0 * c)


def scalar_kg_far(t: float, x: float, c: float, Omega: float, S: float = 3.0) -> float:
    """Large-argument form -cos(z - pi/4) / (c sqrt(2 pi z)), z = Omega tau.

    Valid in the far zone z > S; raises :class:`OutsideFarZone` elsewhere.
    """
    if t <= 0.0 or abs(x) >= c * t:
        raise OutsideFarZone("outside the propagation cone")
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    if z <= S:
        raise OutsideFarZone(f"phase argument z={z:.3g} not beyond S={S:.3g}")
    return -math.cos(z - 0.25 * math.pi) / (c * math.sqrt(2.0 * math.pi * z))


# ---------------------------------------------------------------------------
# exchange pulse by direct loop quadrature


def j_int_quadrature(t: float, x: float, params: WaveguideParams):
    """Exchange-pulse contribution by quadrature of its loop integral.

    The closed-form term (Bessel J0) must agree with this to high accuracy;
    the loop is parametrized as tau = i sin(theta), where the integrand
    becomes i exp(drift sin(theta) + i scale cos(theta)) in the pulse
    coordinates of :func:`j_parameters`, and the periodic trapezoid converges
    geometrically from 64 up to 64 * 2^10 nodes.  Accuracy degrades once
    |drift| is large enough that e^{|drift|} swamps double precision; keep it
    moderate (< ~20).
    """
    jp = j_parameters(t, x, params)
    cp = crossing_point(params)
    if not jp.inside:
        raise OutsideWedge(f"(t={t:.6g}, x={x:.6g}) outside [{x/cp.v_fast:.6g}, {x/cp.v_slow:.6g}]")
    if params.mu == 0.0:
        return np.zeros(2, dtype=complex)
    amp = np.array(symbol_numerator(0.0, 0.0, params), dtype=complex)  # P = Q = 0 at the crossing
    pref = 1j * amp * np.exp(1j * (cp.k_c * x - cp.omega_c * t)) / (8.0 * math.pi * jp.c_norm)

    def loop(n):
        theta = 2.0 * math.pi * np.arange(n) / n
        f = np.exp(jp.drift * np.sin(theta) + 1j * jp.scale * np.cos(theta))
        return 1j * (2.0 * math.pi / n) * np.sum(f)

    n = 64
    prev = loop(n)
    while n < 64 << 10:
        n *= 2
        cur = loop(n)
        if abs(cur - prev) <= 1e-10 * max(abs(cur), 1e-300):
            return pref * cur
        prev = cur
    raise NoConvergence(
        f"exchange-pulse loop quadrature not converged (|drift|={abs(jp.drift):.3g})",
        achieved=abs(cur - prev) / max(abs(cur), 1e-300),
    )
