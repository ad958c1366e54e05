"""Self-contained Bessel J0 and Airy Ai / Ai' for the asymptotic field terms.

These are deliberately independent implementations (power series inside a
seam radius, Hankel-type asymptotic expansions outside) so the closed-form
exchange-pulse and Airy-transition terms never lean on the same library code
that the tests use as an oracle.  Real arguments only; target absolute error
below 1e-9 on [-20, 20] and graceful decay beyond.

Series/seam layout:

    bessel_j0 : Maclaurin for |x| <= 12, cos/sin asymptotics beyond.
    airy_pair : Ai and Ai' together (airy_ai and airy_ai_prime are its
                halves); Maclaurin for |z| <= 6.5, exponential/oscillatory
                expansions beyond.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["bessel_j0", "airy_pair", "airy_ai", "airy_ai_prime"]

_J0_SEAM = 12.0
_AIRY_SEAM = 6.5

#: Ai(0) = 3^(-2/3)/Gamma(2/3), Ai'(0) = -3^(-1/3)/Gamma(1/3)
_AI0 = 0.3550280538878172392600631860041831763980
_AIP0 = -0.2588194037928067984051835601892039634793


def _as_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


# ---------------------------------------------------------------------------
# Bessel J0


def _j0_series(x):
    # J0 = sum_m (-q)^m / (m!)^2, q = x^2/4; stable to ~4e-13 at |x| = 12
    q = 0.25 * x * x
    term = np.ones_like(x)
    total = np.ones_like(x)
    for m in range(1, 60):
        term = term * (-q) / (m * m)
        total = total + term
        if np.max(np.abs(term)) < 1e-18:
            break
    return total

def _hankel_ab(inv_x2, n_terms):
    """Even/odd Hankel sums as polynomials in 1/x^2.

    a_m = prod_{j<=m} (2j-1)^2 / (m! 8^m); even-index terms feed the cosine
    sum, odd-index the sine sum (the caller supplies its extra 1/x).
    """
    a = 1.0
    even_coeffs = [1.0]
    odd_coeffs = []
    for m in range(1, 2 * n_terms):
        a = a * (2 * m - 1) ** 2 / (8.0 * m)
        if m % 2 == 0:
            even_coeffs.append(a * (-1.0) ** (m // 2))
        else:
            odd_coeffs.append(a * (-1.0) ** ((m - 1) // 2))
    p = np.zeros_like(inv_x2)
    for c in reversed(even_coeffs):
        p = p * inv_x2 + c
    q = np.zeros_like(inv_x2)
    for c in reversed(odd_coeffs):
        q = q * inv_x2 + c
    return p, q


def _j0_asymptotic(x):
    # J0 ~ sqrt(2/(pi x)) [cos(chi) P(1/x^2) + sin(chi) Q(1/x^2)/x], chi = x - pi/4;
    # beyond |x| ~ 1e154 x^2 overflows and 1/x^2 = 0, and at +-inf, where
    # cos(chi) is NaN, J0 takes its limit 0
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        inv_x2 = 1.0 / (ax * ax)
        p, q = _hankel_ab(inv_x2, n_terms=9)
        chi = ax - 0.25 * math.pi
        j0 = np.sqrt(2.0 / (math.pi * ax)) * (np.cos(chi) * p + np.sin(chi) * q / ax)
    return np.where(np.isinf(ax), 0.0, j0)


def bessel_j0(x):
    """Bessel function of the first kind, order zero, for real argument.

    NaN gives NaN, and at +-inf J0 takes its limit 0, without a warning.
    """
    arr, scalar = _as_array(x)
    a = np.atleast_1d(arr)
    out = np.empty_like(a)
    inner = np.abs(a) <= _J0_SEAM
    if inner.any():
        out[inner] = _j0_series(a[inner])
    if (~inner).any():
        out[~inner] = _j0_asymptotic(a[~inner])
    return float(out[0]) if scalar else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Airy Ai and Ai'


def _airy_maclaurin(z):
    """Ai and Ai' from the two entire solutions f, g of w'' = z w."""
    z = np.asarray(z, dtype=float)
    z3 = z**3
    # f  = sum c_k z^{3k},    c_0 = 1,  c_{k+1} = c_k /((3k+2)(3k+3))
    # g  = sum d_k z^{3k+1},  d_0 = 1,  d_{k+1} = d_k /((3k+3)(3k+4))
    f_term = np.ones_like(z)
    f_sum = np.ones_like(z)
    g_term = z.copy()
    g_sum = z.copy()
    fp_term = np.zeros_like(z)  # f' k=0 term vanishes
    fp_sum = np.zeros_like(z)
    gp_term = np.ones_like(z)
    gp_sum = np.ones_like(z)
    for k in range(0, 80):
        f_term = f_term * z3 / ((3 * k + 2) * (3 * k + 3))
        f_sum = f_sum + f_term
        g_term = g_term * z3 / ((3 * k + 3) * (3 * k + 4))
        g_sum = g_sum + g_term
        # f'(z) = sum_{k>=1} 3k c_k z^{3k-1}; seed at k=1 is z^2/2
        if k == 0:
            fp_term = 0.5 * z * z
        else:
            fp_term = fp_term * z3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
        fp_sum = fp_sum + fp_term
        # g'(z) = sum_k (3k+1) d_k z^{3k}; ratio z^3/((3k+1)(3k+3))
        gp_term = gp_term * z3 / ((3 * k + 1) * (3 * k + 3))
        gp_sum = gp_sum + gp_term
        if np.max(np.abs(f_term)) < 1e-18 and np.max(np.abs(g_term)) < 1e-18:
            break
    ai = _AI0 * f_sum + _AIP0 * g_sum
    aip = _AI0 * fp_sum + _AIP0 * gp_sum
    return ai, aip


def _airy_u_v(n_max=24):
    """Asymptotic coefficient tables u_k, v_k for the Airy expansions.

    u_0 = 1, u_{k+1} = u_k (6k+1)(6k+3)(6k+5) / (216 (k+1)(2k+1));
    v_k = u_k (6k+1)/(1-6k).  Sums get truncated at the smallest term
    (Poincare series).
    """
    u = [1.0]
    v = [1.0]
    uk = 1.0
    for k in range(n_max):
        uk = uk * (6 * k + 1) * (6 * k + 3) * (6 * k + 5) / (216.0 * (k + 1) * (2 * k + 1))
        u.append(uk)
        v.append(uk * (6 * (k + 1) + 1) / (1.0 - 6 * (k + 1)))
    return np.array(u), np.array(v)


_U_COEF, _V_COEF = _airy_u_v()


def _airy_decay(z):
    """Right-side expansions: Ai ~ e^{-zeta}/(2 sqrt(pi) z^{1/4}) sum (-1)^k u_k zeta^-k."""
    zeta = (2.0 / 3.0) * z**1.5
    n = len(_U_COEF)
    # (-1/zeta)^k by repeated multiplication, one row per k
    steps = np.concatenate((np.ones((1, z.size)), np.broadcast_to(-1.0 / zeta, (n - 1, z.size))))
    tk = np.multiply.accumulate(steps, axis=0)
    terms_u = _U_COEF[:, None] * tk
    terms_v = _V_COEF[:, None] * tk
    # Poincare truncation: each element sums, in order, the terms before its
    # own first growing one, so an array call returns the scalar calls' values
    grows = np.abs(terms_u[1:]) > np.abs(terms_u[:-1])
    last = np.where(grows.any(axis=0), grows.argmax(axis=0), n - 1)[None]
    su = np.take_along_axis(np.cumsum(terms_u, axis=0), last, axis=0)[0]
    sv = np.take_along_axis(np.cumsum(terms_v, axis=0), last, axis=0)[0]
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    ai = pref * su / z**0.25
    aip = -pref * sv * z**0.25
    return ai, aip


def _airy_oscillatory(z):
    """Left-side expansions at -x, x > 0, phase zeta + pi/4."""
    x = -z
    zeta = (2.0 / 3.0) * x**1.5
    inv2 = 1.0 / (zeta * zeta)
    n_pairs = len(_U_COEF) // 2
    # sums over even/odd coefficient index with alternating signs
    u_even = np.zeros_like(x)
    u_odd = np.zeros_like(x)
    v_even = np.zeros_like(x)
    v_odd = np.zeros_like(x)
    t_even = np.ones_like(x)
    for k in range(n_pairs):
        s = (-1.0) ** k
        u_even = u_even + s * _U_COEF[2 * k] * t_even
        v_even = v_even + s * _V_COEF[2 * k] * t_even
        u_odd = u_odd + s * _U_COEF[2 * k + 1] * t_even / zeta
        v_odd = v_odd + s * _V_COEF[2 * k + 1] * t_even / zeta
        t_even = t_even * inv2
    arg = zeta + 0.25 * math.pi
    sin_a, cos_a = np.sin(arg), np.cos(arg)
    ai = (sin_a * u_even - cos_a * u_odd) / (math.sqrt(math.pi) * x**0.25)
    aip = -(cos_a * v_even + sin_a * v_odd) * x**0.25 / math.sqrt(math.pi)
    return ai, aip


def airy_pair(x):
    """(Ai, Ai') for real argument, from one evaluation of each region's series.

    NaN gives NaN; at +inf both are 0, and at -inf Ai is 0 and Ai', whose
    oscillation grows like |x|^(1/4), is NaN.
    """
    arr, scalar = _as_array(x)
    a = np.atleast_1d(arr).astype(float)
    ai = np.where(np.isinf(a), 0.0, np.nan)
    aip = np.where(a == np.inf, 0.0, np.nan)
    mid = np.abs(a) <= _AIRY_SEAM
    right = (a > _AIRY_SEAM) & (a < np.inf)
    left = (a < -_AIRY_SEAM) & (a > -np.inf)
    if mid.any():
        ai[mid], aip[mid] = _airy_maclaurin(a[mid])
    if right.any():
        ai[right], aip[right] = _airy_decay(a[right])
    if left.any():
        ai[left], aip[left] = _airy_oscillatory(a[left])
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai.reshape(arr.shape), aip.reshape(arr.shape)


def airy_ai(z):
    """Airy function Ai for real argument."""
    return airy_pair(z)[0]


def airy_ai_prime(z):
    """Derivative Ai' for real argument."""
    return airy_pair(z)[1]
