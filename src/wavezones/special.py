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

Every series is truncated element by element, so an array call returns
exactly the values of the scalar calls on its elements.
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


def _powers(r, n):
    """Rows r^0 .. r^(n-1), each the previous one times r."""
    steps = np.concatenate((np.ones((1, r.size)), np.broadcast_to(r, (n - 1, r.size))))
    return np.multiply.accumulate(steps, axis=0)


def _sum_through(terms, stop):
    """Sum terms[0], terms[1], ... in order, each element through its own first stop row.

    terms is (K, rows, N) and stop (<= K, N); an element with no stop row
    sums all K.  No element's sum depends on the other elements.
    """
    last = np.where(stop.any(axis=0), stop.argmax(axis=0), len(terms) - 1)
    return np.cumsum(terms, axis=0)[last, :, np.arange(len(last))].T


def _maclaurin(head, x, steps, rows):
    """Sums of power series rows: each term after the head is the previous one times x num / den.

    head lists the leading (rows, N) terms and steps the (num, den) columns
    of each later step.  An element's sum stops at its first term whose
    `rows` are all below 1e-18 in magnitude.
    """
    table = list(head)
    for num, den in steps:
        if np.abs(table[-1][rows]).max() < 1e-18:
            break
        table.append(table[-1] * x * num / den)
    table = np.array(table)
    return _sum_through(table, np.abs(table[:, rows]).max(axis=1) < 1e-18)


# ---------------------------------------------------------------------------
# Bessel J0

#: J0 = sum_m (-q)^m / (m!)^2, q = x^2/4: term m is term m-1 times -q / m^2
_J0_STEPS = np.array([[[1], [m * m]] for m in range(1, 60)], dtype=float)[..., None]


def _hankel_table(n_terms=9):
    """Even/odd Hankel coefficients (P, Q rows), highest power of 1/x^2 first.

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
    return np.array([even_coeffs[::-1], odd_coeffs[::-1]]).T[..., None]


_HANKEL = _hankel_table()


def _j0_series(x):
    # stable to ~4e-13 at |x| = 12
    return _maclaurin([np.ones((1, x.size))], -(0.25 * x * x), _J0_STEPS, slice(None))[0]


def _j0_asymptotic(x):
    # J0 ~ sqrt(2/(pi x)) [cos(chi) P(1/x^2) + sin(chi) Q(1/x^2)/x], chi = x - pi/4;
    # beyond |x| ~ 1e154 x^2 overflows and 1/x^2 = 0, and at +-inf, where
    # cos(chi) is NaN, J0 takes its limit 0
    ax = np.abs(x)
    with np.errstate(over="ignore", invalid="ignore"):
        inv_x2 = 1.0 / (ax * ax)
        pq = np.zeros((2, ax.size))
        for c in _HANKEL:  # Horner in 1/x^2, P and Q together
            pq = pq * inv_x2 + c
        p, q = pq
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

#: the Maclaurin rows f = sum c_k z^{3k}, g = sum d_k z^{3k+1} (c_0 = d_0 = 1)
#: and f', g': from step k = 1 on, each term is the previous one times z^3 num / den
_AIRY_STEPS = np.array([
    [[1, 1, k + 1, 1],
     [(3 * k + 2) * (3 * k + 3), (3 * k + 3) * (3 * k + 4), k * (3 * k + 2) * (3 * k + 3), (3 * k + 1) * (3 * k + 3)]]
    for k in range(1, 80)
], dtype=float)[..., None]


def _airy_u_v(n_max=24):
    """Asymptotic coefficient table, one (u_k, v_k) row per k, for the Airy expansions.

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
    return np.array([u, v]).T


_UV = _airy_u_v()
#: the oscillatory sums' rows (u even, v even, u odd, v odd), coefficient
#: pair k signed (-1)^k
_UV_PAIRS = np.hstack((_UV[:-1:2], _UV[1::2])) * (-1.0) ** np.arange(len(_UV) // 2)[:, None]


def _airy_maclaurin(z):
    """Ai and Ai' from the two entire solutions f, g of w'' = z w."""
    z3 = z**3
    one = np.ones_like(z)
    # each row's first two terms; f' has no z^0 term to step from, so its first, z^2/2, is written out
    head = [np.stack([one, z, np.zeros_like(z), one]), np.stack([z3 / 6, z * z3 / 12, 0.5 * z * z, z3 / 3])]
    f, g, fp, gp = _maclaurin(head, z3, _AIRY_STEPS, slice(0, 2))
    return _AI0 * f + _AIP0 * g, _AI0 * fp + _AIP0 * gp


def _airy_decay(z, zeta):
    """Right-side expansions: Ai ~ e^{-zeta}/(2 sqrt(pi) z^{1/4}) sum (-1)^k u_k zeta^-k."""
    terms = _UV[:, :, None] * _powers(-1.0 / zeta, len(_UV))[:, None]
    # Poincare truncation: each element sums the terms before its first growing one
    su, sv = _sum_through(terms, np.abs(terms[1:, 0]) > np.abs(terms[:-1, 0]))
    pref = np.exp(-zeta) / (2.0 * math.sqrt(math.pi))
    return pref * su / z**0.25, -pref * sv * z**0.25


def _airy_oscillatory(x, zeta):
    """Left-side expansions at -x, x > 0, phase zeta + pi/4."""
    with np.errstate(over="ignore"):  # from x ~ 7e102 on, zeta^2 overflows and 1/zeta^2 is 0
        terms = _UV_PAIRS[:, :, None] * _powers(1.0 / (zeta * zeta), len(_UV_PAIRS))[:, None]
    terms[:, 2:] /= zeta
    u_even, v_even, u_odd, v_odd = np.cumsum(terms, axis=0)[-1]
    arg = zeta + 0.25 * math.pi
    sin_a, cos_a = np.sin(arg), np.cos(arg)
    ai = (sin_a * u_even - cos_a * u_odd) / (math.sqrt(math.pi) * x**0.25)
    aip = -(cos_a * v_even + sin_a * v_odd) * x**0.25 / math.sqrt(math.pi)
    return ai, aip


def airy_pair(x):
    """(Ai, Ai') for real argument, from one evaluation of each region's series.

    NaN gives NaN.  Where zeta = (2/3)|x|^(3/2) overflows (|x| beyond about
    3e205, and at +-inf) the limits hold: both are 0 on the right, and on
    the left Ai is 0 and Ai', whose oscillation grows like |x|^(1/4), is NaN.
    """
    arr, scalar = _as_array(x)
    a = np.atleast_1d(arr)
    with np.errstate(over="ignore"):
        zeta = (2.0 / 3.0) * np.abs(a) ** 1.5
    far = np.isinf(zeta)
    ai = np.where(far, 0.0, np.nan)
    aip = np.where(far & (a > 0.0), 0.0, np.nan)
    mid = np.abs(a) <= _AIRY_SEAM
    right = (a > _AIRY_SEAM) & ~far
    left = (a < -_AIRY_SEAM) & ~far
    if mid.any():
        ai[mid], aip[mid] = _airy_maclaurin(a[mid])
    if right.any():
        ai[right], aip[right] = _airy_decay(a[right], zeta[right])
    if left.any():
        ai[left], aip[left] = _airy_oscillatory(-a[left], zeta[left])
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai.reshape(arr.shape), aip.reshape(arr.shape)


def airy_ai(z):
    """Airy function Ai for real argument."""
    return airy_pair(z)[0]


def airy_ai_prime(z):
    """Derivative Ai' for real argument."""
    return airy_pair(z)[1]
