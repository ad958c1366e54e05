"""Stationary points of the modal phase g(omega) = k(omega) - omega / V.

For an observer moving at speed V = x/t, each branch contributes stationary
points where the group velocity equals V.  Their bookkeeping follows the
family scheme used throughout the zone logic:

    index 1          : the single branch-1 saddle;
    index 2, 3, 4    : branch-2 saddles, split by the two group-velocity
                       extrema (below the max, between, above the min);
    index 5, 6       : complex continuations born when the (2,3) pair merges
                       at the velocity maximum (5) or the (3,4) pair merges
                       at the minimum (6); only the exponentially decaying
                       member (Im g > 0) is kept.

Real saddles are found by a vectorized group-velocity scan plus bisection,
with an explicit analytic rescue near the extrema so that the saddle count
flips exactly at the threshold speeds.  Complex saddles use damped Newton on
k'(omega) - 1/V along a tracked branch continuation.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import dispersion
from .errors import ExtremumNotFound, NoConvergence
from .model import WaveguideParams, crossing_point, symbol_dk, symbol_dw, symbol_pq, symbol_second

__all__ = [
    "SaddlePoint",
    "find_real_saddles",
    "find_complex_saddles",
    "phase_difference",
]

#: group-velocity samples per branch in the real-saddle scan
_N_GRID = 4001


@dataclasses.dataclass(frozen=True)
class SaddlePoint:
    """One stationary point of the modal phase at observer speed V.

    :param omega_star: stationary frequency (complex for index 5/6).
    :param k_star: wavenumber on the branch there.
    :param branch: dispersion branch label (1 or 2).
    :param index: family index, see module docstring.
    :param alpha: k''(omega_star), the phase curvature entering descent terms.
    :param g: k_star - omega_star / V; phase per unit x is Re g, decay Im g.
    :param is_real: True for genuine real-axis stationary points.
    :param passed_by_contour: whether the steepest-descent path picks the
        point up (always True for the members this module returns).
    :param V: observer speed the point was solved for.
    :param params: waveguide constants used.
    """

    omega_star: complex
    k_star: complex
    branch: int
    index: int
    alpha: complex
    g: complex
    is_real: bool
    passed_by_contour: bool
    V: float
    params: WaveguideParams


def _branch_bounds(branch: int, V: float, params: WaveguideParams):
    """Scan window [cutoff, w_hi] for group-velocity crossings at speed V."""
    lo_cut, hi_cut = dispersion.cutoff_frequencies(params)
    if params.mu == 0.0:
        # uncoupled: branch j is subsystem j, cutting on at its own Omega_j
        cutoff = params.omega1 if branch == 1 else params.omega2
    else:
        cutoff = hi_cut if branch == 1 else lo_cut
    c_b = params.c1 if branch == 1 else params.c2
    om_b = params.omega1 if branch == 1 else params.omega2
    cp = crossing_point(params)
    w_hi = 2.0 * cp.omega_c
    if V < c_b:
        # uncoupled tail estimate of where v_g returns to V, with headroom
        tail = om_b / math.sqrt(max(1.0 - (V / c_b) ** 2, 1e-12))
        w_hi = max(w_hi, 2.0 * tail)
    return cutoff * (1.0 + 1e-9), min(w_hi, 1e5)


def _family_index(branch: int, omega: float, params: WaveguideParams) -> int:
    """Family index of a real saddle: branch plus extremum segment."""
    try:
        extrema = dispersion.group_velocity_extrema(params)
    except ExtremumNotFound:
        extrema = ()
    own = [e for e in extrema if e.branch == branch]
    base = 1 if branch == 1 else 2
    seg = sum(1 for e in own if omega > e.omega_e)
    return base + seg


def _solve_vg(branch: int, V: float, lo: float, hi: float, params: WaveguideParams) -> float:
    def f(w):
        k = dispersion.branch_k(branch, w, params)
        return float(np.real(dispersion.derivatives_at(complex(w), k, params).vg)) - V

    return dispersion.bisect_root(f, lo, hi, xtol=1e-13 * max(1.0, hi))


@functools.lru_cache(maxsize=4096)
def find_real_saddles(V: float, params: WaveguideParams):
    """All real stationary points at observer speed V, sorted by family index.

    Empty for V >= c1.  The grid scan brackets sign changes of v_g - V; near
    each group-velocity extremum the pair is re-derived from the local cubic
    model (omega_e +/- sqrt((1/v_e - 1/V)/cubic_coeff)) and polished, so the
    count transition at V = v_e is resolved to floating-point accuracy.
    """
    if V >= params.c1 or V <= 0.0:
        return ()
    try:
        extrema = dispersion.group_velocity_extrema(params)
    except ExtremumNotFound:
        extrema = ()
    out = []
    for branch in (1, 2):
        c_b = params.c1 if branch == 1 else params.c2
        lo, hi = _branch_bounds(branch, V, params)
        grid = np.linspace(lo, hi, _N_GRID)
        k = np.atleast_1d(dispersion.branch_k(branch, grid, params))
        d = dispersion.derivatives_at(grid.astype(complex), k, params)
        f = np.real(d.vg) - V
        good = np.isfinite(f)
        roots = []
        idx = np.nonzero(good[:-1] & good[1:] & (f[:-1] * f[1:] < 0.0))[0]
        for i in idx:
            roots.append(_solve_vg(branch, V, float(grid[i]), float(grid[i + 1]), params))
        spacing = (hi - lo) / (_N_GRID - 1)
        for e in (e for e in extrema if e.branch == branch):
            qty = (1.0 / e.v_e - 1.0 / V) / e.cubic_coeff
            # real pair hugging the extremum; rescue when the grid cannot split it
            if 0.0 < qty < (4.0 * spacing) ** 2:
                delta = math.sqrt(qty)
                for seed in (e.omega_e - delta, e.omega_e + delta):
                    roots.append(_polish_real(branch, V, seed, params))
        roots = sorted(r for r in roots if r is not None)
        dedup = []
        for r in roots:
            if not dedup or abs(r - dedup[-1]) > 1e-9 * (1.0 + r):
                dedup.append(r)
        for w in dedup:
            if V >= c_b:
                # the tail crossing is spurious once V reaches the asymptote
                continue
            k_s = dispersion.branch_k(branch, w, params)
            ds = dispersion.derivatives_at(complex(w), k_s, params)
            out.append(
                SaddlePoint(
                    omega_star=complex(w),
                    k_star=complex(k_s),
                    branch=branch,
                    index=_family_index(branch, w, params),
                    alpha=complex(ds.kpp),
                    g=complex(k_s) - complex(w) / V,
                    is_real=True,
                    passed_by_contour=True,
                    V=V,
                    params=params,
                )
            )
    out.sort(key=lambda s: s.index)
    return tuple(out)


def _polish_real(branch: int, V: float, seed: float, params: WaveguideParams):
    """Newton-polish a real saddle seed on k'(omega) - 1/V; None on failure."""
    w = seed
    target = 1.0 / V
    for _ in range(60):
        k = dispersion.branch_k(branch, w, params)
        d = dispersion.derivatives_at(complex(w), k, params)
        F = float(np.real(d.kp)) - target
        Fp = float(np.real(d.kpp))
        if Fp == 0.0:
            return None
        step = -F / Fp
        w_new = w + step
        if not (w_new > 0.0) or not math.isfinite(w_new):
            return None
        w = w_new
        if abs(step) < 1e-14 * (1.0 + abs(w)):
            return w
    return w if abs(step) < 1e-9 else None


@functools.lru_cache(maxsize=4096)
def find_complex_saddles(V: float, params: WaveguideParams):
    """Exponentially decaying complex saddles born at the extremum merges.

    For a velocity maximum the pair leaves the real axis when V > v_e, for a
    minimum when V < v_e.  Each qualifying extremum yields one kept member,
    the root of k'(omega) = 1/V with Im g > 0.
    """
    if V >= params.c1 or V <= 0.0:
        return ()
    try:
        extrema = dispersion.group_velocity_extrema(params)
    except ExtremumNotFound:
        return ()
    out = []
    for e in extrema:
        qty = (1.0 / e.v_e - 1.0 / V) / e.cubic_coeff
        if qty >= 0.0:
            continue  # pair is real (or exactly merged) on this side
        root = None
        for sign in (+1.0, -1.0):
            root = _continue_complex(e, V, sign, params)
            if root is not None:
                w, k, d = root
                if (k - w / V).imag > 0.0:
                    break
            root = None
        if root is None:
            raise NoConvergence(
                f"complex saddle continuation failed at extremum omega_e={e.omega_e:.6g}, V={V:.6g}"
            )
        w, k, d = root
        out.append(
            SaddlePoint(
                omega_star=w,
                k_star=k,
                branch=e.branch,
                index=5 if e.kind == "max" else 6,
                alpha=d.kpp,
                g=k - w / V,
                is_real=False,
                passed_by_contour=True,
                V=V,
                params=params,
            )
        )
    return tuple(out)


def _continue_complex(e, V: float, sign: float, params: WaveguideParams):
    """Walk the complex saddle from the merge threshold out to speed V.

    Homotopy in the slowness 1/V_lam = 1/v_e + lam (1/V - 1/v_e): near the
    threshold the local cubic model seeds the stage, and each later stage
    reuses the previous root.  Treating (omega, k) as independent unknowns
    of the system {D = 0, D_w + D_k / V = 0} avoids any branch tracking,
    which would break where the saddle path skirts a branch point.
    """
    d_slow = 1.0 / V - 1.0 / e.v_e
    lams = np.geomspace(1e-2, 1.0, 12)
    w = k = None
    for lam in lams:
        inv_v = 1.0 / e.v_e + lam * d_slow
        if w is None:
            qty = lam * d_slow / e.cubic_coeff  # = -(1/v_e - 1/V_lam)/a > 0 off-axis
            dw = complex(0.0, sign * math.sqrt(max(qty, 0.0)))
            w = e.omega_e + dw
            k = e.k_e + dw / e.v_e  # linear branch extrapolation, k' = 1/v_e
        res = _newton_system(w, k, inv_v, params)
        if res is None:
            return None
        w, k = res
    return w, k, dispersion.derivatives_at(w, k, params)


def _newton_system(w: complex, k: complex, inv_v: float, params: WaveguideParams):
    """Damped 2x2 Newton on F = (D, D_w + D_k * inv_v); (omega, k) or None."""
    for _ in range(120):
        P, Q = symbol_pq(w, k, params)
        F1 = P * Q - params.mu**2
        Dk = symbol_dk(k, P, Q, params)
        Dw = symbol_dw(w, P, Q)
        F2 = Dw + Dk * inv_v
        scale = 1.0 + abs(P) + abs(Q)
        if abs(F1) < 1e-10 * scale**2 and abs(F2) < 1e-10 * scale:
            return w, k
        Dkk, Dww, Dwk = symbol_second(w, k, P, Q, params)
        j11, j12 = Dw, Dk
        j21, j22 = Dww + Dwk * inv_v, Dwk + Dkk * inv_v
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            return None
        dw = -(F1 * j22 - F2 * j12) / det
        dk = -(j11 * F2 - j21 * F1) / det
        norm = max(abs(dw), abs(dk))
        if norm > 0.1:
            dw *= 0.1 / norm
            dk *= 0.1 / norm
        w = w + dw
        k = k + dk
        if not (math.isfinite(w.real) and math.isfinite(k.real)):
            return None
    return None


# ---------------------------------------------------------------------------
# phase separation


def phase_difference(sp_m: SaddlePoint, sp_n: SaddlePoint, t: float, x: float) -> float:
    """|Re phi_m - Re phi_n| with phi = k_star x - omega_star t."""
    pm = sp_m.k_star * x - sp_m.omega_star * t
    pn = sp_n.k_star * x - sp_n.omega_star * t
    return abs(pm.real - pn.real)
