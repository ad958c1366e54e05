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

:func:`merge_families` and :func:`pair_is_real` state this merge scheme for
the zone logic and the Airy terms; the sign of (1/V - 1/v_e) / c3 alone
says on which side of a merge the speed V lies.

Real saddles come from a table, built once per parameter set, of the pieces
of each branch on which v_g is monotone (split at the group-velocity
extrema): a piece holds one saddle exactly when V lies strictly inside its
v_g range, and its position on the branch is the family index.  Complex
saddles have one solver, :func:`complex_saddles_along`: damped Newton on
k'(omega) - 1/V, seeded with the root of the neighbouring speed, or else
continued along a homotopy out from the merge speed v_e whose first seed
stays within _SEED_REACH of omega_e.  :func:`find_complex_saddles` is its
batch of one, so a point and a grid of speeds get the same roots.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from . import dispersion
from .errors import NoConvergence
from .model import WaveguideParams, symbol_dk, symbol_dw, symbol_pq, symbol_second

__all__ = [
    "SaddlePoint",
    "find_real_saddles",
    "find_complex_saddles",
    "complex_saddles_along",
    "merge_families",
    "pair_is_real",
    "phase_difference",
]

#: v_g table points of a piece, as fractions of its length: dense at the
#: start, or at both ends when the piece ends at an extremum
_OFFSETS = np.concatenate(([0.0], np.geomspace(1e-10, 1.0, 399)))
_OFFSETS_BOTH = np.concatenate((0.5 * _OFFSETS, 1.0 - 0.5 * _OFFSETS[-2::-1]))

#: stages of the complex-saddle homotopy, as fractions of the slowness step
#: from 1/v_e to 1/V
_LAMS = np.geomspace(1e-2, 1.0, 12)
#: farthest |omega - omega_e| of the homotopy's first seed
_SEED_REACH = 2.0


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
    V: float
    params: WaveguideParams


def merge_families(ext: dispersion.GroupVelocityExtremum) -> tuple[tuple[int, int], int]:
    """(real pair, complex partner) of a group-velocity extremum's merge:
    ((2, 3), 5) at a maximum, ((3, 4), 6) at a minimum."""
    return ((3, 4), 6) if ext.kind == "min" else ((2, 3), 5)


def _merge_side(ext: dispersion.GroupVelocityExtremum, V: float) -> float:
    """(1/V - 1/v_e) / c3: negative where the extremum's merging pair is real
    (above v_e at a minimum, below it at a maximum), positive where it has
    left the real axis, and 0 where 1/V rounds to 1/v_e."""
    return (1.0 / V - 1.0 / ext.v_e) / ext.cubic_coeff


def pair_is_real(ext: dispersion.GroupVelocityExtremum, V: float) -> bool:
    """Whether the extremum's merging pair is real at speed V."""
    return _merge_side(ext, V) < 0.0


@functools.lru_cache(maxsize=128)
def _vg_segments(params: WaveguideParams):
    """Monotone pieces of v_g on each branch, tabulated once per parameter set.

    Each branch covers its :func:`dispersion.branch_range` and is split at its
    group-velocity extrema; piece n = 0, 1, ... of branch b carries family
    index b + n.  Returns tuples (branch, index, omega, vg) ordered by
    increasing vg, so a piece holds a saddle at speed V exactly when
    vg[0] < V < vg[-1].
    """
    extrema = dispersion.velocity_extrema(params)
    out = []
    for branch in (1, 2):
        start, stop = dispersion.branch_range(branch, params)
        own = [(e.omega_e, e.v_e) for e in extrema if e.branch == branch]
        ends = [(start, None), *own, (stop, None)]
        for n, ((lo, v_lo), (hi, v_hi)) in enumerate(zip(ends[:-1], ends[1:])):
            w = lo + (hi - lo) * (_OFFSETS if v_hi is None else _OFFSETS_BOTH)
            k = dispersion.branch_k(branch, w, params)
            vg = np.real(dispersion.derivatives_at(w.astype(complex), k, params).vg)
            # end at the extremum speeds themselves, so the count flips exactly
            # at v_e, and keep rounding noise beside them from breaking the order
            if v_lo is not None:
                vg[0] = v_lo
            if v_hi is not None:
                vg[-1] = v_hi
            if vg[-1] < vg[0]:
                w, vg = w[::-1], vg[::-1]
            out.append((branch, branch + n, w, np.maximum.accumulate(np.minimum(vg, vg[-1]))))
    return tuple(out)


def _solve_segment(branch: int, w, vg, V: float, params: WaveguideParams):
    """Root of F = k'(omega) - 1/V on one tabulated piece: (omega, k, derivatives).

    The table brackets the root (F > 0 at its slow end), which
    :func:`dispersion.bracketed_newton` polishes.
    """
    i = int(np.searchsorted(vg, V))
    a, b = float(w[i - 1]), float(w[i])
    x = a + (b - a) * (V - vg[i - 1]) / (vg[i] - vg[i - 1])
    return dispersion.bracketed_newton(branch, lambda d: (d.kp.real - 1.0 / V, d.kpp.real), a, b, x, params)


# both caches hold the rows in flight: a zone diagram never repeats a V, and
# an assembly reuses one to three keys per grid V (x/t rounds to neighbours)
@functools.lru_cache(maxsize=512)
def find_real_saddles(V: float, params: WaveguideParams):
    """All real stationary points at observer speed V, sorted by family index.

    Empty for V >= c1, and branch b contributes nothing for V >= c_b.  Each
    monotone piece of v_g (see :func:`_vg_segments`) whose range strictly
    contains V holds exactly one saddle, so the count flips exactly at the
    extremum speeds v_e; the root is polished by bracketed Newton.
    """
    if V >= params.c1 or V <= 0.0:
        return ()
    out = []
    for branch, index, w, vg in _vg_segments(params):
        c_b = params.c1 if branch == 1 else params.c2
        if V >= c_b or not vg[0] < V < vg[-1]:
            continue
        x, k_s, ds = _solve_segment(branch, w, vg, V, params)
        out.append(
            SaddlePoint(
                omega_star=complex(x),
                k_star=complex(k_s),
                branch=branch,
                index=index,
                alpha=complex(ds.kpp),
                g=complex(k_s) - complex(x) / V,
                is_real=True,
                V=V,
                params=params,
            )
        )
    out.sort(key=lambda s: s.index)
    return tuple(out)


@functools.lru_cache(maxsize=512)
def find_complex_saddles(V: float, params: WaveguideParams):
    """Exponentially decaying complex saddles born at the extremum merges.

    For a velocity maximum the pair leaves the real axis when V > v_e, for a
    minimum when V < v_e.  Each qualifying extremum yields one kept member,
    the root of k'(omega) = 1/V with Im g > 0, continued out from v_e: the
    batch of one of :func:`complex_saddles_along`, so a grid agrees with it.
    """
    return complex_saddles_along((V,), params)[0]


def complex_saddles_along(vs, params: WaveguideParams) -> list[tuple[SaddlePoint, ...]]:
    """The decaying complex saddles at every speed of vs, by continuation along V.

    For each extremum the speeds on its complex side are visited in order of
    |1/V - 1/v_e|.  The first is continued out from v_e by the homotopy;
    each later one is a Newton solve seeded with the root of the speed
    before it, one step closer to the merge.  A seeded solve that fails or
    lands on the Im g <= 0 member falls back to the homotopy, so every root
    agrees with the homotopy's to Newton's tolerance and a failure raises
    the homotopy's NoConvergence.  Returns one tuple per entry of vs,
    ordered by extremum; nothing is cached.
    """
    vs = [float(V) for V in vs]
    found: list[list[SaddlePoint]] = [[] for _ in vs]
    for e in dispersion.velocity_extrema(params):
        side = [i for i, V in enumerate(vs) if 0.0 < V < params.c1 and _merge_side(e, V) > 0.0]
        side.sort(key=lambda i: abs(1.0 / vs[i] - 1.0 / e.v_e))
        point = None
        for i in side:
            V = vs[i]
            seeded = _newton_system(point.omega_star, point.k_star, 1.0 / V, params) if point else None
            point = _decaying_member(e, V, seeded, params) or _homotopy_root(e, V, params)
            found[i].append(point)
    return [tuple(f) for f in found]


def _decaying_member(e, V: float, root, params: WaveguideParams) -> SaddlePoint | None:
    """The kept complex saddle of extremum e at speed V from a solve's
    (omega, k); None when the solve failed or its Im g <= 0."""
    if root is None:
        return None
    w, k = root
    g = k - w / V
    if g.imag <= 0.0:
        return None
    return SaddlePoint(
        omega_star=w,
        k_star=k,
        branch=e.branch,
        index=merge_families(e)[1],
        alpha=dispersion.derivatives_at(w, k, params).kpp,
        g=g,
        is_real=False,
        V=V,
        params=params,
    )


def _homotopy_root(e, V: float, params: WaveguideParams) -> SaddlePoint:
    """The kept complex saddle of extremum e at speed V, continued out from v_e.

    The seed omega_e + i sign sqrt(qty) with sign = -sign(c3) continues to
    the Im g > 0 member; the other sign is the fallback.
    """
    first = -math.copysign(1.0, e.cubic_coeff)
    for sign in (first, -first):
        if point := _decaying_member(e, V, _continue_complex(e, V, sign, params), params):
            return point
    raise NoConvergence(f"complex saddle continuation failed at extremum omega_e={e.omega_e:.6g}, V={V:.6g}")


def _continue_complex(e, V: float, sign: float, params: WaveguideParams):
    """Walk the complex saddle from the merge threshold out to speed V: (omega, k) or None.

    Homotopy in the slowness 1/V_lam = 1/v_e + lam (1/V - 1/v_e): the local
    cubic model seeds the first stage, and each later stage reuses the
    previous root.  Where the first stage's seed would lie farther than
    _SEED_REACH from omega_e, outside the cubic model (Newton can end on a
    real root there), the ladder gains stages towards v_e at its own ratio.
    Treating (omega, k) as independent unknowns of the system
    {D = 0, D_w + D_k / V = 0} avoids any branch tracking, which would break
    where the saddle path skirts a branch point.
    """
    d_slow = 1.0 / V - 1.0 / e.v_e
    lams = _LAMS
    while lams[0] * d_slow / e.cubic_coeff > _SEED_REACH**2:
        lams = np.insert(lams, 0, lams[0] ** 2 / lams[1])
    qty = lams[0] * d_slow / e.cubic_coeff  # = -(1/v_e - 1/V_lam)/a > 0 off-axis
    dw = complex(0.0, sign * math.sqrt(max(qty, 0.0)))
    w, k = e.omega_e + dw, e.k_e + dw / e.v_e  # linear branch extrapolation, k' = 1/v_e
    for lam in lams:
        res = _newton_system(w, k, 1.0 / e.v_e + lam * d_slow, params)
        if res is None:
            return None
        w, k = res
    return w, k


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
