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

The error estimate, not the base grid, sets each point's density (the
trapezoid rule converges geometrically on the shifted line; Trefethen &
Weideman, SIAM Rev. 56, 2014).  So the base grids are coarse: an interior
point starts at 1.5 samples per unit of its phase rate, at least 300/unit,
and may double :data:`_MAX_REFINEMENT` = 4 times.  The coarse start costs
no reach: the finest grid is still 4800/unit at the floor and 24 samples
per unit of phase rate above it, so :class:`NoConvergence` means that
density did not suffice.  A silent point starts at a flat 75/unit, because
its accuracy comes from e^{-eps * slack}, not from the grid.  The interior
density and the silent eps are rounded up to a sqrt(2) ladder, so that
nearby points share a grid.

Most of a sample's cost depends on omega alone: the two upper roots k and
the modal weights A / d_k D.  :func:`field_modal_integral` therefore takes
arrays of (t, x) as well, and groups the points by their quadrature grid
(contour height eps and the two panels, whose last one ends at the cutoff
w_max, all set per point by :func:`_panels`).  Each group walks the nested
doublings once, block by block: a block's omega tables are computed once,
then every point still refining adds only its own e^{i (k x - omega t)}
sums.  Each point keeps its own tail correction, Richardson test and
stopping level, so its value does not depend on which points share its
grid; a scalar call is a group of one.

The module also carries the scalar one-layer references and the direct loop
quadrature of the exchange-pulse integral, used as oracles in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .dispersion import k_squared_roots
from .errors import InvalidArgument, NoConvergence, OutsideFarZone, OutsideWedge
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
_MAX_REFINEMENT = 4
#: relative Richardson target
_TOL = 3e-4
#: absolute convergence floor (silent-zone values)
_ABS_FLOOR = 1e-8
#: samples evaluated at once: a block's complex arrays are 128 KB each, so
#: its omega tables (7 such arrays) and the point's temporaries stay in a
#: 2 MB L2 cache (32k-sample blocks run 5-10% slower and add 10 MB of peak
#: memory; 400k-sample blocks cost 1.1-1.4x more per sample)
_BLOCK = 8_192


def _sqrt2_ladder(v: float, base: float) -> float:
    """The smallest base * 2^(j/2), j an integer, that is not below v."""
    j = math.ceil(2.0 * math.log2(v / base))
    return base * 2.0 ** (j / 2)


def _auto_epsilon(t: float, x: float, c1: float) -> float:
    slack = x / c1 - t
    if t > 0.0 and slack < 0.0:
        return min(1e-3, 0.25 / max(t, 1.0))
    # silent region: push the contour up until e^{-eps * slack} is negligible,
    # on a sqrt(2) ladder so that silent points share grids
    if t <= 0.0:
        slack = abs(t) + x / c1
    return min(10.0, _sqrt2_ladder(30.0 / max(slack, 3.0), 1.0))


def _sqrt_upper(r):
    s = np.sqrt(r)
    return np.where(s.imag < 0.0, -s, s)


def _panels(t: float, x: float, params: WaveguideParams):
    """Quadrature grid of the point (t, x): (eps, ppu, panels).

    ppu is the base sample density on the outer panel; the cutoff panel
    [0, w_split] is always sampled 4x denser.  panels holds each panel's
    (lo, hi, base interval count), and the outer one ends at the
    truncation w_max.  Points with equal eps and panels sample the same
    frequencies at every level.

    The base grid is deliberately coarse and the Richardson test decides how
    far to refine.  An interior point starts at 1.5 samples per unit of its
    phase rate x/c2 + |t|, at least 300, rounded up to the ladder
    300 * 2^(j/2) so that nearby points share a grid; its finest reachable
    density, ppu * 2^_MAX_REFINEMENT, is thus at least 4800/unit and at least
    24 (x/c2 + |t|): the coarse start saves samples, not reach.
    A silent point starts at a flat 75/unit: its large eps makes its value
    e^{-eps * slack} small whatever the grid.
    """
    cp = crossing_point(params)
    eps = _auto_epsilon(t, x, params.c1)
    w_split = max(8.0, 1.2 * cp.omega_c)
    w_max = max(50.0 * cp.omega_c, w_split + 20.0)
    if t > 0.0 and x / params.c1 < t:  # the interior test of _auto_epsilon
        ppu = _sqrt2_ladder(max(300.0, 1.5 * (x / params.c2 + abs(t))), 300.0)
    else:
        ppu = 75.0
    panels = (
        (0.0, w_split, max(64, int(4.0 * ppu * w_split))),
        (w_split, w_max, max(64, int(ppu * (w_max - w_split)))),
    )
    return eps, ppu, panels


def _tables(omega, params: WaveguideParams):
    """Per root with Im k > 0: (i k, A / d_k D) at the sample frequencies omega."""
    out = []
    for r in k_squared_roots(omega, params):
        k = _sqrt_upper(r)
        out.append((1j * k, modal_weight(omega, k, params)))
    return out


def _modal_sum(tables, iomega, x, t):
    """Sum over samples and roots of A / d_k D * e^{i (k x - omega t)}, shape (2,).

    tables are those of :func:`_tables` at omega, and iomega = i omega.
    """
    iwt = iomega * t
    total = 0.0
    for ik, h in tables:
        arg = np.multiply(ik, x)
        arg -= iwt
        # einsum, not BLAS: the same sum whatever the batch or thread count
        total = total + np.einsum("ij,j->i", h, np.exp(arg, out=arg))
    return total


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
        rate = (-symbol_dw(w_end, P, Q) / symbol_dk(k, P, Q, params)) * x - t
        if abs(rate) < 0.1:
            continue
        tail += 1j * modal_weight(w_end, k, params) * np.exp(1j * (k * x - w_end * t)) / rate
    return tail


def _sample_sums(points, lo, h, first, stride, count, eps, params):
    """Per point of points, the sum of the modal integrand at
    omega = lo + h (first + stride j) + i eps, j < count; shape (len(points), 2).

    Each block's frequency tables are computed once and shared by every point.
    """
    total = np.zeros((len(points), 2), dtype=complex)
    for j0 in range(0, count, _BLOCK):
        j1 = min(j0 + _BLOCK, count)
        idx = np.arange(first + stride * j0, first + stride * j1, stride, dtype=float)
        omega = lo + h * idx + 1j * eps
        tables = _tables(omega, params)
        iomega = 1j * omega
        for i, (t, x) in enumerate(points):
            total[i] += _modal_sum(tables, iomega, x, t)
    return total


def _integrate_group(points, eps, panels, params):
    """Nested trapezoid refinement of every point of one quadrature grid.

    Each point keeps its own tail from the cutoff, Richardson test and
    stopping level; only the frequency tables are shared.  Returns per point
    (u, doublings, Richardson estimate), with u None when tolerance is never met.
    """
    tails = np.array([_tail_correction(panels[-1][1] + 1j * eps, t, x, params) for t, x in points])
    out = [(None, 0, math.inf)] * len(points)

    def value(sums, rows, level):
        raw = sum(s * ((hi - lo) / (n << level)) for s, (lo, hi, n) in zip(sums, panels))
        return 2.0 * np.real((raw + tails[rows]) * (1j / (2.0 * math.pi)))

    # level 0: interior samples at full weight, the two ends at half weight
    sums = [
        _sample_sums(points, lo, (hi - lo) / n, 1, 1, n - 1, eps, params)
        + 0.5 * _sample_sums(points, lo, hi - lo, 0, 1, 2, eps, params)
        for lo, hi, n in panels
    ]
    active = np.arange(len(points))
    prev = value(sums, active, 0)
    for level in range(1, _MAX_REFINEMENT + 1):
        # level d halves the spacing: only the odd-indexed samples are new
        refining = [points[i] for i in active]
        for i, (lo, hi, n) in enumerate(panels):
            new = n << (level - 1)
            sums[i] += _sample_sums(refining, lo, (hi - lo) / (2 * new), 1, 2, new, eps, params)
        cur = value(sums, active, level)
        est = np.max(np.abs(cur - prev), axis=1) / 3.0
        tol = np.maximum(_TOL * np.max(np.abs(cur), axis=1), _ABS_FLOOR)
        for j, i in enumerate(active):
            out[i] = (cur[j] if est[j] <= tol[j] else None, level, float(est[j]))
        keep = est > tol
        active, prev = active[keep], cur[keep]
        sums = [s[keep] for s in sums]
        if not active.size:
            break
    return out


def field_modal_integral(t, x, params: WaveguideParams, return_info: bool = False):
    """Displacement pair u(t, x) by direct quadrature (the numeric oracle).

    t and x are scalars, or equal-length 1-D arrays evaluated in one call.
    A scalar call returns a real length-2 array; with return_info=True also a
    dict holding the contour height, truncation, final density, Richardson
    estimate, the number of integrand samples evaluated, the number of
    doublings made and the number of points that shared the frequency tables
    (``batch``).  It raises :class:`NoConvergence` when doubling the density
    never brings the Richardson estimate under tolerance.

    ``richardson`` is the larger component of |cur - prev| / 3 between the
    last two levels, which assumes O(h^2) convergence between them: it is
    an estimate, not a bound.  At interior points that stop after one
    doubling the returned value has differed from the next finer level by
    up to 1.64x it, at (t, V) = (120, 0.8) and (144, 0.65).

    An array call returns shape (n, 2), and with return_info=True also a list
    of n such dicts.  A point that does not converge gets a NaN row and its
    :class:`NoConvergence` under the dict's ``error`` key (None elsewhere).
    """
    ts, xs = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    scalar = ts.ndim == 0 and xs.ndim == 0
    if not scalar and (ts.ndim != 1 or ts.shape != xs.shape):
        raise InvalidArgument(f"t and x must be scalars or equal-length 1-D arrays, got shapes {ts.shape}, {xs.shape}")
    ts, xs = ts.reshape(-1).tolist(), xs.reshape(-1).tolist()
    bad = next((xi for xi in xs if xi < 0.0), None)
    if bad is not None:
        raise InvalidArgument(f"field is evaluated for x >= 0 (it is even in x), got x={bad!r}")

    grids = [_panels(ti, xi, params) for ti, xi in zip(ts, xs)]
    groups: dict = {}
    for i, (eps, _, panels) in enumerate(grids):
        groups.setdefault((eps, panels), []).append(i)

    u = np.full((len(ts), 2), np.nan)
    infos = [None] * len(ts)
    for (eps, panels), members in groups.items():
        points = [(ts[i], xs[i]) for i in members]
        for i, (ui, level, est) in zip(members, _integrate_group(points, eps, panels, params)):
            ppu = grids[i][1]
            error = None
            if ui is None:
                error = NoConvergence(
                    f"modal quadrature not converged at t={ts[i]:.6g}, x={xs[i]:.6g} "
                    f"(density {ppu * 2**level:.0f}/unit)",
                    achieved=est,
                )
            else:
                u[i] = ui
            infos[i] = {
                "epsilon": eps,
                "omega_max": panels[-1][1],
                "points_per_unit": ppu * 2**level,
                "richardson": est,
                "samples": sum((n << level) + 1 for _, _, n in panels),
                "doublings": level,
                "batch": len(members),
                "error": error,
            }
    if scalar:
        if infos[0]["error"] is not None:
            raise infos[0]["error"]
        return (u[0], infos[0]) if return_info else u[0]
    return (u, infos) if return_info else u


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
        raise OutsideFarZone(f"outside the propagation cone, got t={t!r}, x={x!r}, c={c!r}")
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
