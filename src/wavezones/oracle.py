"""Reference evaluations without asymptotics: direct quadrature of the inversion integral.

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

The integrand decays only like 1/w, and that slow tail belongs to the
uncoupled layers: at mu = 0 each layer j has the root
k = sqrt((w^2 - w_j^2) / c_j^2) with weight -f_j / (2 k c_j^2) in its own
component, and its field has the closed form f_j * :func:`scalar_kg_exact`
(c_j, w_j).  So the quadrature integrates the coupled integrand minus the
mu = 0 integrand on the same samples, which decays like w^-3, and the
closed form is added back per component (subtracting the singular part;
Davis & Rabinowitz, *Methods of Numerical Integration*, 1984).  The
difference is truncated at a cutoff L chosen per point, and a one-term
integration-by-parts tail (the coupled roots' minus the uncoupled roots')
stands in for the rest.  L is the lowest rung of the ladder w_max 2^(-j/2)
(w_max = 50 w_c, w_c the crossing frequency) above which the estimated
remainder of that tail, :func:`_tail_remainder`, stays under
:data:`_TAIL_BOUND` = 1e-8, the oracle's absolute floor.  Near a layer's
front the tail's phase rate goes to 0 and L grows, up to w_max.  The
``omega_max`` that :func:`field_modal_integral` reports is the point's L.

The frequency line is cut into three panels: the inner [0, w_split], which
holds the cutoffs and the crossing, the middle [w_split, W] and the far
[W, w_max], W = w_max 2^(-J/2) being the lowest rung of the cutoff ladder
(22.6 on the default preset).  Every L is a rung, so the middle panel is
always whole and L is a node of the far panel.

Refinement nests: each level doubles the interval count of every panel, so
its trapezoid sum is the previous level's sum plus only the new odd-indexed
samples, and a point that stops after d doublings has evaluated each sample of
its finest grid exactly once.  Successive levels are compared as a Richardson
estimate of the returned value, closed form included, reported through
:class:`NoConvergence` on failure.  Samples are evaluated in fixed blocks of
:data:`_BLOCK`, small enough that the integrand's temporaries stay in cache.

The error estimate, not the base grid, sets each point's density (the
trapezoid rule converges geometrically on the shifted line; Trefethen &
Weideman, SIAM Rev. 56, 2014).  So the base grids are coarse: an interior
point starts at 0.75 / sqrt(2) (0.53) samples per unit of its phase rate, at
least 300/unit, and may double :data:`_MAX_REFINEMENT` = 6 times.  The
coarse start costs no reach: the finest grid is 19200/unit at the floor and
24 sqrt(2) (34) samples per unit of phase rate above it, so
:class:`NoConvergence` means that density did not suffice.  A silent point
starts at a flat 75/unit, because its accuracy comes from e^{-eps * slack},
not from the grid.  The inner panel takes 4x that density, the middle panel
that density, and the far panel a density set by the bound on its phase
rates (:func:`_frame`).  The interior density and eps sit on sqrt(2)
ladders, so that nearby points share a grid: the interior eps is the
largest rung 1e-3 * 2^(-j/2), j >= 0, not above 0.25/t.  Every silent point
takes one eps, 10, so that silent points share their tables and runs.

The panel ends follow one rule.  One vectorized pass over every point's
ends 0, w_split, W and its cutoff L (:func:`_ends`) gives the integrand f,
its slope f' and the one-term tail beyond each end.  The samples are summed
at full weight, and the point's value then applies, in one place, the
trapezoid's half weights (half of f off each end of a nonempty panel), the
Euler-Maclaurin term (h_b^2 - h_a^2) f' / 12 off every end, h_b and h_a the
spacings before and after it, and the tail at L.  The trapezoid of spacing
h on [a, b] overshoots by h^2 (f'(b) - f'(a)) / 12; the term removes that
error where the spacing jumps, at w_split (4x to 1x) and at W, and where it
is coarse, at L.  With it the estimates of interior points fall about
1000x per doubling, against about 4x with the jump at w_split left in.  At
0 the term has no real part, by the integrand's conjugate symmetry, and
moves no value.

Most of a sample's cost depends on omega alone: the roots k and their
weights.  :func:`field_modal_integral` therefore takes arrays of (t, x) as
well, and shares the frequency tables per contour height eps and panel,
both set per point by :func:`_panels`: points of one interior density share
their inner and middle tables, and each far density has its own small
table.  Each point takes the far panel's samples up to its own cutoff, a
node of that panel (:func:`_cutoffs`); a point whose cutoff is W takes none.
The call walks the nested doublings once, and each table block by block: a
block's omega tables are computed once, up to the largest count still
needed.  What is left per point is its phase factor, one complex
exponential per root and sample, and points on a line share it: if
(t_p, x_p) = (t_0, x_0) + p (dt, dx), then e^{i phi_p} = e^{i phi_0} step^p
with step = e^{i (k dx - omega dt)}.  So the points of each table are split
into runs (:func:`_runs`), at least 3 consecutive points equally spaced to
within rounding, and per root and block a run costs two exponentials, the
anchor and the step; each further point costs one complex multiply per
sample, and each point's sum is one matrix-vector product of the weights
with its phase factors (e = e^{i phi_0}, then e *= step and h @ e,
:func:`_chain`).  A run chains from its smallest x, so that on evanescent
samples the step shrinks rather than overflows, and where a step is still
not finite its points take their own exponentials.  Every other point is a
run of one.  Each point keeps its own cutoff, tail correction, Richardson
test and stopping level, so which points share its tables moves its value
by rounding only; a scalar call is a call of one.

The module also carries the scalar one-layer references and the direct loop
quadrature of the exchange-pulse integral, used as oracles in the tests.
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from .dispersion import derivatives_at, k_squared_roots
from .errors import InvalidArgument, NoConvergence, OutsideFarZone, OutsideWedge
from .model import WaveguideParams, crossing_point, j_parameters, modal_weight, symbol_numerator
from .special import bessel_j0

__all__ = [
    "field_modal_integral",
    "scalar_kg_exact",
    "scalar_kg_far",
    "j_int_quadrature",
]


#: density doublings attempted before giving up
_MAX_REFINEMENT = 6
#: relative Richardson target
_TOL = 3e-4
#: absolute convergence floor (silent-zone values)
_ABS_FLOOR = 1e-8
#: bound on each point's estimated tail remainder, which sets its cutoff
_TAIL_BOUND = 1e-8
#: power of w with which the difference integrand's amplitude decays, at
#: most, in the tail-remainder estimate (its coupling terms go like w^-3,
#: its others like w^-4 and w^-5)
_TAIL_DECAY = 4.0
#: samples evaluated at once: a block's complex arrays are 128 KB each, so
#: its omega tables (10 such arrays with one forced layer) and the point's
#: temporaries stay in a 2 MB L2 cache (32k-sample blocks run 5-10% slower and add 10 MB of peak
#: memory; 400k-sample blocks cost 1.1-1.4x more per sample)
_BLOCK = 8_192
#: the far panel's density: _FAR_PER_RATE samples per unit of the bound on
#: its phase rates, at least _FAR_FLOOR per unit
_FAR_PER_RATE = 3.0
_FAR_FLOOR = 8.0


def _sqrt2_ladder(v: float, base: float) -> float:
    """The smallest base * 2^(j/2), j an integer, that is not below v."""
    j = math.ceil(2.0 * math.log2(v / base))
    return base * 2.0 ** (j / 2)


def _sqrt_upper(r):
    s = np.sqrt(r)
    return np.where(s.imag < 0.0, -s, s)


def _rungs(w_split: float, w_max: float) -> np.ndarray:
    """The cutoff ladder w_max 2^(-j/2), j >= 0, down to its lowest rung W,
    the last one not below 2 w_split.  Every cutoff is a rung, so no cutoff
    lies below W, where the far panel starts."""
    return w_max * 2.0 ** (-0.5 * np.arange(1 + max(0, math.floor(2.0 * math.log2(w_max / (2.0 * w_split))))))


#: nodes, geometric on [W, w_max], at which :func:`_frame` samples the slopes
_SLOPE_NODES = 64


@functools.lru_cache(maxsize=64)
def _frame(params: WaveguideParams):
    """(w_split, W, w_max, slopes) of the parameter set: the panel ends, and
    the least and the largest dk/domega of the roots of :func:`_modes` on
    the far panel [W, w_max].

    The far panel lies well above every branch point, where the integrand
    oscillates only at its roots' phase rates |x dk/domega - t|.  That is
    convex in dk/domega, so R, the larger of |x s - t| at the two slopes s,
    bounds every rate on the panel, and :func:`_panels` sets the far density
    from R.  The slopes are the extremes over :data:`_SLOPE_NODES` nodes and
    the limits 1/c_j, not an assumed monotone fall from W to 1/c_j (which
    holds on the parameter sets of the tests, where they are its values at
    W and 1/c_j).  Cached per parameter set, as :func:`crossing_point` is.
    """
    cp = crossing_point(params)
    w_split = max(8.0, 1.2 * cp.omega_c)
    w_max = max(50.0 * cp.omega_c, w_split + 20.0)
    W = float(_rungs(w_split, w_max)[-1])
    omega = np.geomspace(W, w_max, _SLOPE_NODES)
    slopes = [1.0 / c for c, _, _ in _layers(params)]
    for _, _, dk in _modes(omega, params, slopes=True):
        slopes += np.real(dk).tolist()
    return w_split, W, w_max, (min(slopes), max(slopes))


def _panels(t: float, x: float, params: WaveguideParams):
    """Quadrature grid of the point (t, x): (eps, ppu, panels).

    panels holds the three panels of the module docstring, each (lo, hi,
    base interval count): the inner at 4 ppu, the middle at ppu and the far
    at ppu_far.  Points with equal eps and an equal panel sample the same
    frequencies on it at every level.

    eps is the contour height.  An interior point (t > 0 and x < c1 t) takes
    the largest rung 1e-3 * 2^(-j/2), j >= 0, not above 0.25 / t, so that the
    rows of a late window share grids.  A silent point takes 10 at any slack,
    as a higher contour only deepens e^{-eps * slack}; one height lets silent
    points share their tables and runs.

    The base grid is deliberately coarse and the Richardson test decides how
    far to refine.  An interior point starts at 0.75 / sqrt(2) samples per
    unit of its phase rate x/c2 + |t|, at least 300, rounded up to the ladder
    300 * 2^(j/2) so that nearby points share a grid; its finest reachable
    density, ppu * 2^_MAX_REFINEMENT, is thus at least 19200/unit and at
    least 24 sqrt(2) (x/c2 + |t|): the coarse start saves samples, not reach.
    A silent point starts at a flat 75/unit: its eps of 10 makes its value
    e^{-eps * slack} small whatever the grid.

    ppu_far is :data:`_FAR_PER_RATE` samples per unit of the bound R of
    :func:`_frame`, at least :data:`_FAR_FLOOR`, rounded up to the ladder
    300 * 2^(j/2) and capped at ppu.
    """
    w_split, W, w_max, slopes = _frame(params)
    if t > 0.0 and x / params.c1 < t:
        eps = 1e-3 / _sqrt2_ladder(max(4e-3 * t, 1.0), 1.0)
        ppu = _sqrt2_ladder(max(300.0, 0.75 / math.sqrt(2.0) * (x / params.c2 + abs(t))), 300.0)
    else:
        eps, ppu = 10.0, 75.0
    rate = max(abs(x * s - t) for s in slopes)
    ppu_far = min(ppu, _sqrt2_ladder(max(_FAR_FLOOR, _FAR_PER_RATE * rate), 300.0))
    panels = (
        (0.0, w_split, max(64, int(4.0 * ppu * w_split))),
        (w_split, W, max(64, int(ppu * (W - w_split)))),
        (W, w_max, max(64, int(ppu_far * (w_max - W)))),
    )
    return eps, ppu, panels


def _layers(params: WaveguideParams):
    """(c_j, w_j, f_j) of the two uncoupled layers."""
    return (params.c1, params.omega1, params.f1), (params.c2, params.omega2, params.f2)


def _uncoupled_root(omega, j: int, params: WaveguideParams):
    """(k, h, dk/domega) of layer j's mu = 0 root at omega.

    k = sqrt((omega^2 - omega_j^2) / c_j^2) with Im k >= 0, h is the weight
    -f_j / (2 k c_j^2) in component j alone, and dk/domega = omega / (c_j^2 k).
    """
    c, om, f = _layers(params)[j]
    k = _sqrt_upper((omega * omega - om * om) / (c * c))
    h = np.zeros((2,) + np.shape(k), dtype=complex)
    h[j] = (-f / (2.0 * c * c)) / k
    return k, h, omega / (c * c * k)


def _modes(omega, params: WaveguideParams, uncoupled=False, slopes=False):
    """(k, weight, dk/domega) per root at omega: the coupled roots with
    Im k > 0 and weight A / d_k D, the small k^2 root first, then the
    uncoupled roots of the layers the impulse drives (f_j != 0; the others'
    mu = 0 field is 0) with their weights negated, or with uncoupled the
    uncoupled roots alone, not negated.

    dk/domega is omega / (c_j^2 k) for an uncoupled root.  For a coupled
    root it is the implicit derivative (:func:`derivatives_at`), computed
    only with slopes and None otherwise: the sample tables do not use it.
    """
    out = []
    for r in [] if uncoupled else k_squared_roots(omega, params):
        k = _sqrt_upper(r)
        out.append((k, modal_weight(omega, k, params), derivatives_at(omega, k, params).kp if slopes else None))
    for j, (_, _, f) in enumerate(_layers(params)):
        if f != 0.0:
            k, h, dk = _uncoupled_root(omega, j, params)
            out.append((k, h if uncoupled else -h, dk))
    return out


def _tables(omega, params: WaveguideParams, uncoupled=False):
    """The trapezoid's sample tables at omega: (i k, weight) per root of :func:`_modes`."""
    return [(1j * k, h) for k, h, _ in _modes(omega, params, uncoupled)]


def _tail_remainder(omega, t, x, params: WaveguideParams):
    """Estimated error in u of the one-term tail of the difference integrand,
    for each cutoff of the array omega (frequencies on the contour).

    Root by root, the coupled term minus its uncoupled partner is
    e^{i phi} b with phi = k x - w t of the uncoupled root; beyond the cutoff
    the one-term tail leaves the next integration-by-parts term,
    |(b / phi')'| / |phi'| <= |b| (p / L + |phi''| / |phi'|) / |phi'|^2 with
    p = :data:`_TAIL_DECAY`, and 2 Re (i / 2 pi) scales it by 1 / pi.  The
    coupled roots pair with the layers by the order of k^2, which holds well
    above the crossing frequency.  Where a phase rate vanishes (t = x = 0)
    the estimate is NaN, and no cutoff qualifies.
    """
    total = 0.0
    for j, ((kc, hc, _), (c, om, _)) in enumerate(zip(_modes(omega, params), _layers(params))):
        k, h, dk = _uncoupled_root(omega, j, params)
        b = np.max(np.abs(hc * np.exp(1j * x * (kc - k)) - h), axis=0)
        rate = np.abs(dk * x - t)
        curvature = np.abs(x * om * om / (c**4 * k**3))  # |phi''| = x |d^2k/domega^2|
        size = np.abs(np.exp(1j * (k * x - omega * t)))
        with np.errstate(divide="ignore", invalid="ignore"):
            total = total + size * b * (_TAIL_DECAY / omega.real + curvature / rate) / rate**2
    return total / math.pi


def _ends(omega, t, x, params: WaveguideParams, uncoupled=False):
    """(f, slope, tail) of the points' integrand (that of :func:`_tables`) at
    the frequencies omega, on the contour, with t and x broadcast against
    omega: the integrand, its d/domega and its one-term tail beyond omega,
    each of shape omega.shape + (2,), a component last.

    dk/domega is exact (:func:`_modes`); the weights vary slowly at every
    panel end, so they are differenced centrally over a relative step of
    1e-5.  A root's tail i h e^{i phi} / phi', phi = k x - omega t, is the
    leading integration-by-parts term of its integrand beyond omega, which
    removes the O(1 / (L phi')) truncation error (what it leaves is
    :func:`_tail_remainder`); it is 0 where |phi'| < 0.1, because the phase
    is nearly stationary there and the term would be invalid.
    """
    step = 1e-5 * np.abs(omega)
    stencil = omega[..., None] + step[..., None] * np.array([-1.0, 0.0, 1.0])
    f = slope = tail = 0.0
    for k, h, dk in _modes(stencil, params, uncoupled, slopes=True):
        dh = (h[..., 2] - h[..., 0]) / (2.0 * step)
        h, rate = h[..., 1], dk[..., 1] * x - t
        phase = np.exp(1j * (k[..., 1] * x - omega * t))
        f = f + h * phase
        slope = slope + (dh + 1j * rate * h) * phase
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = tail + np.where(np.abs(rate) < 0.1, 0.0, 1j * h * phase / rate)
    return tuple(np.moveaxis(a, 0, -1) for a in (f, slope, tail))


def _cutoffs(points, grids, params: WaveguideParams, uncoupled=False):
    """Each point's cutoff on its far panel (W, w_max, n): (m, L), lists of
    its base interval count m there and of L = W + (w_max - W) m / n.

    The cutoff is the lowest rung of :func:`_rungs` at and above which
    :func:`_tail_remainder` stays under :data:`_TAIL_BOUND`, or w_max where
    no rung qualifies; it is then rounded up to a node of the far panel's
    base grid, so that it is a node at every level.  A cutoff at W, the
    far panel's start, is node 0: the point takes no far sample.  One
    broadcast call evaluates every point's rungs.  With uncoupled every
    cutoff is w_max, m = n.
    """
    (_, w_split, _), _, (W, w_max, _) = grids[0][2]
    eps, n = np.array([(eps, panels[-1][2]) for eps, _, panels in grids]).T
    m = n.astype(int)
    if not uncoupled:
        rungs = _rungs(w_split, w_max)
        t, x = np.array(points).T[..., None]
        below = _tail_remainder(rungs + 1j * eps[:, None], t, x, params) <= _TAIL_BOUND
        ok = np.logical_and.accumulate(below, axis=1)
        L = np.where(ok[:, 0], rungs[ok.sum(axis=1) - 1], w_max)
        m = np.minimum(n, np.ceil((L - W) / (w_max - W) * n)).astype(int)
    return m.tolist(), (W + (w_max - W) * (m / n)).tolist()


def _runs(points):
    """The points, in call order, as runs (lists of indices): at least 3
    consecutive points on an equally spaced line in (t, x), each within a
    few ulps of max(|t|, |x|), from the smallest x (at equal x, the largest
    t); every other point is a run of one."""
    runs, i, n = [], 0, len(points)
    while i < n:
        (t0, x0), j = points[i], i + 1
        while j + 1 < n:
            (t1, x1), (t, x), r = points[j], points[j + 1], (j + 1 - i) / (j - i)
            if max(abs(t0 + (t1 - t0) * r - t), abs(x0 + (x1 - x0) * r - x)) > 8e-16 * max(abs(t), abs(x)):
                break
            j += 1
        run = list(range(i, j + 1)) if j - i >= 2 else [i]
        (ta, xa), (tb, xb) = points[run[0]], points[run[-1]]
        runs.append(run if (xa, -ta) <= (xb, -tb) else run[::-1])
        i = run[-1] + 1
    return runs


def _chain(tables, iomega, run, ms):
    """Per point (t, x) of a run of :func:`_runs`, the sum over roots and its
    first ms[p] samples of weight * e^{i (k x - omega t)}; shape
    (len(run), 2).  tables are those of :func:`_tables` at omega, and
    iomega = i omega.  The anchor and step recurrence, and its guard, are
    the module docstring's.
    """
    out = np.zeros((len(run), 2), dtype=complex)
    (t0, x0), (t1, x1), span, m = run[0], run[-1], max(len(run) - 1, 1), max(ms)
    for ik, h in tables:
        ik, iw, h = ik[:m], iomega[:m], h[:, :m]
        e = np.exp(ik * x0 - iw * t0)
        chained = len(run) > 1
        if chained:
            with np.errstate(over="ignore", invalid="ignore"):
                step = np.exp(ik * ((x1 - x0) / span) - iw * ((t1 - t0) / span))
            chained = np.isfinite(step).all()
        for p, (t, x) in enumerate(run):
            if p and chained:
                e *= step
            elif p:
                e = np.exp(ik * x - iw * t)
            out[p] += h[:, : ms[p]] @ e[: ms[p]]
    return out


def _sample_sums(points, counts, lo, h, first, stride, eps, params, uncoupled):
    """Per point i of points, the sum of the integrand at
    omega = lo + h (first + stride j) + i eps, j < counts[i]; shape (len(points), 2).

    Each block's frequency tables (:func:`_tables`, with uncoupled those of
    the mu = 0 roots alone) are computed once, up to the largest count, and
    shared by every point; each run of :func:`_runs` chains its phase
    factors through them (:func:`_chain`).
    """
    total = np.zeros((len(points), 2), dtype=complex)
    runs = _runs(points)
    end = int(np.max(counts))
    for j0 in range(0, end, _BLOCK):
        j1 = min(j0 + _BLOCK, end)
        idx = np.arange(first + stride * j0, first + stride * j1, stride, dtype=float)
        omega = lo + h * idx + 1j * eps
        tab = _tables(omega, params, uncoupled)
        iomega = 1j * omega
        for run in runs:
            ms = np.clip(counts[run] - j0, 0, j1 - j0)
            total[run] += _chain(tab, iomega, [points[i] for i in run], ms)
    return total


def _closed_form(t: float, x: float, params: WaveguideParams) -> np.ndarray:
    """The mu = 0 field (f1 K(c1, omega1), f2 K(c2, omega2)), K = :func:`scalar_kg_exact`.

    An unforced layer (f_j = 0) is 0 without evaluating its K.
    """
    return np.array([f * scalar_kg_exact(t, x, c, om) if f else 0.0 for c, om, f in _layers(params)])


def _integrate_group(points, grids, cuts, params, uncoupled=False):
    """Nested trapezoid refinement of the points, each on its own grid.

    grids holds each point's (eps, ppu, panels) of :func:`_panels`, and cuts
    the (m, L) of :func:`_cutoffs`: its base interval count on the far panel
    and its cutoff.  The frequency tables are shared per (eps, panel): every
    point with that contour height and panel adds its sums from the same
    blocks.  Each point keeps its own cutoff, tail, Richardson test and
    stopping level.

    The sums hold plain samples.  One :func:`_ends` pass over every point's
    ends 0, w_split, W and L gives what the ends need, and :func:`value`
    applies the module docstring's end rule in one place: the half weight
    of each nonempty panel's ends, the Euler-Maclaurin term at every end and
    the tail at L.  The integrand is the coupled one minus the mu = 0 one,
    with the closed form added back, or with uncoupled the mu = 0 integrand
    alone.  Returns per point (u, doublings, Richardson estimate), with u
    None when tolerance is never met.
    """
    t, x = np.array(points).T[..., None]
    ms, Ls = cuts
    ends = np.array([[lo for lo, _, _ in panels] + [L] for (_, _, panels), L in zip(grids, Ls)])
    f, slope, tail = _ends(ends + 1j * np.array([eps for eps, _, _ in grids])[:, None], t, x, params, uncoupled)
    base = np.zeros((len(points), 2)) if uncoupled else np.array([_closed_form(t, x, params) for t, x in points])
    # per point and panel: base interval count (the far one cut) and spacing
    counts = np.array([[n for _, _, n in panels[:-1]] + [m] for (_, _, panels), m in zip(grids, ms)])
    steps = np.array([[(hi - lo) / n for lo, hi, n in panels] for _, _, panels in grids])
    shared: dict = {}
    for i, (eps, _, panels) in enumerate(grids):
        for p, panel in enumerate(panels):
            shared.setdefault((eps, p, panel), []).append(i)
    shared = {key: np.array(rows) for key, rows in shared.items()}
    sums = np.zeros(counts.shape + (2,), dtype=complex)
    out = [(None, 0, math.inf)] * len(points)

    def sweep(active, level):
        """Add the samples new at level to the sums of the active points:
        at level 0 every sample, at level d only the odd-indexed samples of
        the halved spacing."""
        live = np.zeros(len(points), dtype=bool)
        live[active] = True
        for (eps, p, (lo, _, _)), rows in shared.items():
            rows = rows[live[rows]]
            if not rows.size:
                continue
            c, step = counts[rows, p], steps[rows[0], p] / 2**level
            at = [points[i] for i in rows]
            first, count = (0, c + (c > 0)) if level == 0 else (1, c << (level - 1))
            sums[rows, p] += _sample_sums(at, count, lo, step, first, first + 1, eps, params, uncoupled)

    def value(active, level):
        # each panel's spacing, 0 on an empty far panel, and the spacings
        # before and after each end
        h = np.where(counts[active] > 0, steps[active], 0.0) / 2**level
        before, after = np.pad(h, ((0, 0), (1, 0))), np.pad(h, ((0, 0), (0, 1)))
        raw = np.einsum("ijk,ij->ik", sums[active], h) - np.einsum("ijk,ij->ik", f[active], (before + after) / 2.0)
        raw -= np.einsum("ijk,ij->ik", slope[active], before**2 - after**2) / 12.0
        return base[active] + 2.0 * np.real((raw + tail[active, -1]) * (1j / (2.0 * math.pi)))

    active = np.arange(len(points))
    sweep(active, 0)
    prev = value(active, 0)
    for level in range(1, _MAX_REFINEMENT + 1):
        sweep(active, level)
        cur = value(active, level)
        est = np.max(np.abs(cur - prev), axis=1) / 3.0
        tol = np.maximum(_TOL * np.max(np.abs(cur), axis=1), _ABS_FLOOR)
        for j, i in enumerate(active):
            out[i] = (cur[j] if est[j] <= tol[j] else None, level, float(est[j]))
        keep = est > tol
        active, prev = active[keep], cur[keep]
        if not active.size:
            break
    return out


def field_modal_integral(t, x, params: WaveguideParams, return_info: bool = False):
    """Displacement pair u(t, x) by direct quadrature (the numeric oracle).

    The coupled integrand minus the mu = 0 one is integrated up to the
    point's own cutoff by the trapezoid with the module docstring's end
    rule (half weights, Euler-Maclaurin terms and the one-term tail, all
    from one pass over the panel ends), and the mu = 0 field,
    f_j * :func:`scalar_kg_exact` (c_j, w_j) per component, is added back.
    t and x are scalars, or equal-length 1-D arrays evaluated in one call.
    A scalar call returns a real length-2 array; with return_info=True also a
    dict holding the contour height, the point's cutoff (``omega_max``),
    final density, Richardson estimate, the number of integrand samples
    evaluated, the number of doublings made and the number of points that
    shared its inner and middle frequency tables (``batch``).  It raises :class:`NoConvergence`
    when doubling the density never brings the Richardson estimate under
    tolerance.

    ``richardson`` is the larger component of |cur - prev| / 3 between the
    last two levels of the returned value, which assumes O(h^2) convergence
    between them: it is an estimate, not a bound, and it does not see the
    truncation at ``omega_max``.  At the 24 interior points of the 6x5
    ``field`` window (t 30-220, V 0.65-1.8125, all at the floor density, one
    doubling) the returned value differs from the next finer level by up to
    0.007x it (median 0.0014x): with the Euler-Maclaurin term at w_split the
    value converges faster than O(h^2), and the estimate overstates the error.

    An array call returns shape (n, 2), and with return_info=True also a list
    of n such dicts; n may be 0.  There a point's value depends on its run
    neighbours (module docstring) at the rounding level only: it is within 1e-13 of
    the field's scale of a scalar call's, and its dict equals that call's
    apart from ``batch`` and, as closely, ``richardson``.  A point that does not converge gets a NaN row and its
    :class:`NoConvergence` under the dict's ``error`` key (None elsewhere).
    """
    ts, xs = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
    scalar = ts.ndim == 0 and xs.ndim == 0
    if not scalar and (ts.ndim != 1 or ts.shape != xs.shape):
        raise InvalidArgument(f"t and x must be scalars or equal-length 1-D arrays, got shapes {ts.shape}, {xs.shape}")
    ts, xs = ts.reshape(-1).tolist(), xs.reshape(-1).tolist()
    bad = next(((ti, xi) for ti, xi in zip(ts, xs) if not (math.isfinite(ti) and 0.0 <= xi < math.inf)), None)
    if bad is not None:
        raise InvalidArgument(f"field is evaluated for finite t and x >= 0 (it is even in x), got t={bad[0]!r}, x={bad[1]!r}")
    u, infos = _quadrature(ts, xs, params)
    if scalar:
        if infos[0]["error"] is not None:
            raise infos[0]["error"]
        return (u[0], infos[0]) if return_info else u[0]
    return (u, infos) if return_info else u


def _uncoupled_quadrature(t, x, params: WaveguideParams):
    """The mu = 0 integrand alone, by the same nested trapezoid on the full
    cutoff w_max with its one-term tail, for 1-D arrays t and x: (u, infos)
    as an array call of :func:`field_modal_integral`.

    This is the quadrature side of the identity the subtraction rests on;
    it must reproduce (f1 K(c1, omega1), f2 K(c2, omega2)), K = :func:`scalar_kg_exact`.
    """
    return _quadrature(np.asarray(t, dtype=float).tolist(), np.asarray(x, dtype=float).tolist(), params, uncoupled=True)


def _quadrature(ts, xs, params: WaveguideParams, uncoupled=False):
    """Values and info dicts of the points (ts[i], xs[i])."""
    points = list(zip(ts, xs))
    if not points:
        return np.zeros((0, 2)), []
    grids = [_panels(t, x, params) for t, x in points]
    cuts = _cutoffs(points, grids, params, uncoupled)
    results = _integrate_group(points, grids, cuts, params, uncoupled)
    # the inner and middle panels are set by ppu alone: a point shares both or neither
    batch = collections.Counter((eps, panels[0]) for eps, _, panels in grids)
    u = np.full((len(ts), 2), np.nan)
    infos = []
    for i, ((t, x), (eps, ppu, panels), m, L, (ui, level, est)) in enumerate(zip(points, grids, *cuts, results)):
        error = None
        if ui is None:
            error = NoConvergence(
                f"modal quadrature not converged at t={t:.6g}, x={x:.6g} "
                f"(density {ppu * 2**level:.0f}/unit)",
                achieved=est,
            )
        else:
            u[i] = ui
        infos.append({
            "epsilon": eps,
            "omega_max": L,
            "points_per_unit": ppu * 2**level,
            "richardson": est,
            "samples": sum((n << level) + 1 for n in (panels[0][2], panels[1][2], m) if n),
            "doublings": level,
            "batch": batch[eps, panels[0]],
            "error": error,
        })
    return u, infos


# ---------------------------------------------------------------------------
# scalar one-layer references


def scalar_kg_exact(t: float, x: float, c: float, Omega: float) -> float:
    """Impulse response of a single layer: -J0(Omega sqrt(t^2 - x^2/c^2))/(2c).

    Zero outside the cone |x| >= c t (and for t <= 0).  A non-finite t or x
    raises :class:`InvalidArgument`.
    """
    if not (math.isfinite(t) and math.isfinite(x)):
        raise InvalidArgument(f"scalar_kg_exact needs finite t and x, got t={t!r}, x={x!r}")
    if t <= 0.0 or abs(x) >= c * t:
        return 0.0
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    return -bessel_j0(z) / (2.0 * c)


def scalar_kg_far(t: float, x: float, c: float, Omega: float, S: float = 3.0) -> float:
    """Large-argument form -cos(z - pi/4) / (c sqrt(2 pi z)), z = Omega tau.

    Valid in the far zone z > S; raises :class:`OutsideFarZone` elsewhere,
    and :class:`InvalidArgument` at a non-finite t or x.
    """
    if not (math.isfinite(t) and math.isfinite(x)):
        raise InvalidArgument(f"scalar_kg_far needs finite t and x, got t={t!r}, x={x!r}")
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
