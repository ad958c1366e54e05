"""Branch structure of the dispersion relation D(omega, k) = 0.

For fixed omega, D is a quadratic in k^2,

    A4 k^4 - B k^2 + C = 0,
    A4 = c1^2 c2^2,
    B  = c1^2 (omega^2 - omega2^2) + c2^2 (omega^2 - omega1^2),
    C  = (omega^2 - omega1^2)(omega^2 - omega2^2) - mu^2,

so the four k-roots come in +/- pairs built from two k^2 roots.  For real
omega and mu > 0 the discriminant is a sum of two squares and never vanishes:
the two k^2 roots stay real and distinct (avoided crossing), which makes the
branch labels globally well defined on the real axis:

    branch 1: smaller k^2 root; cuts on at the upper cutoff, k ~ omega/c1;
    branch 2: larger  k^2 root; cuts on at the lower cutoff, k ~ omega/c2.

At mu = 0 the branches reduce to the uncoupled layers, branch j being
sqrt(omega^2 - omega_j^2)/c_j.

All omega-derivatives of k along a branch are evaluated from exact implicit
differentiation of D (no finite differences), up to third order; that is what
the saddle, Airy, and curvature machinery downstream consumes.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import BranchPointProximity, ExtremumNotFound, InvalidArgument, NoConvergence, OverstrongCoupling
from .model import WaveguideParams, crossing_point, symbol_dk, symbol_dw, symbol_pq, symbol_second, symbol_third

__all__ = [
    "k_squared_roots",
    "branch_k",
    "group_velocity",
    "derivatives_at",
    "DispersionDerivatives",
    "cutoff_frequencies",
    "exchange_branch_points",
    "GroupVelocityExtremum",
    "group_velocity_extrema",
    "velocity_extrema",
    "branch_range",
    "sample_diagram",
    "bracketed_newton",
]


def _pq_coeffs(omega, params: WaveguideParams):
    """(A4, B, C) of D = A4 k^4 - B k^2 + C, from the symbol's entries at k = 0."""
    P0, Q0 = symbol_pq(np.asarray(omega), 0.0, params)
    A4 = (params.c1 * params.c2) ** 2
    B = params.c1**2 * Q0 + params.c2**2 * P0
    C = P0 * Q0 - params.mu**2
    return A4, B, C


def k_squared_roots(omega, params: WaveguideParams):
    """Both k^2 roots at given omega, ordered by real part (small, large).

    Uses the Vieta product for the far root to avoid cancellation near the
    cutoffs where C ~ 0.  Accepts real or complex omega, scalar or array.
    """
    A4, B, C = _pq_coeffs(omega, params)
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    disc = np.sqrt(B * B - 4.0 * A4 * C)
    # pick the sqrt aligned with B so B + disc never cancels
    disc = np.where(np.real(np.conj(B) * disc) >= 0.0, disc, -disc)
    r_far = (B + disc) / (2.0 * A4)
    safe = np.where(r_far == 0.0, 1.0, r_far)
    r_near = np.where(r_far == 0.0, B / (2.0 * A4), C / (A4 * safe))
    near_first = np.real(r_near) <= np.real(r_far)
    return np.where(near_first, r_near, r_far), np.where(near_first, r_far, r_near)


def branch_k(branch: int, omega, params: WaveguideParams):
    """k(omega) on the labeled branch; complex below cutoff (evanescent).

    branch 1 is the upper curve (asymptote omega/c1), branch 2 the lower
    (asymptote omega/c2).  At mu = 0 the closed uncoupled forms are used, so
    branch j equals sqrt(omega^2 - omega_j^2)/c_j exactly.
    """
    if branch not in (1, 2):
        raise InvalidArgument(f"branch must be 1 or 2, got {branch!r}")
    omega = np.asarray(omega)
    if params.mu == 0.0:
        Om = params.omega1 if branch == 1 else params.omega2
        c = params.c1 if branch == 1 else params.c2
        out = np.sqrt((omega.astype(complex)) ** 2 - Om**2) / c
    else:
        lo, hi = k_squared_roots(omega, params)
        out = np.sqrt(lo if branch == 1 else hi)
    return out if out.ndim else complex(out)


@dataclasses.dataclass(frozen=True)
class DispersionDerivatives:
    """Exact local data of D at a point (omega, k) on (or off) a branch.

    kp, kpp, kppp are d k/d omega and higher along the implicit branch
    through the point; vg = 1/kp is the group velocity.
    """

    P: complex
    Q: complex
    D: complex
    Dk: complex
    Dw: complex
    kp: complex
    kpp: complex
    kppp: complex
    vg: complex


def derivatives_at(omega, k, params: WaveguideParams) -> DispersionDerivatives:
    """Implicit derivatives of k(omega) at (omega, k), through third order.

    Vectorized: array inputs give array fields and never raise; scalar
    inputs raise :class:`BranchPointProximity` where d_k D degenerates
    (branch point or cutoff) and the implicit derivatives blow up.
    """
    P, Q = symbol_pq(omega, k, params)
    D = P * Q - params.mu**2
    Dk = symbol_dk(k, P, Q, params)
    Dw = symbol_dw(omega, P, Q)
    Dkk, Dww, Dwk = symbol_second(omega, k, P, Q, params)
    Dwww, Dwwk, Dwkk, Dkkk = symbol_third(omega, k, params)
    scalar = np.ndim(omega) == 0 and np.ndim(k) == 0
    if scalar and abs(Dk) == 0.0:
        raise BranchPointProximity(f"d_k D vanishes at omega={omega}, k={k}")
    with np.errstate(divide="ignore", invalid="ignore"):
        kp = -Dw / Dk
        kpp = -(Dww + 2.0 * Dwk * kp + Dkk * kp**2) / Dk
        kppp = -(
            Dwww
            + 3.0 * Dwwk * kp
            + 3.0 * Dwkk * kp**2
            + Dkkk * kp**3
            + 3.0 * kpp * (Dwk + Dkk * kp)
        ) / Dk
        vg = -Dk / Dw
    if scalar and not (np.isfinite(abs(kp)) and np.isfinite(abs(kpp)) and np.isfinite(abs(kppp))):
        raise BranchPointProximity(
            f"implicit derivatives degenerate at omega={omega}, k={k} (|Dk|={abs(Dk):.3e})"
        )
    return DispersionDerivatives(P=P, Q=Q, D=D, Dk=Dk, Dw=Dw, kp=kp, kpp=kpp, kppp=kppp, vg=vg)


def group_velocity(branch: int, omega, params: WaveguideParams):
    """d omega / d k on the labeled branch, real above the branch cutoff."""
    k = branch_k(branch, omega, params)
    d = derivatives_at(np.asarray(omega, dtype=complex), np.asarray(k, dtype=complex), params)
    vg = d.vg
    return vg if np.ndim(vg) else complex(vg)


def cutoff_frequencies(params: WaveguideParams):
    """The two k = 0 frequencies (lower, upper) of the coupled system.

    Roots of (w^2 - omega1^2)(w^2 - omega2^2) = mu^2; the coupling pushes
    them apart, below omega1 and above omega2.
    """
    s = params.omega1**2 + params.omega2**2
    d = params.omega2**2 - params.omega1**2
    disc = math.sqrt(d * d + 4.0 * params.mu**2)
    y_lo = 0.5 * (s - disc)
    y_hi = 0.5 * (s + disc)
    if y_lo <= 0.0:
        raise OverstrongCoupling(f"lower cutoff not real: mu >= omega1*omega2, got mu={params.mu!r}, "
                                 f"omega1*omega2={params.omega1 * params.omega2!r}")
    return math.sqrt(y_lo), math.sqrt(y_hi)


#: upper end of the frequency range the branches are tabulated and scanned on
_W_MAX = 1e5


def branch_range(branch: int, params: WaveguideParams) -> tuple[float, float]:
    """Frequencies (lo, 1e5) covered on a branch, lo just above its cutoff.

    At mu = 0 branch j is subsystem j and cuts on at its own omega_j.  The
    saddle table and the extremum scan both run over this range.
    """
    if params.mu == 0.0:
        cutoff = params.omega1 if branch == 1 else params.omega2
    else:
        lo_cut, hi_cut = cutoff_frequencies(params)
        cutoff = hi_cut if branch == 1 else lo_cut
    return cutoff * (1.0 + 1e-9), _W_MAX


def exchange_branch_points(params: WaveguideParams):
    """Complex omega where the two k^2 roots coincide (D = d_k D = 0, k != 0).

    Closed form: omega^2 = omega_c^2 +/- 2i c1 c2 mu / (c1^2 - c2^2), four
    points counting both omega signs, in conjugate pairs off the real axis.
    Empty for mu = 0.  The k = 0 cutoff degeneracies are not included.
    """
    if params.mu == 0.0:
        return []
    cp = crossing_point(params)
    gamma = 2.0 * params.c1 * params.c2 * params.mu / (params.c1**2 - params.c2**2)
    pts = []
    for sgn_im in (+1.0, -1.0):
        w = np.sqrt(complex(cp.omega_c**2, sgn_im * gamma))
        pts.extend([w, -w])
    pts.sort(key=lambda w: (round(w.real, 12), round(w.imag, 12)))
    return pts


def bracketed_newton(branch: int, residual, a: float, b: float, x: float, params: WaveguideParams):
    """Root of residual(derivatives) = (F, dF/domega) along a branch: (omega, k, derivatives).

    F > 0 at the a end and F <= 0 at the b end (a may lie on either side of
    b); x starts inside the bracket, and Newton steps that leave it are
    replaced by bisection.
    """
    for _ in range(100):
        k = branch_k(branch, x, params)
        d = derivatives_at(complex(x), k, params)
        F, slope = residual(d)
        if F > 0.0:
            a = x
        else:
            b = x
        step = -F / slope if slope != 0.0 else math.inf
        if abs(step) <= 1e-14 * x or abs(b - a) <= 1e-15 * x:
            return x, k, d
        x = x + step
        if not min(a, b) < x < max(a, b):
            x = 0.5 * (a + b)
    raise NoConvergence(
        f"root on branch {branch} not polished in [{min(a, b):.6g}, {max(a, b):.6g}]",
        achieved=abs(b - a) / x,
    )


# ---------------------------------------------------------------------------
# group-velocity extrema


@dataclasses.dataclass(frozen=True)
class GroupVelocityExtremum:
    """Interior extremum of the group velocity along one branch.

    :param omega_e: frequency of the extremum.
    :param k_e: wavenumber on the branch there.
    :param v_e: extremal group velocity.
    :param kind: "max" or "min".
    :param branch: branch label carrying the extremum.
    :param cubic_coeff: -k'''(omega_e)/2, the curvature coefficient of the
        phase difference that controls the Airy transition at the extremum
        (negative at a velocity maximum, positive at a minimum).
    """

    omega_e: float
    k_e: float
    v_e: float
    kind: str
    branch: int
    cubic_coeff: float


def _kpp_on_branch(branch: int, omega, params: WaveguideParams):
    k = branch_k(branch, omega, params)
    return derivatives_at(np.asarray(omega, dtype=complex), np.asarray(k, dtype=complex), params).kpp


#: k'' samples per branch, geometric in the distance from the cutoff
_SCAN_POINTS = 4001


@functools.lru_cache(maxsize=128)
def velocity_extrema(params: WaveguideParams):
    """Locate all group-velocity extrema of both branches.

    Scans k''(omega) for sign changes over each whole branch (its
    :func:`branch_range`, on a grid geometric in the distance from the
    cutoff, from 1e-6 up) and polishes each by bracketed Newton on k'', with
    k''' as its slope.  Returns a tuple sorted by omega_e, empty when there
    are none (e.g. mu = 0), so the scan runs once per parameter set either
    way.
    """
    found = []
    for branch in (1, 2):
        lo, hi = branch_range(branch, params)
        grid = lo + np.geomspace(1e-6, hi - lo, _SCAN_POINTS)
        kpp = np.real(_kpp_on_branch(branch, grid, params))
        sign = np.sign(kpp)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
        for i in flips:
            a, b = (i, i + 1) if kpp[i] > 0.0 else (i + 1, i)
            start = grid[i] + (grid[i + 1] - grid[i]) * kpp[i] / (kpp[i] - kpp[i + 1])
            w_e, k_e, d = bracketed_newton(
                branch, lambda d: (d.kpp.real, d.kppp.real), float(grid[a]), float(grid[b]), float(start), params
            )
            coeff = -0.5 * float(np.real(d.kppp))
            found.append(
                GroupVelocityExtremum(
                    omega_e=w_e,
                    k_e=float(np.real(k_e)),
                    v_e=float(np.real(d.vg)),
                    kind="min" if coeff > 0.0 else "max",
                    branch=branch,
                    cubic_coeff=coeff,
                )
            )
    found.sort(key=lambda e: e.omega_e)
    return tuple(found)


def group_velocity_extrema(params: WaveguideParams):
    """The :func:`velocity_extrema` tuple; raises :class:`ExtremumNotFound`
    when it is empty (e.g. mu = 0)."""
    found = velocity_extrema(params)
    if not found:
        (lo1, hi1), (lo2, hi2) = branch_range(1, params), branch_range(2, params)
        raise ExtremumNotFound(
            f"no group-velocity extremum on branch 1 in [{lo1:.6g}, {hi1:.6g}] "
            f"or branch 2 in [{lo2:.6g}, {hi2:.6g}]"
        )
    return found


def sample_diagram(params: WaveguideParams, omega_min: float, omega_max: float, num: int):
    """Tabulate both branches on a frequency grid.

    Returns a structured array with fields omega, k1, k2, vg1, vg2; entries
    are NaN where a branch is evanescent (below its cutoff).
    """
    if not (omega_max > omega_min > 0.0) or num < 2:
        raise InvalidArgument(
            "need 0 < omega_min < omega_max and num >= 2, "
            f"got omega_min={omega_min!r}, omega_max={omega_max!r}, num={num!r}"
        )
    grid = np.linspace(omega_min, omega_max, num)
    out = np.zeros(num, dtype=[(n, float) for n in ("omega", "k1", "k2", "vg1", "vg2")])
    out["omega"] = grid
    for branch in (1, 2):
        k = np.atleast_1d(branch_k(branch, grid, params))
        propagating = np.abs(k.imag) <= 1e-9 * (1.0 + np.abs(k.real))
        d = derivatives_at(grid.astype(complex), k, params)
        vg = np.real(d.vg)
        out[f"k{branch}"] = np.where(propagating, k.real, np.nan)
        out[f"vg{branch}"] = np.where(propagating, vg, np.nan)
    return out
