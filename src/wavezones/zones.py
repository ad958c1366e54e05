"""Zone classification of the (t, V) half plane.

A point is classified by which saddle-point domains of influence overlap
at (t, x = V t).  Overlapping families cluster (union-find over links);
each cluster is then read as a letter:

    B   every present family in one cluster, or an unrecognized pattern
        (includes all near-front and near-field points): no simplification,
        evaluate the integral directly;
    Q   crossing cluster {1,3} joined by one more branch-2 family;
    J   crossing cluster alone (families 1 and, when present, 3): the
        exchange pulse replaces their stationary-point terms;
    Ai  a merging pair at a group-velocity extremum, or the complex
        partner still close to its extremum;
    SP  / SPe: an isolated real / complex stationary point.

Links use the phase difference for adjacent real families, the pulse
argument b for the crossing pair, and the decay exponent for complex
saddles; all compared against the same dimensionless threshold S.

On a ray x = V t each of these links is linear in t, so a V row has only a
handful of distinct labels.  Classification is therefore split in three:
:func:`_row` gathers, once per V, everything that does not depend on t (the
saddles, the extrema, the omega-ordered pairs, whether the crossing link can
fire, the Airy-pocket and decay coefficients); :func:`_state` evaluates the
links at one t as a tuple of booleans, each with the floating-point
expression of the per-point test; :func:`_label` runs the cluster and letter
logic once per distinct state and memoizes the result in the row.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .dispersion import velocity_extrema
from .errors import UnknownLabel
from .model import WaveguideParams, crossing_point
from .saddle import find_complex_saddles, find_real_saddles, merge_families, pair_is_real

__all__ = [
    "TermDescriptor",
    "ZoneLabel",
    "ScalarZoneLabel",
    "ZoneDiagram",
    "classify",
    "zone_diagram",
    "scalar_zone_classify",
    "parent_of",
]

_PRECEDENCE = ("B", "Q", "J", "Ai", "SP", "SPe")

_PARENT = {
    "SP": "Ai",
    "SPe": "Ai",
    "Ai": "Q",
    "Q": "B",
    "J": "B",
    "B": None,
    "far": "bessel",
    "near": "bessel",
    "bessel": None,
    "zero": None,
}


@dataclasses.dataclass(frozen=True)
class ZoneLabel:
    """Zone of one (t, V) point: dominant letter, full letter set, SP count."""

    primary: str
    letters: tuple[str, ...]
    sp_count: int
    parent: str | None


@dataclasses.dataclass(frozen=True)
class TermDescriptor:
    """One asymptotic contribution at a (t, x) point.

    kind is one of SP, SPe, Ai, J, Q, B; saddles lists the family indices
    involved; extremum is the GroupVelocityExtremum of an Ai term; note
    records what triggered the descriptor.  classify returns descriptors
    without a value, shared by every point with the same link state;
    asymptotics.assemble_field returns new ones carrying the value (a
    complex pair).
    """

    kind: str
    saddles: tuple[int, ...] = ()
    value: np.ndarray | None = None
    note: str = ""
    extremum: object | None = None


@dataclasses.dataclass(frozen=True)
class ScalarZoneLabel:
    """Zone of the single-layer reference diagram (far / bessel / near / zero)."""

    kind: str
    S: float


def parent_of(label: str) -> str | None:
    """Static parent map of the zone hierarchy (B and bessel are roots)."""
    try:
        return _PARENT[label]
    except KeyError:
        raise UnknownLabel(f"no such zone label: {label!r}") from None


class _UnionFind:
    def __init__(self, items):
        self._up = {i: i for i in items}

    def find(self, i):
        while self._up[i] != i:
            self._up[i] = self._up[self._up[i]]
            i = self._up[i]
        return i

    def union(self, a, b):
        self._up[self.find(a)] = self.find(b)

    def clusters(self):
        groups = {}
        for i in self._up:
            groups.setdefault(self.find(i), set()).add(i)
        return list(groups.values())


@dataclasses.dataclass
class _Row:
    """What the classification of one V row depends on apart from t and S.

    real_ids and complex_ids are the saddle families present, in order;
    phases holds (k_a, omega_a, k_b, omega_b) of each omega-adjacent real
    pair other than {1, 3}, pair_ids their family indices; crossing holds
    (mu, v_fast, v_slow, denominator of b) when the crossing link can fire;
    loose holds (extremum, |c3|, |1/V - 1/v_e|) of each extremum whose Airy
    node stands in for an unresolved pair once its pocket is reached;
    shadow holds (index, extremum, Im g) of each complex saddle.  memo maps
    a link state to its (ZoneLabel, descriptors).
    """

    V: float
    real_ids: tuple
    complex_ids: tuple
    ext_by_pair: dict
    crossing: tuple | None
    pair_ids: tuple
    phases: tuple
    loose: tuple
    shadow: tuple
    memo: dict


_ZERO = ZoneLabel("zero", (), 0, None)


@functools.lru_cache(maxsize=64)
def _row(V: float, params: WaveguideParams):
    """The row record at speed V; None when every t > 0 is zero.

    Cached for the 64 most recent speeds: a ray or a diagram row reuses
    one record, and a sweep over V keeps only a few rows alive.
    """
    if V >= params.c1:
        return None
    reals = {s.index: s for s in find_real_saddles(V, params)}
    if not reals:
        return None
    complexes = {s.index: s for s in find_complex_saddles(V, params)}

    # crossing link: families 1 and 3 share the exchange-pulse region when
    # the point is strictly inside the wedge and the pulse argument b is
    # small.  _state evaluates b with model.j_parameters' expression and this
    # precomputed denominator: a j_parameters call per state costs 3x more
    cp = crossing_point(params)
    crossing = None
    if params.mu > 0.0 and 1 in reals:
        inv_gap = 1.0 / cp.v_slow - 1.0 / cp.v_fast
        crossing = (params.mu, cp.v_fast, cp.v_slow, params.c1 * params.c2 * cp.k_c * inv_gap)

    # the crossing pair is linked by b, never by phase
    ordered = sorted(reals.values(), key=lambda s: s.omega_star.real)
    pairs = [(a, b) for a, b in zip(ordered[:-1], ordered[1:]) if {a.index, b.index} != {1, 3}]

    ext_by_pair, ext_by_partner, loose = {}, {}, []
    for e in velocity_extrema(params):
        pair, partner = merge_families(e)
        ext_by_pair[pair] = e
        ext_by_partner[partner] = e
        # pocket-active extrema whose pair is unresolved (V = v_e exactly: the
        # pair is neither real nor complex) get their Airy node directly, but
        # only on the side of v_e where the pair leaves the real axis;
        # elsewhere a missing member is another transition's doing.  A real
        # member or a found partner is handled by the clusters / complex branch
        if not pair_is_real(e, V) and partner not in complexes and not any(i in reals for i in pair):
            loose.append((e, abs(e.cubic_coeff), abs(1.0 / V - 1.0 / e.v_e)))

    return _Row(
        V=V,
        real_ids=tuple(sorted(reals)),
        complex_ids=tuple(sorted(complexes)),
        ext_by_pair=ext_by_pair,
        crossing=crossing,
        pair_ids=tuple((a.index, b.index) for a, b in pairs),
        phases=tuple((a.k_star.real, a.omega_star.real, b.k_star.real, b.omega_star.real) for a, b in pairs),
        loose=tuple(loose),
        shadow=tuple((i, ext_by_partner.get(i), sc.g.imag) for i, sc in sorted(complexes.items())),
        memo={},
    )


def _state(row: _Row, t: float, S: float):
    """Link booleans at (t, x = V t): (crossing, phase links, pockets, decays).

    Each test is the floating-point expression the per-point classification
    has always used, so a state reproduces its labels exactly.
    """
    x = row.V * t
    crossing = False
    if row.crossing is not None:
        mu, v_fast, v_slow, den = row.crossing
        if x / v_fast < t < x / v_slow:
            crossing = mu * math.sqrt((t - x / v_fast) * (x / v_slow - t)) / den < S
    # phase gap |Re phi_a - Re phi_b| with phi = k x - omega t
    links = tuple([abs((ka * x - wa * t) - (kb * x - wb * t)) < S for ka, wa, kb, wb in row.phases])
    # Airy pocket from the local cubic model: the merge phase is
    # (4/3)|s|^{3/2} with s the scaled Airy argument.  This metric needs no
    # saddles, so it still fires at V = v_e exactly, where the double root
    # defeats the saddle finder.
    pockets = tuple([(4.0 / 3.0) * ((x * x / c3) ** (1.0 / 3.0) * gap) ** 1.5 < S for _, c3, gap in row.loose])
    # complex decay 2 x Im g
    decays = tuple([2.0 * x * im < S for _, _, im in row.shadow])
    return crossing, links, pockets, decays


def _label(row: _Row, state) -> tuple[ZoneLabel, tuple[TermDescriptor, ...]]:
    """Cluster the linked families of one state and read them as letters."""
    crossing_linked, links, pockets, decays = state

    uf = _UnionFind(row.real_ids)
    for (a, b), linked in zip(row.pair_ids, links):
        if linked:
            uf.union(a, b)
    if crossing_linked and 3 in row.real_ids:
        uf.union(1, 3)
    clusters = sorted(uf.clusters(), key=min)
    all_ids = set(row.real_ids)

    descriptors: list[TermDescriptor] = []
    letters: set[str] = set()
    bail_to_b = False

    for cl in clusters:
        ids = tuple(sorted(cl))
        if len(cl) >= 2 and cl == all_ids:
            bail_to_b = True
            break
        if len(cl) == 1:
            i = ids[0]
            if crossing_linked and i == 1:
                descriptors.append(TermDescriptor("J", saddles=(1,), note="crossing ghost"))
                letters.add("J")
            else:
                descriptors.append(TermDescriptor("SP", saddles=ids))
                letters.add("SP")
        elif ids in ((1, 3),):
            descriptors.append(TermDescriptor("J", saddles=ids))
            letters.add("J")
        elif ids in ((1, 2, 3), (1, 3, 4)) and crossing_linked:
            descriptors.append(TermDescriptor("Q", saddles=ids))
            letters.add("Q")
        elif ids in row.ext_by_pair:
            descriptors.append(TermDescriptor("Ai", saddles=ids, extremum=row.ext_by_pair[ids]))
            letters.add("Ai")
        else:
            bail_to_b = True
            break

    if bail_to_b:
        label = ZoneLabel("B", ("B",), 0, _PARENT["B"])
        ids = row.real_ids + row.complex_ids
        return label, (TermDescriptor("B", saddles=ids, note="no usable simplification"),)

    for (e, _, _), active in zip(row.loose, pockets):
        if active:
            descriptors.append(TermDescriptor("Ai", saddles=(), extremum=e, note="unresolved pair"))
            letters.add("Ai")

    # complex saddles: near their extremum they belong to the Airy
    # neighborhood, far from it they are exponentially small SPe terms
    for (i, e, _), near in zip(row.shadow, decays):
        if e is not None and near:
            descriptors.append(TermDescriptor("Ai", saddles=(i,), extremum=e, note="shadow side"))
            letters.add("Ai")
        else:
            descriptors.append(TermDescriptor("SPe", saddles=(i,)))
            letters.add("SPe")

    if "Q" in letters:
        primary = "Q"
    else:
        primary = next(k for k in _PRECEDENCE if k in letters)
    ordered_letters = tuple(k for k in _PRECEDENCE if k in letters)
    sp_count = sum(len(d.saddles) for d in descriptors if d.kind in ("SP", "SPe"))
    return ZoneLabel(primary, ordered_letters, sp_count, _PARENT[primary]), tuple(descriptors)


def _at(row: _Row | None, t: float, S: float):
    """(ZoneLabel, descriptors) at t > 0 on a row, memoized per state."""
    if row is None:
        return _ZERO, ()
    state = _state(row, t, S)
    hit = row.memo.get(state)
    if hit is None:
        hit = row.memo[state] = _label(row, state)
    return hit


def classify(t: float, V: float, params: WaveguideParams, S: float = 3.0):
    """Classify the point (t, x = V t); returns (ZoneLabel, term descriptors).

    The V row record (saddles, extrema, pairs, rates) is built once per V
    and cached; the link state at t selects a label memoized in the row.
    The descriptors carry structure only (kind, saddle families, extremum
    record); they are frozen and shared with every point of the same state.
    """
    if S <= 0.0:
        raise ValueError("threshold S must be positive")
    if t <= 0.0 or V >= params.c1:
        return _ZERO, []
    label, descriptors = _at(_row(V, params), t, S)
    return label, list(descriptors)


# ---------------------------------------------------------------------------
# diagrams


@dataclasses.dataclass
class ZoneDiagram:
    """Classified grid plus the label boundaries extracted per V row."""

    t_grid: np.ndarray
    v_grid: np.ndarray
    labels: list[list[str]]          # labels[i][j] at (v_grid[i], t_grid[j])
    boundaries: dict[tuple[str, str], list[tuple[float, float]]]
    monotone: bool                   # each boundary crossed at most once per row


def zone_diagram(params: WaveguideParams, t_range, v_range, shape=(60, 60), S: float = 3.0) -> ZoneDiagram:
    """Classify a (t, V) grid and locate zone boundaries along each V row.

    Each V row builds its row record once; every grid point, and every
    bisection step, then costs one link state and a memo lookup, exactly
    what :func:`classify` returns there.  Boundary points are bisected on
    that state to 1e-3 relative accuracy in t.  The monotone flag reports
    whether every (left,right) label transition occurs at most once per
    row, the structure the threshold metrics (all increasing in t at fixed
    V) imply.
    """
    nt, nv = shape
    t_lo, t_hi = t_range
    v_lo, v_hi = v_range
    if not (t_hi > t_lo > 0.0 and v_hi > v_lo > 0.0):
        raise ValueError("ranges must be positive and increasing")
    if S <= 0.0:
        raise ValueError("threshold S must be positive")
    t_grid = np.linspace(t_lo, t_hi, nt)
    v_grid = np.linspace(v_lo, v_hi, nv)

    labels = []
    boundaries: dict[tuple[str, str], list[tuple[float, float]]] = {}
    monotone = True
    for V in v_grid:
        rec = _row(float(V), params)
        row = [_at(rec, float(tt), S)[0].primary for tt in t_grid]
        labels.append(row)
        seen: set[tuple[str, str]] = set()
        for j in range(nt - 1):
            if row[j] == row[j + 1]:
                continue
            lo, hi = float(t_grid[j]), float(t_grid[j + 1])
            left = row[j]
            while (hi - lo) > 1e-3 * hi:
                mid = 0.5 * (lo + hi)
                if _at(rec, mid, S)[0].primary == left:
                    lo = mid
                else:
                    hi = mid
            key = (row[j], row[j + 1])
            if key in seen:
                monotone = False
            seen.add(key)
            boundaries.setdefault(key, []).append((0.5 * (lo + hi), float(V)))
    for pts in boundaries.values():
        pts.sort(key=lambda p: p[1])
    return ZoneDiagram(t_grid=t_grid, v_grid=v_grid, labels=labels, boundaries=boundaries, monotone=monotone)


def scalar_zone_classify(t: float, x: float, c: float, Omega: float, S: float = 3.0) -> ScalarZoneLabel:
    """Single-layer diagram: far (z > S), near (z < 1/S), bessel between.

    z = Omega sqrt(t^2 - x^2/c^2); outside the cone the field is zero.
    """
    if S <= 0.0:
        raise ValueError("threshold S must be positive")
    if t <= 0.0 or abs(x) >= c * t:
        return ScalarZoneLabel("zero", S)
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    if z > S:
        return ScalarZoneLabel("far", S)
    if z < 1.0 / S:
        return ScalarZoneLabel("near", S)
    return ScalarZoneLabel("bessel", S)
