"""Zone classification of the (t, V) half plane.

A point is classified by which saddle-point domains of influence overlap
at (t, x = V t).  Linked families merge into clusters; each cluster is then
read as a letter:

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
argument b for the crossing pair, the Airy pocket for an unresolved merging
pair, and the decay exponent for complex saddles; all compared against the
same dimensionless threshold S.

On a ray x = V t each of these separations is its value at t = 1 (the rate)
times t, so a link is active while rate * t < S and each boundary of a V row
lies at some t = S / rate.  Classification is therefore split in three:
:func:`_row` gathers, once per V, the saddles, the extrema, and each link
with its rate; :func:`_state` compares every rate * t with S; :func:`_label`
runs the cluster and letter logic once per distinct state and memoizes the
result in the row.  The crossing link exists only on rays strictly inside
the exchange wedge, v_slow < V < v_fast.

:func:`classify` caches its rows per V.  :func:`zone_diagram` builds its
rows with :func:`_build_row` outside that cache, from complex saddles that
:func:`saddle.complex_saddles_along` solves for the whole V grid at once.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .dispersion import velocity_extrema
from .errors import InvalidArgument, UnknownLabel
from .model import WaveguideParams, crossing_point, j_parameters
from .saddle import (
    complex_saddles_along,
    find_complex_saddles,
    find_real_saddles,
    merge_families,
    pair_is_real,
    phase_difference,
)

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


@dataclasses.dataclass
class _Row:
    """What the classification of one V row depends on apart from t and S.

    real_ids and complex_ids are the saddle families present, in order.
    links names what each link joins, in the order crossing, phase, pocket,
    shadow: ("crossing", 1, 3) when the crossing link can fire, ("phase",
    a, b) for each omega-adjacent real pair other than {1, 3}, ("pocket",
    extremum) for each extremum whose Airy node stands in for an unresolved
    pair, and ("shadow", index, extremum or None) for each complex saddle.
    rates holds each link's separation at t = 1 on the ray (x = V): every
    separation grows linearly in t, so a link is active while rate * t < S.
    memo maps a link state to its (ZoneLabel, descriptors).
    """

    V: float
    real_ids: tuple
    complex_ids: tuple
    ext_by_pair: dict
    links: tuple
    rates: tuple
    memo: dict


_ZERO = ZoneLabel("zero", (), 0, None)


@functools.lru_cache(maxsize=64)
def _row(V: float, params: WaveguideParams):
    """The row record at speed V; None when every t > 0 is zero.

    Cached for the 64 most recent speeds: a ray reuses one record, and a
    sweep over V keeps only a few rows alive.
    """
    if V >= params.c1:
        return None
    reals = find_real_saddles(V, params)
    return _build_row(V, params, reals, find_complex_saddles(V, params)) if reals else None


def _build_row(V: float, params: WaveguideParams, reals, complexes) -> _Row:
    """The row record at speed V < c1 from its (nonempty) real and complex saddles."""
    reals = {s.index: s for s in reals}
    complexes = {s.index: s for s in complexes}
    links, rates = [], []

    # crossing link: families 1 and 3 share the exchange-pulse region when
    # the ray lies strictly inside the wedge and the pulse argument b is small
    cp = crossing_point(params)
    if params.mu > 0.0 and 1 in reals and cp.v_slow < V < cp.v_fast:
        links.append(("crossing", 1, 3))
        rates.append(j_parameters(1.0, V, params).b)

    # phase links between omega-adjacent real families; the crossing pair is
    # linked by b, never by phase
    ordered = sorted(reals.values(), key=lambda s: s.omega_star.real)
    for a, b in zip(ordered[:-1], ordered[1:]):
        if {a.index, b.index} != {1, 3}:
            links.append(("phase", a.index, b.index))
            rates.append(phase_difference(a, b, 1.0, V))

    ext_by_pair, ext_by_partner = {}, {}
    for e in velocity_extrema(params):
        pair, partner = merge_families(e)
        ext_by_pair[pair] = e
        ext_by_partner[partner] = e
        # pocket-active extrema whose pair is unresolved (V = v_e exactly: the
        # pair is neither real nor complex) get their Airy node directly, but
        # only on the side of v_e where the pair leaves the real axis;
        # elsewhere a missing member is another transition's doing.  A real
        # member or a found partner is handled by the clusters / complex branch.
        # The pocket is the merge phase (4/3)|s|^{3/2} of the local cubic
        # model, s the scaled Airy argument; it needs no saddles, so it still
        # fires at V = v_e exactly, where the double root defeats the finder
        if not pair_is_real(e, V) and partner not in complexes and not any(i in reals for i in pair):
            s_abs = (V * V / abs(e.cubic_coeff)) ** (1.0 / 3.0) * abs(1.0 / V - 1.0 / e.v_e)
            links.append(("pocket", e))
            rates.append((4.0 / 3.0) * s_abs**1.5)

    # complex saddles decay as 2 x Im g
    for i, sc in sorted(complexes.items()):
        links.append(("shadow", i, ext_by_partner.get(i)))
        rates.append(2.0 * V * sc.g.imag)

    return _Row(
        V=V,
        real_ids=tuple(sorted(reals)),
        complex_ids=tuple(sorted(complexes)),
        ext_by_pair=ext_by_pair,
        links=tuple(links),
        rates=tuple(rates),
        memo={},
    )


def _state(row: _Row, t: float, S: float):
    """Which links are active at (t, x = V t): one comparison per rate."""
    return tuple([r * t < S for r in row.rates])


def _label(row: _Row, state) -> tuple[ZoneLabel, tuple[TermDescriptor, ...]]:
    """Cluster the linked families of one state and read them as letters."""
    cluster = {i: frozenset((i,)) for i in row.real_ids}
    crossing_linked = False
    tail: list[TermDescriptor] = []
    for link, active in zip(row.links, state):
        kind = link[0]
        if kind == "pocket":
            if active:
                tail.append(TermDescriptor("Ai", saddles=(), extremum=link[1], note="unresolved pair"))
        elif kind == "shadow":
            # near their extremum complex saddles belong to the Airy
            # neighborhood, far from it they are exponentially small SPe terms
            _, i, e = link
            if e is not None and active:
                tail.append(TermDescriptor("Ai", saddles=(i,), extremum=e, note="shadow side"))
            else:
                tail.append(TermDescriptor("SPe", saddles=(i,)))
        elif active:
            crossing_linked |= kind == "crossing"
            _, a, b = link
            if b in cluster:  # without family 3, family 1 rides the pulse alone
                merged = cluster[a] | cluster[b]
                for i in merged:
                    cluster[i] = merged

    descriptors: list[TermDescriptor] = []
    for cl in sorted(set(cluster.values()), key=min):
        ids = tuple(sorted(cl))
        if len(cl) == 1:
            if crossing_linked and ids == (1,):
                descriptors.append(TermDescriptor("J", saddles=ids, note="crossing ghost"))
            else:
                descriptors.append(TermDescriptor("SP", saddles=ids))
        elif ids == row.real_ids:
            break
        elif ids == (1, 3):
            descriptors.append(TermDescriptor("J", saddles=ids))
        elif ids in ((1, 2, 3), (1, 3, 4)) and crossing_linked:
            descriptors.append(TermDescriptor("Q", saddles=ids))
        elif ids in row.ext_by_pair:
            descriptors.append(TermDescriptor("Ai", saddles=ids, extremum=row.ext_by_pair[ids]))
        else:
            break
    else:
        # every cluster has a simplification
        descriptors += tail
        letters = {d.kind for d in descriptors}
        ordered_letters = tuple(k for k in _PRECEDENCE if k in letters)
        primary = ordered_letters[0]
        sp_count = sum(len(d.saddles) for d in descriptors if d.kind in ("SP", "SPe"))
        return ZoneLabel(primary, ordered_letters, sp_count, _PARENT[primary]), tuple(descriptors)

    ids = row.real_ids + row.complex_ids
    return ZoneLabel("B", ("B",), 0, _PARENT["B"]), (TermDescriptor("B", saddles=ids, note="no usable simplification"),)


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
        raise InvalidArgument(f"threshold S must be positive, got S={S!r}")
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

    The complex saddles of every row come from one continuation along V
    (:func:`saddle.complex_saddles_along`).  Each V row builds its row
    record once, outside :func:`classify`'s row cache; every grid point,
    and every bisection step, then costs one link state and a memo lookup,
    exactly what :func:`classify` returns there.  Boundary points are
    bisected on that state to 1e-3 relative accuracy in t.  The monotone
    flag reports whether every (left,right) label transition occurs at most
    once per row, the structure the threshold metrics (all increasing in t
    at fixed V) imply.
    """
    nt, nv = shape
    t_lo, t_hi = t_range
    v_lo, v_hi = v_range
    if not (t_hi > t_lo > 0.0 and v_hi > v_lo > 0.0):
        raise InvalidArgument(f"ranges must be positive and increasing, got t_range={t_range!r}, v_range={v_range!r}")
    if S <= 0.0:
        raise InvalidArgument(f"threshold S must be positive, got S={S!r}")
    t_grid = np.linspace(t_lo, t_hi, nt)
    v_grid = np.linspace(v_lo, v_hi, nv)

    ts = t_grid.tolist()
    vs = v_grid.tolist()
    reals = [find_real_saddles(V, params) for V in vs]
    solved = [V for V, r in zip(vs, reals) if r]
    complexes = dict(zip(solved, complex_saddles_along(solved, params)))
    labels = []
    boundaries: dict[tuple[str, str], list[tuple[float, float]]] = {}
    monotone = True
    for V, real in zip(vs, reals):
        rec = _build_row(V, params, real, complexes[V]) if real else None
        row = [_at(rec, tt, S)[0].primary for tt in ts]
        labels.append(row)
        seen: set[tuple[str, str]] = set()
        for j in range(nt - 1):
            if row[j] == row[j + 1]:
                continue
            lo, hi = ts[j], ts[j + 1]
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
            boundaries.setdefault(key, []).append((0.5 * (lo + hi), V))
    for pts in boundaries.values():
        pts.sort(key=lambda p: p[1])
    return ZoneDiagram(t_grid=t_grid, v_grid=v_grid, labels=labels, boundaries=boundaries, monotone=monotone)


def scalar_zone_classify(t: float, x: float, c: float, Omega: float, S: float = 3.0) -> ScalarZoneLabel:
    """Single-layer diagram: far (z > S), near (z < 1/S), bessel between.

    z = Omega sqrt(t^2 - x^2/c^2); outside the cone the field is zero.
    """
    if S <= 0.0:
        raise InvalidArgument(f"threshold S must be positive, got S={S!r}")
    if t <= 0.0 or abs(x) >= c * t:
        return ScalarZoneLabel("zero", S)
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    if z > S:
        return ScalarZoneLabel("far", S)
    if z < 1.0 / S:
        return ScalarZoneLabel("near", S)
    return ScalarZoneLabel("bessel", S)
