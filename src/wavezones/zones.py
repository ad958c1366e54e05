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
argument b for the crossing pair, and the decay exponent for complex
saddles; all compared against the same dimensionless threshold S.  A
merging pair left unresolved (V = v_e to rounding) is an Ai node at every t.

On a ray x = V t each of these separations is its value at t = 1 (the rate)
times t, so a link is active while rate < S / t: a V row is a step function
of S / t, and each of its boundaries lies at some t = S / rate.  :func:`_row`
gathers, once per V, the saddles, the extrema, the fixed nodes and each link
with its rate; :func:`_label` runs the cluster and letter logic once per rank
of S / t among the rates, and the row memoizes the result.  The crossing
link exists only on rays strictly inside the exchange wedge, v_slow < V < v_fast.

:func:`classify` caches its rows per V.  :func:`zone_diagram` builds its
rows with :func:`_build_row` outside that cache, from complex saddles that
:func:`saddle.complex_saddles_along` solves for the whole V grid at once.
"""

from __future__ import annotations

import bisect
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
    without a value, shared by every point of the same row and rank of S / t;
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
    links names what each link joins, in the order crossing, phase, shadow:
    ("crossing", 1, 3) when the crossing link can fire, ("phase", a, b) for
    each omega-adjacent real pair other than {1, 3}, and ("shadow", index,
    extremum) for each complex saddle.  rates holds each link's separation
    at t = 1 on the ray (x = V): every separation grows linearly in t, so a
    link is active while rate < S / t, and steps holds the rates sorted.
    fixed holds the Ai node of each extremum whose merging pair is
    unresolved, present at every t.  memo maps the rank of S / t among the
    steps to its (ZoneLabel, descriptors).
    """

    V: float
    real_ids: tuple
    complex_ids: tuple
    ext_by_pair: dict
    links: tuple
    rates: tuple
    steps: list
    fixed: tuple
    memo: dict


_ZERO = ZoneLabel("zero", (), 0, None)


@functools.lru_cache(maxsize=64)
def _row(V: float, params: WaveguideParams):
    """The row record at speed V < c1; None when every t > 0 is zero.

    Cached for the 64 most recent speeds: a ray reuses one record, and a
    sweep over V keeps only a few rows alive.
    """
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

    # a merging pair that is neither real nor complex (V = v_e to rounding,
    # where the double root defeats both finders) is one Airy node at every
    # t; on the real side a missing member is another transition's doing
    ext_by_pair, ext_by_partner, fixed = {}, {}, []
    for e in velocity_extrema(params):
        pair, partner = merge_families(e)
        ext_by_pair[pair] = e
        ext_by_partner[partner] = e
        if not pair_is_real(e, V) and partner not in complexes and not any(i in reals for i in pair):
            fixed.append(TermDescriptor("Ai", extremum=e, note="unresolved pair"))

    # complex saddles decay as 2 x Im g; each is born at its extremum
    for i, sc in sorted(complexes.items()):
        links.append(("shadow", i, ext_by_partner[i]))
        rates.append(2.0 * V * sc.g.imag)

    return _Row(
        V=V,
        real_ids=tuple(sorted(reals)),
        complex_ids=tuple(sorted(complexes)),
        ext_by_pair=ext_by_pair,
        links=tuple(links),
        rates=tuple(rates),
        steps=sorted(rates),
        fixed=tuple(fixed),
        memo={},
    )


def _label(row: _Row, level: float) -> tuple[ZoneLabel, tuple[TermDescriptor, ...]]:
    """Cluster the families linked at S / t = level and read them as letters."""
    cluster = {i: frozenset((i,)) for i in row.real_ids}
    crossing_linked = False
    tail = list(row.fixed)
    for link, rate in zip(row.links, row.rates):
        kind, active = link[0], rate < level
        if kind == "shadow":
            # near their extremum complex saddles belong to the Airy
            # neighborhood, far from it they are exponentially small SPe terms
            _, i, e = link
            tail.append(TermDescriptor("Ai", saddles=(i,), extremum=e, note="shadow side") if active
                        else TermDescriptor("SPe", saddles=(i,)))
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
    """(ZoneLabel, descriptors) at t > 0 on a row, memoized per rank of S / t."""
    if row is None:
        return _ZERO, ()
    level = S / t
    rank = bisect.bisect_left(row.steps, level)
    hit = row.memo.get(rank)
    if hit is None:
        hit = row.memo[rank] = _label(row, level)
    return hit


def classify(t: float, V: float, params: WaveguideParams, S: float = 3.0):
    """Classify the point (t, x = V t); returns (ZoneLabel, term descriptors).

    The V row record (saddles, extrema, pairs, rates) is built once per V
    and cached; the rank of S / t among its rates selects a label memoized
    in the row.  The descriptors carry structure only (kind, saddle
    families, extremum record); they are frozen and shared with every point
    of the same rank.
    """
    if S <= 0.0:
        raise InvalidArgument(f"threshold S must be positive, got S={S!r}")
    # V = inf stands for t <= 0 (assemble_field), so only NaN is refused
    if math.isnan(t) or math.isnan(V):
        raise InvalidArgument(f"classify needs t and V that are numbers, got t={t!r}, V={V!r}")
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
    record once, outside :func:`classify`'s row cache; every grid point
    then costs one bisection and a memo lookup, exactly what
    :func:`classify` returns there.  A row's rank of S / t changes only at
    the thresholds t = S / rate, so its boundaries are exactly the thresholds
    inside the t range where the label changes, each keyed (left, right)
    by the labels of the intervals on either side.  The monotone flag
    reports whether every such transition occurs at most once per row, the
    structure the threshold metrics (all increasing in t at fixed V) imply.
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
        labels.append([_at(rec, tt, S)[0].primary for tt in ts])
        # the label is constant between consecutive thresholds S / rate, so
        # each interval is labelled once, at its midpoint
        taus = sorted({S / r for r in (rec.rates if rec else ()) if r > 0.0 and t_lo < S / r < t_hi})
        edges = [t_lo, *taus, t_hi]
        runs = [_at(rec, 0.5 * (lo + hi), S)[0].primary for lo, hi in zip(edges[:-1], edges[1:])]
        seen: set[tuple[str, str]] = set()
        for tau, left, right in zip(taus, runs[:-1], runs[1:]):
            if left == right:
                continue
            key = (left, right)
            if key in seen:
                monotone = False
            seen.add(key)
            boundaries.setdefault(key, []).append((tau, V))
    for pts in boundaries.values():
        pts.sort(key=lambda p: p[1])
    return ZoneDiagram(t_grid=t_grid, v_grid=v_grid, labels=labels, boundaries=boundaries, monotone=monotone)


def scalar_zone_classify(t: float, x: float, c: float, Omega: float, S: float = 3.0) -> ScalarZoneLabel:
    """Single-layer diagram: far (z > S), near (z < 1/S), bessel between.

    z = Omega sqrt(t^2 - x^2/c^2); outside the cone the field is zero.  A
    non-finite t or x raises :class:`InvalidArgument`.
    """
    if S <= 0.0:
        raise InvalidArgument(f"threshold S must be positive, got S={S!r}")
    if not (math.isfinite(t) and math.isfinite(x)):
        raise InvalidArgument(f"scalar_zone_classify needs finite t and x, got t={t!r}, x={x!r}")
    if t <= 0.0 or abs(x) >= c * t:
        return ScalarZoneLabel("zero", S)
    z = Omega * math.sqrt(t * t - (x / c) ** 2)
    if z > S:
        return ScalarZoneLabel("far", S)
    if z < 1.0 / S:
        return ScalarZoneLabel("near", S)
    return ScalarZoneLabel("bessel", S)
