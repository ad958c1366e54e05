"""Zone classifier, hierarchy, diagram sampler, single-layer reference map."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wavezones.errors import UnknownLabel
from wavezones.model import DEFAULT_PARAMS
from wavezones.zones import (
    ZoneDiagram,
    classify,
    parent_of,
    scalar_zone_classify,
    zone_diagram,
)

V_MIN_EXT = 1.4427260773697537


def _kinds(descs):
    return [(d.kind, d.saddles) for d in descs]


def test_silent_quadrants():
    for t, V in ((-3.0, 1.0), (0.0, 0.7), (20.0, 2.0), (20.0, 2.5)):
        lab, descs = classify(t, V, DEFAULT_PARAMS)
        assert lab.primary == "zero"
        assert descs == [] or len(descs) == 0


def test_near_source_blob():
    lab, descs = classify(3.0, 1.0, DEFAULT_PARAMS)
    assert lab.primary == "B"
    assert _kinds(descs) == [("B", (1, 2, 6))]


def test_separated_slow_ray():
    lab, descs = classify(20.0, 0.8, DEFAULT_PARAMS)
    assert lab.primary == "SP"
    assert lab.sp_count == 3
    assert _kinds(descs) == [("SP", (1,)), ("SP", (2,)), ("SPe", (6,))]


def test_fast_ray_with_evanescent_partner():
    lab, descs = classify(40.0, 1.9, DEFAULT_PARAMS)
    assert lab.primary == "SP"
    assert _kinds(descs) == [("SP", (1,)), ("SPe", (5,))]


def test_wedge_center_pocket():
    # mid-wedge at moderate range: the three clustered stationary points are
    # not separable and stay wrapped in a composite descriptor
    lab, descs = classify(60.0, 1.465141, DEFAULT_PARAMS)
    assert lab.primary == "Q"
    assert _kinds(descs) == [("Q", (1, 2, 3)), ("SP", (4,))]


def test_pulse_band_classification():
    lab, descs = classify(75.0 / 1.38, 1.38, DEFAULT_PARAMS)
    assert lab.primary == "J"
    assert _kinds(descs) == [("J", (1,)), ("SP", (2,)), ("Ai", (6,))]


def test_extremum_ray_unresolved_pair():
    lab, descs = classify(277.25, V_MIN_EXT, DEFAULT_PARAMS)
    assert lab.primary == "Ai"
    assert descs[-1].kind == "Ai"
    assert descs[-1].extremum is not None
    assert descs[-1].extremum.kind == "min"


def test_extremum_neighborhood_pair_listed():
    lab, descs = classify(300.0, 1.47, DEFAULT_PARAMS)
    assert lab.primary == "Ai"
    ai = next(d for d in descs if d.kind == "Ai")
    assert ai.saddles == (2, 3)
    assert ai.extremum.kind == "max"


def test_parent_chain_terminates():
    assert parent_of("SPe") == "Ai"
    assert parent_of("Ai") == "Q"
    assert parent_of("Q") == "B"
    assert parent_of("B") is None
    assert parent_of("far") == "bessel"
    assert parent_of("near") == "bessel"
    assert parent_of("bessel") is None
    with pytest.raises(UnknownLabel):
        parent_of("nonsense")


@given(
    st.floats(min_value=-50.0, max_value=0.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_nothing_before_switch_on(t, V):
    lab, _ = classify(t, V, DEFAULT_PARAMS)
    assert lab.primary == "zero"


@given(
    st.floats(min_value=1.0, max_value=500.0),
    st.floats(min_value=2.0, max_value=4.0),
)
def test_nothing_beyond_fast_front(t, V):
    lab, _ = classify(t, V, DEFAULT_PARAMS)
    assert lab.primary == "zero"


@given(st.floats(min_value=1.0, max_value=400.0))
def test_descriptor_cover_is_exact(t):
    # every stationary point appears in exactly one descriptor
    for V in (0.8, 1.38, 1.465141, 1.55, 1.9):
        _, descs = classify(t, V, DEFAULT_PARAMS)
        seen = [i for d in descs for i in d.saddles]
        assert len(seen) == len(set(seen))


def test_isolation_is_eventual_along_each_ray():
    # far enough out every ray below the window resolves into singletons
    for V in (0.6, 1.0, 1.3):
        lab, descs = classify(4000.0, V, DEFAULT_PARAMS)
        assert lab.primary == "SP"
        assert all(len(d.saddles) == 1 for d in descs)


def test_precedence_weakens_with_time():
    # along a fixed ray the severity never increases: once B hands over to a
    # lighter treatment it does not come back
    order = {"B": 0, "Q": 1, "J": 2, "Ai": 3, "SP": 4, "SPe": 4, "zero": -1}
    for V in (0.8, 1.38, 1.465141, 1.9):
        ranks = []
        for t in np.geomspace(1.0, 5000.0, 36):
            lab, _ = classify(float(t), V, DEFAULT_PARAMS)
            if lab.primary != "zero":
                ranks.append(order[lab.primary])
        assert ranks == sorted(ranks), V


def test_diagram_structure():
    dg = zone_diagram(DEFAULT_PARAMS, (1.0, 120.0), (0.5, 2.2), shape=(24, 16))
    assert isinstance(dg, ZoneDiagram)
    assert len(dg.t_grid) == 24 and len(dg.v_grid) == 16
    assert len(dg.labels) == 16 and len(dg.labels[0]) == 24
    assert dg.monotone
    for key, pts in dg.boundaries.items():
        assert all(pts[i][1] <= pts[i + 1][1] for i in range(len(pts) - 1)), key
    flat = {lab for row in dg.labels for lab in row}
    assert "B" in flat and "SP" in flat and "zero" in flat


def test_scalar_zones_cone_and_bands():
    c, Om = 2.0, 3.0
    assert scalar_zone_classify(-1.0, 10.0, c, Om).kind == "zero"
    assert scalar_zone_classify(30.0, 75.0, c, Om).kind == "zero"
    assert scalar_zone_classify(30.0, 59.7, c, Om).kind == "far"
    # z = Om*sqrt(t^2 - (x/c)^2) picks the band
    x = 10.0
    t_near = np.sqrt((x / c) ** 2 + (0.2 / Om) ** 2)
    t_mid = np.sqrt((x / c) ** 2 + (1.0 / Om) ** 2)
    t_far = np.sqrt((x / c) ** 2 + (9.0 / Om) ** 2)
    assert scalar_zone_classify(float(t_near), x, c, Om).kind == "near"
    assert scalar_zone_classify(float(t_mid), x, c, Om).kind == "bessel"
    assert scalar_zone_classify(float(t_far), x, c, Om).kind == "far"
    with pytest.raises(ValueError):
        scalar_zone_classify(1.0, 1.0, c, Om, S=0.0)


def test_threshold_knob_moves_boundaries():
    # stricter separation requirement keeps composite labels alive longer
    t = 22.0
    lab_loose, _ = classify(t, 0.8, DEFAULT_PARAMS, S=0.5)
    lab_strict, _ = classify(t, 0.8, DEFAULT_PARAMS, S=40.0)
    order = {"B": 0, "Q": 1, "J": 2, "Ai": 3, "SP": 4, "SPe": 4}
    assert order[lab_strict.primary] <= order[lab_loose.primary]


# ---------------------------------------------------------------------------
# the row path against a per-point reference


def _reference_classify(t, V, params, S):
    """Per-point classification as it stood before the row record: every
    saddle, extremum and link rebuilt from scratch at (t, V)."""
    from wavezones.dispersion import group_velocity_extrema
    from wavezones.errors import ExtremumNotFound
    from wavezones.model import crossing_point, j_parameters
    from wavezones.saddle import find_complex_saddles, find_real_saddles, phase_difference

    if t <= 0.0 or V >= params.c1:
        return "zero", ()
    x = V * t
    reals = {s.index: s for s in find_real_saddles(V, params)}
    complexes = {s.index: s for s in find_complex_saddles(V, params)}
    try:
        extrema = group_velocity_extrema(params)
    except ExtremumNotFound:
        extrema = ()
    ext_by_pair = {((3, 4) if e.kind == "min" else (2, 3)): e for e in extrema}
    if not reals:
        return "zero", ()
    cp = crossing_point(params)
    # the wedge test is on the ray, not on the point: at x = V t with V on a
    # wedge edge, x / v_slow rounds to either side of t
    crossing = params.mu > 0.0 and cp.v_slow < V < cp.v_fast and 1 in reals and j_parameters(t, x, params).b < S
    up = {i: i for i in reals}

    def find(i):
        while up[i] != i:
            i = up[i]
        return i

    ordered = sorted(reals.values(), key=lambda s: s.omega_star.real)
    for a, b in zip(ordered[:-1], ordered[1:]):
        if {a.index, b.index} != {1, 3} and phase_difference(a, b, t, x) < S:
            up[find(a.index)] = find(b.index)
    if crossing and 3 in reals:
        up[find(1)] = find(3)
    clusters = {}
    for i in reals:
        clusters.setdefault(find(i), set()).add(i)
    loose = []
    for pair, e in ext_by_pair.items():
        s_abs = (x * x / abs(e.cubic_coeff)) ** (1.0 / 3.0) * abs(1.0 / V - 1.0 / e.v_e)
        wrong_side = V > e.v_e if e.kind == "min" else V < e.v_e
        partner = 6 if e.kind == "min" else 5
        resolved = any(i in reals for i in pair) or partner in complexes
        if (4.0 / 3.0) * s_abs**1.5 < S and not wrong_side and not resolved:
            loose.append(("Ai", (), "unresolved pair", e))
    out = []
    for cl in sorted(clusters.values(), key=min):
        ids = tuple(sorted(cl))
        if len(cl) >= 2 and cl == set(reals):
            out = None
            break
        if len(cl) == 1:
            out.append(("J", ids, "crossing ghost", None) if crossing and ids == (1,) else ("SP", ids, "", None))
        elif ids == (1, 3):
            out.append(("J", ids, "", None))
        elif ids in ((1, 2, 3), (1, 3, 4)) and crossing:
            out.append(("Q", ids, "", None))
        elif ids in ((2, 3), (3, 4)) and ids in ext_by_pair:
            out.append(("Ai", ids, "", ext_by_pair[ids]))
        else:
            out = None
            break
    if out is None:
        ids = tuple(sorted(reals)) + tuple(sorted(complexes))
        return "B", (("B", ids, "no usable simplification", None),)
    out += loose
    for i, sc in sorted(complexes.items()):
        decay = 2.0 * x * (sc.k_star - sc.omega_star / sc.V).imag
        e = next((e for e in extrema if (6 if e.kind == "min" else 5) == i), None)
        out.append(("Ai", (i,), "shadow side", e) if e is not None and decay < S else ("SPe", (i,), "", None))
    kinds = {k for k, *_ in out}
    primary = "Q" if "Q" in kinds else next(k for k in ("B", "Q", "J", "Ai", "SP", "SPe") if k in kinds)
    return primary, tuple(out)


def _edge_rows(params):
    """(V_lo, V_hi) pairs that zone_diagram samples exactly (a 2-row grid):
    the wedge edges, c2 and one ulp below c1, and the extremum speeds."""
    import math

    from wavezones.dispersion import group_velocity_extrema
    from wavezones.errors import ExtremumNotFound
    from wavezones.model import crossing_point

    cp = crossing_point(params)
    rows = [(cp.v_slow, cp.v_fast), (params.c2, math.nextafter(params.c1, 0.0))]
    try:
        lo, hi = sorted(e.v_e for e in group_velocity_extrema(params))
    except ExtremumNotFound:
        return rows
    # both extremum speeds exactly, and two rays inside the window
    return rows + [(lo, hi), (0.75 * lo + 0.25 * hi, 0.25 * lo + 0.75 * hi)]


@pytest.mark.parametrize("mu", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("S", [0.5, 3.0, 40.0])
def test_row_path_matches_per_point_reference(mu, S):
    import dataclasses

    params = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    unresolved = 0
    for v_range in _edge_rows(params):
        dg = zone_diagram(params, (2.0, 600.0), v_range, shape=(48, 2), S=S)
        assert list(dg.v_grid) == list(v_range)
        for V, row in zip(dg.v_grid, dg.labels):
            want = [_reference_classify(float(t), float(V), params, S) for t in dg.t_grid]
            assert row == [w[0] for w in want], (V, S)
            for t, (primary, terms) in zip(dg.t_grid, want):
                lab, descs = classify(float(t), float(V), params, S)
                assert lab.primary == primary
                got = tuple((d.kind, d.saddles, d.note, d.extremum) for d in descs)
                assert got == terms, (float(t), float(V))
                unresolved += sum(d.note == "unresolved pair" for d in descs)
            # boundaries: the same bisection on the reference labels
            for j in range(len(row) - 1):
                if row[j] == row[j + 1]:
                    continue
                lo, hi = float(dg.t_grid[j]), float(dg.t_grid[j + 1])
                while (hi - lo) > 1e-3 * hi:
                    mid = 0.5 * (lo + hi)
                    if _reference_classify(mid, float(V), params, S)[0] == row[j]:
                        lo = mid
                    else:
                        hi = mid
                assert (0.5 * (lo + hi), float(V)) in dg.boundaries[(row[j], row[j + 1])]
    # at V == v_e exactly the merging pair is neither real nor complex, and
    # the pocket test alone places its Airy node
    assert (unresolved > 0) == (mu > 0.0)


def test_classify_returns_frozen_descriptors():
    import dataclasses

    a = classify(20.0, 0.8, DEFAULT_PARAMS)[1]
    with pytest.raises(dataclasses.FrozenInstanceError):
        a[0].value = np.ones(2, dtype=complex)
    b = classify(20.0, 0.8, DEFAULT_PARAMS)[1]
    assert [d.kind for d in a] == [d.kind for d in b]
    assert all(d.value is None for d in b)


def test_non_positive_threshold_rejected():
    for S in (0.0, -1.0):
        with pytest.raises(ValueError):
            classify(20.0, 0.8, DEFAULT_PARAMS, S=S)
        with pytest.raises(ValueError):
            classify(-1.0, 3.0, DEFAULT_PARAMS, S=S)
        with pytest.raises(ValueError):
            zone_diagram(DEFAULT_PARAMS, (1.0, 10.0), (0.5, 1.0), shape=(3, 3), S=S)


def test_wedge_edge_rays_have_no_crossing_link():
    # on the rays V = v_slow and V = v_fast the pulse argument b vanishes and
    # x / v_slow rounds to either side of t; the wedge test is on the ray, so
    # neither edge fires the crossing link at any t
    from wavezones.model import crossing_point

    cp = crossing_point(DEFAULT_PARAMS)
    dg = zone_diagram(DEFAULT_PARAMS, (2.0, 600.0), (cp.v_slow, cp.v_fast), shape=(400, 2))
    assert list(dg.v_grid) == [cp.v_slow, cp.v_fast]
    for V, row in zip(dg.v_grid, dg.labels):
        runs = [row[0]] + [b for a, b in zip(row, row[1:]) if a != b]
        assert runs == ["B", "Ai", "SP"], float(V)
    assert dg.monotone


@given(
    st.floats(min_value=0.0, max_value=1.5),
    st.floats(min_value=0.3, max_value=40.0),
    st.floats(min_value=0.05, max_value=2.0, exclude_min=True, exclude_max=True),
)
def test_boundaries_lie_at_rate_thresholds(mu, S, V):
    # every link separation is rate * t on the ray, so each boundary of a row
    # sits at t = S / rate for one of its rates, and the label is constant
    # between consecutive thresholds
    import dataclasses

    from wavezones import zones

    params = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    dg = zone_diagram(params, (1.0, 600.0), (V, V + 1e-3), shape=(40, 2), S=S)
    for v in dg.v_grid:
        row = zones._row(float(v), params)
        taus = sorted(S / r for r in (row.rates if row else ()) if r > 0.0)
        for key, pts in dg.boundaries.items():
            for t, bv in pts:
                if bv == v:
                    assert any(abs(t - tau) <= 1e-3 * t for tau in taus), (key, t, float(v))
        edges = [1.0] + [tau for tau in taus if 1.0 < tau < 600.0] + [600.0]
        for lo, hi in zip(edges[:-1], edges[1:]):
            labels = {zones._at(row, lo + f * (hi - lo), S)[0] for f in (0.01, 0.5, 0.99)}
            assert len(labels) == 1, (lo, hi, float(v))


_PINNED_GRIDS = {  # file name: (t_range, v_range, shape) of the `wavezones zones` call
    "40x60": ((1.0, 500.0), (0.5, 2.5), (40, 60)),
    "40x400": ((5.0, 600.0), (0.3, 2.1), (40, 400)),
}


@pytest.mark.parametrize("mu", ["0.0", "0.05", "0.5", "1.0"])
def test_zone_labels_match_pinned_grid(mu):
    # labels of `wavezones zones --grid 40x60` (default window and S), pinned
    # before the row record stored link rates, and of `zones --grid 40x400
    # --t-min 5 --t-max 600 --v-min 0.3 --v-max 2.1`, pinned before the
    # diagram solved its complex saddles by continuation along V
    import dataclasses
    from pathlib import Path

    params = dataclasses.replace(DEFAULT_PARAMS, mu=float(mu))
    for name, (t_range, v_range, shape) in _PINNED_GRIDS.items():
        dg = zone_diagram(params, t_range, v_range, shape=shape, S=3.0)
        pinned = (Path(__file__).parent / "data" / f"zones_{name}_mu{mu}.txt").read_text().splitlines()
        assert len(pinned) == len(dg.v_grid)
        for V, row, line in zip(dg.v_grid, dg.labels, pinned):
            want = line.split()
            assert len(row) == len(want)
            for t, got, w in zip(dg.t_grid, row, want):
                assert got == w, f"{name}: first difference at (t, V) = ({t!r}, {V!r}): {got} != {w}"


@pytest.mark.parametrize("mu", [0.05, 0.5, 1.0])
def test_diagram_rows_match_classify_and_stay_out_of_its_cache(mu):
    # the diagram solves its complex saddles by continuation along V; its
    # labels are what classify says point by point, and classify does not
    # depend on whether a diagram ran first
    import dataclasses

    from wavezones import zones

    params = dataclasses.replace(DEFAULT_PARAMS, mu=mu)
    zones._row.cache_clear()
    dg = zone_diagram(params, (5.0, 600.0), (0.3, 2.1), shape=(12, 90), S=3.0)
    assert zones._row.cache_info().currsize == 0
    for V, row in zip(dg.v_grid, dg.labels):
        assert row == [classify(float(t), float(V), params)[0].primary for t in dg.t_grid], float(V)
