"""Argument errors are WavezonesError subclasses that name the bad value, and
every other failure names the numbers it saw."""

import dataclasses
import math

import numpy as np
import pytest

from wavezones.asymptotics import _pair_calibrated, _q_loop, airy_term, assemble_field, j_term, q_function, sp_term
from wavezones.dispersion import branch_k, cutoff_frequencies, group_velocity_extrema, sample_diagram
from wavezones.errors import (
    DegenerateSpeeds,
    NoConvergence,
    OrderingViolation,
    OutsideFarZone,
    OutsideWedge,
    OverstrongCoupling,
    WavezonesError,
    WrongSignCurvature,
)
from wavezones.model import DEFAULT_PARAMS as P, crossing_point
from wavezones.oracle import field_modal_integral, scalar_kg_exact, scalar_kg_far
from wavezones.saddle import find_real_saddles
from wavezones.zones import classify, scalar_zone_classify, zone_diagram

SITES = {
    "sp_term": (lambda: sp_term(find_real_saddles(0.8, P)[0], 10.0, -2.5, P), "-2.5"),
    "airy_term": (lambda: airy_term(group_velocity_extrema(P)[0], -3.25, 5.0, P), "-3.25"),
    "q_function": (lambda: q_function(-0.75, 1.0), "-0.75"),
    "assemble_field": (lambda: assemble_field(10.0, -1.5, P), "-1.5"),
    "branch_k": (lambda: branch_k(7, 4.0, P), "7"),
    "sample_diagram": (lambda: sample_diagram(P, 5.0, 4.25, 10), "4.25"),
    "field_modal_integral shape": (lambda: field_modal_integral(np.ones(3), np.ones(2), P), "(3,)"),
    "field_modal_integral x": (lambda: field_modal_integral([1.0, 2.0], [1.0, -0.125], P), "-0.125"),
    "classify": (lambda: classify(20.0, 0.8, P, S=-0.5), "-0.5"),
    "zone_diagram S": (lambda: zone_diagram(P, (1.0, 10.0), (0.5, 1.0), shape=(3, 3), S=-0.625), "-0.625"),
    "zone_diagram ranges": (lambda: zone_diagram(P, (12.5, 10.0), (0.5, 1.0), shape=(3, 3)), "12.5"),
    "scalar_zone_classify": (lambda: scalar_zone_classify(1.0, 1.0, 2.0, 3.0, S=-2.0), "-2.0"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_bad_argument_raises_wavezones_error_with_its_value(site):
    call, value = SITES[site]
    with pytest.raises(WavezonesError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert value in str(info.value)


NAN, INF = math.nan, math.inf
NON_FINITE = {  # a NaN or infinite t, x or V, and the value the message must name
    "field_modal_integral t nan": (lambda: field_modal_integral(NAN, 1.0, P), "t=nan"),
    "field_modal_integral t inf": (lambda: field_modal_integral(INF, 1.0, P), "t=inf"),
    "field_modal_integral x inf": (lambda: field_modal_integral(10.0, INF, P), "x=inf"),
    "field_modal_integral array x nan": (lambda: field_modal_integral([1.0, 2.0], [1.0, NAN], P), "x=nan"),
    "assemble_field t nan": (lambda: assemble_field(NAN, 1.0, P), "t=nan"),
    "assemble_field x nan": (lambda: assemble_field(10.0, NAN, P), "x=nan"),
    "assemble_field x inf": (lambda: assemble_field(10.0, INF, P), "x=inf"),
    "classify t nan": (lambda: classify(NAN, 1.0, P), "t=nan"),
    "classify V nan": (lambda: classify(20.0, NAN, P), "V=nan"),
    "scalar_kg_exact t nan": (lambda: scalar_kg_exact(NAN, 1.0, 2.0, 3.0), "t=nan"),
    "scalar_kg_exact x inf": (lambda: scalar_kg_exact(10.0, INF, 2.0, 3.0), "x=inf"),
    "scalar_kg_far t inf": (lambda: scalar_kg_far(INF, 1.0, 2.0, 3.0), "t=inf"),
    "scalar_kg_far x nan": (lambda: scalar_kg_far(10.0, NAN, 2.0, 3.0), "x=nan"),
    "scalar_zone_classify t nan": (lambda: scalar_zone_classify(NAN, 1.0, 2.0, 3.0), "t=nan"),
    "scalar_zone_classify x -inf": (lambda: scalar_zone_classify(10.0, -INF, 2.0, 3.0), "x=-inf"),
}


@pytest.mark.parametrize("site", sorted(NON_FINITE))
def test_non_finite_argument_raises_with_its_value(site):
    call, value = NON_FINITE[site]
    with pytest.raises(WavezonesError) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert value in str(info.value)


def _like_curvature_pair():
    """The two-saddle form asked to merge a real saddle with itself."""
    s = find_real_saddles(0.8, P)[0]
    return _pair_calibrated(s, s, 10.0, 8.0, P)


def _unchecked(**kwargs):
    """The default preset with kwargs replaced, skipping validate."""
    return dataclasses.replace(P, **kwargs)


FAILURES = {  # site: (call, exception type, message prefix, a value the message must name)
    "_pair_calibrated": (_like_curvature_pair,
                         WrongSignCurvature, "pair calibration needs opposite-curvature saddles", "family 1"),
    "j_term": (lambda: j_term(10.0, 13.0, _unchecked(mu=0.0)),
               OutsideWedge, "no exchange pulse without interlayer coupling", "mu=0.0"),
    "_q_loop": (lambda: _q_loop(50.0, 0.0),
                NoConvergence, "loop quadrature for the cut integral did not settle", "z=50.0"),
    "cutoff_frequencies": (lambda: cutoff_frequencies(_unchecked(mu=11.0)),
                           OverstrongCoupling, "lower cutoff not real: mu >= omega1*omega2", "mu=11.0"),
    "crossing_point c1 == c2": (lambda: crossing_point(_unchecked(c2=2.0)),
                                DegenerateSpeeds, "c1 == c2: uncoupled branches do not cross", "c2=2.0"),
    "crossing_point ordering": (lambda: crossing_point(_unchecked(omega2=2.75)),
                                OrderingViolation, "no positive-k crossing", "omega2=2.75"),
    "scalar_kg_far": (lambda: scalar_kg_far(-1.25, 1.0, 2.0, 3.0),
                      OutsideFarZone, "outside the propagation cone", "t=-1.25"),
}


@pytest.mark.parametrize("site", sorted(FAILURES))
def test_failure_names_the_numbers_it_saw(site):
    call, kind, prefix, value = FAILURES[site]
    with pytest.raises(kind) as info:
        call()
    assert str(info.value).startswith(prefix)
    assert value in str(info.value)
    # a failed refinement reports its last change (_q_loop's is about 2.6e5), not 0
    assert "estimate 0.000e+00" not in str(info.value)
