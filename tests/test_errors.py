"""Argument errors are WavezonesError subclasses that name the bad value."""

import numpy as np
import pytest

from wavezones.asymptotics import airy_term, assemble_field, q_function, sp_term
from wavezones.dispersion import branch_k, group_velocity_extrema, sample_diagram
from wavezones.errors import WavezonesError
from wavezones.model import DEFAULT_PARAMS as P
from wavezones.oracle import field_modal_integral
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
