"""Transient wave fields of a two-layer coupled waveguide.

The package computes the impulse response of two weakly coupled
Klein-Gordon layers: exact dispersion data, stationary-point families in
the (t, V = x/t) half plane, zone classification, asymptotic field
assembly, and a direct-quadrature oracle for validation.
"""

from .asymptotics import (
    FieldValue,
    airy_term,
    assemble_field,
    j_term,
    q_function,
    sp_term,
)
from .dispersion import (
    GroupVelocityExtremum,
    branch_k,
    cutoff_frequencies,
    exchange_branch_points,
    group_velocity,
    group_velocity_extrema,
    sample_diagram,
)
from .errors import NoConvergence, WavezonesError
from .model import (
    DEFAULT_PARAMS,
    CrossingPoint,
    WaveguideParams,
    amplitude_A,
    crossing_point,
    dispersion_D,
    j_parameters,
    load_params,
    validate,
)
from .oracle import (
    field_modal_integral,
    j_int_quadrature,
    scalar_kg_exact,
    scalar_kg_far,
)
from .saddle import (
    SaddlePoint,
    find_complex_saddles,
    find_real_saddles,
    phase_difference,
)
from .special import airy_ai, airy_ai_prime, bessel_j0
from .zones import (
    ScalarZoneLabel,
    TermDescriptor,
    ZoneDiagram,
    ZoneLabel,
    classify,
    parent_of,
    scalar_zone_classify,
    zone_diagram,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PARAMS",
    "CrossingPoint",
    "FieldValue",
    "GroupVelocityExtremum",
    "NoConvergence",
    "SaddlePoint",
    "ScalarZoneLabel",
    "TermDescriptor",
    "WaveguideParams",
    "WavezonesError",
    "ZoneDiagram",
    "ZoneLabel",
    "airy_ai",
    "airy_ai_prime",
    "airy_term",
    "amplitude_A",
    "assemble_field",
    "bessel_j0",
    "branch_k",
    "classify",
    "crossing_point",
    "cutoff_frequencies",
    "dispersion_D",
    "exchange_branch_points",
    "field_modal_integral",
    "find_complex_saddles",
    "find_real_saddles",
    "group_velocity",
    "group_velocity_extrema",
    "j_int_quadrature",
    "j_parameters",
    "j_term",
    "load_params",
    "parent_of",
    "phase_difference",
    "q_function",
    "sample_diagram",
    "scalar_kg_exact",
    "scalar_kg_far",
    "scalar_zone_classify",
    "sp_term",
    "validate",
    "zone_diagram",
]
