"""Exact quantized barycenters, Ehrhart expansions, and toric stability
thresholds of lattice polytopes.

All arithmetic is exact rational arithmetic; there is no tolerance knob
anywhere.  See the README for the command-line interface.
"""

from .errors import (
    DegenerateInput,
    InsufficientSamples,
    InternalInconsistency,
    InvalidInput,
    InvalidPolarization,
    NotBoundedAtInfinity,
    PreconditionViolation,
    QbaryError,
    Unsupported,
    UnboundedInput,
)
from .exactnum import (
    LaurentSeries,
    Polynomial,
    Rational,
    RationalFunction,
    bernoulli,
    laurent_expand,
    poly_fit,
    rational_from_json,
    rational_to_json,
)
from .lattice import hermite_normal_form, primitive
from .polytope import (
    Body,
    Classification,
    FacetData,
    Halfspace,
    MeasureData,
    Polytope,
    classify,
    dilate,
    facet_data,
    hull_from_vertices,
    measure,
    minkowski_sum,
    polytope_from_document,
    polytope_from_halfspaces,
    polytope_to_document,
    support_value,
    translate,
)
from .ehrhart import (
    EhrhartPolynomial,
    count_points,
    ehrhart_polynomial,
    interior_count,
    reciprocity_check,
    reflexive_closed_form,
)
from .expansion import (
    BarycenterFunction,
    ExpansionCoefficients,
    QuantizedBarycenter,
    StabilizationVerdict,
    a1_closed_form,
    asymptotic_coefficients,
    barycenter_function,
    colinearity_check,
    df_coefficients,
    quantized_barycenter,
    reflexive_polygon_bck,
    rooftop,
    stabilization_check,
)
from .toric import (
    RooftopCoefficients,
    RooftopFan,
    ToricData,
    VirtualPolytope,
    divisor_polytope,
    hrr_coefficients,
    mixed_volume,
    rooftop_coefficients,
    rooftop_fan,
    toric_data,
    toric_from_polytope,
)
from .stability import (
    DeltaSequence,
    DeltaValue,
    del_pezzo_closed_form,
    delta,
    delta_k,
    delta_sequence,
    expected_vanishing_order,
    log_discrepancy,
)
from .data import fixture_names, load_fixture

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
