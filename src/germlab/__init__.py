"""germlab: exact local intersection invariants of polynomial map germs."""

from .errors import GermlabError, ParseError, PreconditionError, ResourceLimitError
from .orders import (
    DEGREVLEX,
    LEX,
    LOCAL_DEGREVLEX,
    MonomialOrder,
    block_order,
    compare_monomials,
)
from .poly import (
    INFINITY,
    PolyMap,
    PolyRing,
    Polynomial,
    compose_map,
    identity_map,
    jacobian_determinant,
    jacobian_matrix,
    linear_map,
)
from .parse import (
    Scenario,
    format_polynomial,
    parse_point,
    parse_polynomial,
    parse_rational,
    parse_scenario,
)
from .gb import (
    DEFAULT_GUARDS,
    GBResult,
    GuardConfig,
    Ideal,
    buchberger_basis,
    eliminate,
    hilbert_series_monomial,
    ideal_equal,
    krull_dimension,
    local_colength,
    normal_form,
    poly_gcd,
    poly_lcm,
    quotient_dimension,
    radical_equal,
    radical_membership,
    squarefree_part,
    staircase_monomials,
    zero_dim_radical,
)
from .germ import (
    GermReport,
    fiber_points_count,
    image_ideal,
    is_smooth_at_origin,
    lelong_degree,
    local_multiplicity,
    rational_points,
    singular_locus,
    tangent_cone,
)
from .intersect import (
    FormulaReport,
    GenericityConfig,
    IndexResult,
    PullbackReport,
    StollReport,
    critical_locus,
    geometric_multiplicity,
    intersection_index,
    jacobian_nonvanishing_on,
    multiplicity_along_V,
    projection_genericity_check,
    pullback_report,
    regular_multiplicity,
    sample_generic_point,
    sample_generic_points,
    stoll_check,
    verify_intersection_formula,
)

__version__ = "0.1.0"
