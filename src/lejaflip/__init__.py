"""Leja points on the unit disk, their Lagrange basis polynomials, and the
numerical verification of the uniform bounds they satisfy."""

from .core import (
    UNIFORM_FLIP_BOUND,
    UNIFORM_FLIP_BOUND_2D,
    binary_decompose,
    stable_abs_product,
)
from .disk import (
    BoundarySamples,
    LejaSection,
    LejaValidation,
    SectionSplit,
    canonical_disk_leja,
    circle_samples,
    greedy_leja,
    omega0_of_section,
    split_section,
    validate_leja,
)
from .flip import (
    LebesgueReport,
    SpecialNStats,
    SupNormEstimate,
    circle_flip_stats,
    flip_direct,
    lebesgue_constant,
    special_n_statistics,
    sup_norm_on_circle,
)
from .transport import (
    ExteriorMap,
    TransportedSection,
    boundary_samples,
    chord_ratio,
    compact_flip_stats,
    ellipse_exterior_map,
    estimate_alper_constant,
    transport_sequence,
)
from .bivariate import (
    DEFAULT_ORACLE_CAP,
    IntertwiningArray,
    TwoDLejaReport,
    bivariate_flip,
    bivariate_lebesgue,
    build_array,
    check_delta,
    check_factorization,
    check_oracle,
    check_product_formula,
    flip_case,
    flip_via_vdm_ratio,
    interpolate,
    jackson_decay_experiment,
    lex_to_pair,
    pair_to_lex,
    schiffer_siciak,
    shape_of,
    triangular_number,
    vdm_determinant,
    vdm_extension_factor,
    vdm_matrix,
    verify_2d_leja,
)

__version__ = "0.1.0"
