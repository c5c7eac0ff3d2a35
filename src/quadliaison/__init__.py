"""Exact-arithmetic toolkit for ACM curves in projective space and on the
smooth quadric threefold: cohomology tables, regularity, complete-
intersection liaison, and two-term locally-free resolutions.
"""

from .ambient import P2, P3, P4, QUADRIC3, Ambient, parse_ambient, proj_space
from .classify import (
    CANDIDATE_CAP,
    DEFAULT_TWIST_BOUNDS,
    MATCH_WINDOW,
    GeneratorEstimate,
    enumerate_rank4_candidates,
    etype_candidates,
    etype_middle,
    generator_estimate,
    kernel_table_from_resolution,
    match_acm_kernel,
    rank4_candidate_count,
)
from .curves import (
    DEFAULT_WINDOW,
    CohomTable,
    CurveClass,
    Feasibility,
    RegularityReport,
    Window,
    acm_embedding_obstruction,
    ambient_table,
    curve_sections,
    full_ideal_table,
    ideal_h0,
    ideal_h0_table,
    klein_parity_check,
    nonspecial_threshold,
    parse_window,
    plane_genus,
    quadric_surface_genus_spectrum,
    regularity,
    render_value_csv,
    render_value_row,
    rr_chi,
    section_table,
)
from .errors import (
    InconsistencyError,
    InfeasibleError,
    MappingConeInconsistent,
    NegativeDimension,
    QLError,
    RangeTooLarge,
)
from .hilbert import binom, h0_proj, h0_quadric3, h0_spinor
from .liaison import (
    CellCheck,
    CILinkage,
    ConsistencyReport,
    ResolutionFlavor,
    ResolutionTriple,
    ci_residual,
    mapping_cone_e_from_n,
    mapping_cone_n_from_e,
    quadric_linkage,
    resolution_consistency_check,
)
from .sheaves import AtomKind, SheafExpr, TwistAtom, line_bundle, spinor, zero_sheaf
from .verify import CheckResult, all_ok, run_reference_checks

__version__ = "0.1.0"
