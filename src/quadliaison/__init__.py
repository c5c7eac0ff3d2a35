"""Exact-arithmetic toolkit for ACM curves in projective space and on the
smooth quadric threefold: cohomology tables, regularity, complete-
intersection liaison, and two-term locally-free resolutions.

The package root is lazy (PEP 562): ``import quadliaison`` loads no
submodule, and each name in ``__all__`` is imported from its submodule on
first access, so a command pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the names the package root re-exports from it
_EXPORTS = {
    "ambient": "P2 P3 P4 QUADRIC3 Ambient",
    "classify": "CANDIDATE_CAP DEFAULT_TWIST_BOUNDS GeneratorEstimate"
    " enumerate_rank4_candidates etype_candidates etype_middle generator_estimate"
    " kernel_table_from_resolution match_acm_kernel rank4_candidate_count",
    "curves": "DEFAULT_WINDOW CohomTable CurveClass Feasibility RegularityReport Window"
    " acm_embedding_obstruction ambient_table full_ideal_table ideal_h0_table"
    " nonspecial_threshold regularity render_value_csv render_value_row rr_chi section_table",
    "errors": "InconsistencyError InfeasibleError MappingConeInconsistent NegativeDimension"
    " QLError RangeTooLarge",
    "hilbert": "binom h0_proj h0_quadric3 h0_spinor",
    "liaison": "CellCheck CILinkage ConsistencyReport ResolutionFlavor ResolutionTriple"
    " ci_residual mapping_cone_e_from_n mapping_cone_n_from_e quadric_linkage"
    " resolution_consistency_check",
    "sheaves": "SheafExpr line_bundle spinor",
    "verify": "CheckResult run_reference_checks",
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = [*_EXPORTS, *_ORIGIN]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
