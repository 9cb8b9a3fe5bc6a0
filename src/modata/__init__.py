"""Modular-data toolkit for unitary modular tensor categories.

Compute self-braiding traces, Frobenius-Schur indicators and eigenvalue
multiplicities from (S, T) alone; validate candidate data against the
modularity axioms and the trace realizability constraints; synthesize the
canonical R-matrices; search small fusion rings for admissible data; and
cross-check everything against explicit anyon models.
"""

__version__ = "0.1.0"

from .axioms import AxiomReport, Diagnostic, validate
from .bantay import (
    RealizabilityError,
    eigen_multiplicities,
    fs_indicators,
    realizability_report,
    trace_table,
)
from .modular_data import (
    DerivedData,
    InvalidModularData,
    ModularData,
    derive,
    load_modular_data,
    save_modular_data,
    twists,
    verlinde_fusion,
)
from .numerics import (
    DEFAULT_POLICY,
    TolerancePolicy,
    phase_from_turns,
    principal_sqrt,
    turns_fraction,
)
from .oracle import (
    ExplicitModel,
    brute_trace,
    build_pointed_model,
    catalog_models,
    catalog_names,
    deligne,
    get_model,
    load_model,
)
from .rmatrix import RBlocks, canonical_r, monodromy_check
from .search import (
    FusionRing,
    FusionRingError,
    SearchResult,
    candidate_s,
    enumerate_t,
    load_fusion_ring,
    save_fusion_ring,
    search_pipeline,
)

__all__ = [
    "__version__",
    "AxiomReport", "Diagnostic", "validate",
    "RealizabilityError", "eigen_multiplicities", "fs_indicators", "realizability_report",
    "trace_table",
    "DerivedData", "InvalidModularData", "ModularData", "derive",
    "load_modular_data", "save_modular_data", "twists", "verlinde_fusion",
    "DEFAULT_POLICY", "TolerancePolicy", "phase_from_turns", "principal_sqrt",
    "turns_fraction",
    "ExplicitModel", "brute_trace", "build_pointed_model", "catalog_models",
    "catalog_names", "deligne", "get_model", "load_model",
    "RBlocks", "canonical_r", "monodromy_check",
    "FusionRing", "FusionRingError", "SearchResult", "candidate_s",
    "enumerate_t", "load_fusion_ring", "save_fusion_ring", "search_pipeline",
]
