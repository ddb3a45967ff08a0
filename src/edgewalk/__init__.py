"""Quantum-walk search for the marked edges of a subgraph in a complete graph.

Mark a nonempty set of edges of K_{n+1} with sign -1 and drive the induced
sign-perturbed walk from the uniform state: after t_f = floor(pi/(2 theta))
steps the amplitude concentrates on the marked edges, quadratically faster
than the classical random walk on the line graph finds one.  The package
builds the operators, computes the searching times spectrally, simulates
both walks exactly, and verifies every inequality of the underlying
analysis numerically.
"""

from . import errors
from .bounds import BoundEntry, BoundLedger, SuiteReport, verify_all, verify_random_suite
from .classical_search import HittingTimeResult, hitting_time, mc_hitting_time
from .operators import (
    LineQuotientMatrix,
    VertexMatrix,
    apply_U,
    arc_matrix,
    arc_vector,
    build_P_quotient,
    build_T,
    build_U_dense,
    walk_arc_matrix,
)
from .quantum_search import (
    WalkDiagnostics,
    WalkSeries,
    asymptotic_diagnostics,
    evolve_state,
    finding_probability,
    initial_state,
    quantum_time,
    run_series,
)
from .signed_graph import (
    ArcTable,
    SignedCompleteGraph,
    build_arc_table,
    build_instance,
    complete_bipartite_edges,
    cycle_edges,
    edges_from_descriptor,
    matching_edges,
    path_edges,
    star_edges,
)
from .spectral import (
    LiftedPair,
    MappingReport,
    SpectralSummary,
    eigh,
    lift_eigenvectors,
    principal_pair,
    quotient_eigh,
    spectral_mapping_check,
    summarize_spectrum,
)

__version__ = "0.1.0"

# The edge-space names come from ``edge_space``, the one module that imports
# scipy, on first access (PEP 562), so that importing the package, and every
# command, loads numpy alone.
_EDGE_SPACE = {
    "ComplementGraph",
    "build_complement",
    "LineTransitionMatrix",
    "build_P",
    "line_principal_pair",
}


def __getattr__(name: str):
    if name in _EDGE_SPACE:
        from . import edge_space

        return getattr(edge_space, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "errors",
    "ArcTable",
    "SignedCompleteGraph",
    "ComplementGraph",
    "build_arc_table",
    "build_instance",
    "build_complement",
    "path_edges",
    "matching_edges",
    "star_edges",
    "cycle_edges",
    "complete_bipartite_edges",
    "edges_from_descriptor",
    "VertexMatrix",
    "LineTransitionMatrix",
    "LineQuotientMatrix",
    "build_T",
    "build_P",
    "build_P_quotient",
    "apply_U",
    "arc_matrix",
    "arc_vector",
    "walk_arc_matrix",
    "build_U_dense",
    "SpectralSummary",
    "LiftedPair",
    "MappingReport",
    "eigh",
    "quotient_eigh",
    "principal_pair",
    "summarize_spectrum",
    "lift_eigenvectors",
    "spectral_mapping_check",
    "line_principal_pair",
    "WalkSeries",
    "WalkDiagnostics",
    "initial_state",
    "finding_probability",
    "quantum_time",
    "evolve_state",
    "run_series",
    "asymptotic_diagnostics",
    "HittingTimeResult",
    "hitting_time",
    "mc_hitting_time",
    "BoundEntry",
    "BoundLedger",
    "SuiteReport",
    "verify_all",
    "verify_random_suite",
]
