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
    DiscriminantMatrix,
    LineTransitionMatrix,
    apply_U,
    arc_matrix,
    arc_vector,
    build_P,
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
    ComplementGraph,
    SignedCompleteGraph,
    build_arc_table,
    build_complement,
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
    line_principal_pair,
    principal_pair,
    quotient_eigh,
    spectral_mapping_check,
    summarize_spectrum,
)

__version__ = "0.1.0"

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
    "DiscriminantMatrix",
    "LineTransitionMatrix",
    "build_T",
    "build_P",
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
