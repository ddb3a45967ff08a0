"""Symmetric eigensolving, principal pairs, and the arc-space lifting.

Every eigenvalue lambda of the discriminant matrix with |lambda| < 1 lifts
to the conjugate pair exp(+-i arccos lambda) in the spectrum of the unitary
walk operator, with eigenvectors produced matrix-free from the vertex
eigenvector f:

    phi_+- = (d* - exp(+-i theta) S d*) f / (sqrt(2) sin theta).

The principal pair of the discriminant matrix fixes the rotation angle
theta_max = arccos(lambda_max) that defines the quantum searching time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .errors import DegenerateSpectrum, NoConvergence, NotSymmetric
from .operators import (
    DENSE_LINE_LIMIT,
    DiscriminantMatrix,
    LineTransitionMatrix,
    build_T,
    build_U_dense,
)
from .signed_graph import SignedCompleteGraph

__all__ = [
    "SpectralSummary",
    "LiftedPair",
    "MappingReport",
    "eigh",
    "principal_vector",
    "principal_pair",
    "summarize_spectrum",
    "d_star_apply",
    "lift_eigenvectors",
    "spectral_mapping_check",
    "line_principal_pair",
]

# 1 - lambda_max below this is treated as the exact structural event
# lambda_max = 1 (spanning complete bipartite subgraph).
DEGENERACY_TOL = 1e-12
# Eigenvalues closer than this are treated as one eigenspace when picking
# the principal vector.
TIE_TOL = 1e-10


def eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric real matrix, descending order.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns,
    orthonormal, matching the eigenvalue order.  Raises NotSymmetric when
    the input is asymmetric beyond 1e-12 (relative to its magnitude) and
    NoConvergence if the underlying solver fails.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {matrix.shape}")
    scale = max(1.0, float(np.abs(matrix).max()) if matrix.size else 0.0)
    asym = float(np.abs(matrix - matrix.T).max()) if matrix.size else 0.0
    if asym > 1e-12 * scale:
        raise NotSymmetric(f"asymmetry {asym:.3e} exceeds tolerance")
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return values[::-1].copy(), vectors[:, ::-1].copy()


def principal_vector(
    values: np.ndarray, vectors: np.ndarray, tie_tol: float = TIE_TOL
) -> np.ndarray:
    """Unit top-eigenspace vector with maximal overlap with the uniform
    direction, sign-fixed so that its inner product with it is >= 0.

    When the top eigenvalue is numerically multiple, the normalized
    projection of the uniform vector onto the top eigenspace maximizes the
    overlap every downstream bound consumes; if the uniform vector is
    orthogonal to the eigenspace, the first basis vector is returned.
    """
    order = vectors.shape[0]
    top = int(np.sum(values[0] - values < tie_tol))
    j = np.full(order, 1.0 / np.sqrt(order))
    basis = vectors[:, :top]
    coeffs = basis.T @ j
    norm = float(np.linalg.norm(coeffs))
    if norm < 1e-12:
        f = basis[:, 0]
    else:
        f = basis @ (coeffs / norm)
    if f @ j < 0:
        f = -f
    return f / np.linalg.norm(f)


@dataclass(frozen=True)
class SpectralSummary:
    """Principal spectral data of a discriminant matrix.

    ``eigenvalues`` is the full descending spectrum; ``f`` the unit
    principal eigenvector with nonnegative overlap with the uniform vector;
    ``theta_max = arccos(lambda_max)``; ``gap`` the top spectral gap; and
    ``overlap`` the squared inner product of f with the uniform vector.
    """

    eigenvalues: np.ndarray
    f: np.ndarray
    theta_max: float
    gap: float
    overlap: float

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])


def principal_pair(T: DiscriminantMatrix) -> SpectralSummary:
    """Principal eigenpair of the discriminant matrix.

    Raises DegenerateSpectrum when lambda_max >= 1 - 1e-12, which happens
    exactly when the marked subgraph is a spanning complete bipartite graph;
    the rotation angle is then zero and the searching time undefined.
    """
    return summarize_spectrum(*eigh(T.matrix))


def summarize_spectrum(values: np.ndarray, vectors: np.ndarray) -> SpectralSummary:
    """Principal spectral data from a descending eigendecomposition of the
    discriminant matrix (the output of ``eigh``), so that a caller holding
    one does not solve again.  Raises DegenerateSpectrum as principal_pair.
    """
    lam = float(values[0])
    if lam >= 1.0 - DEGENERACY_TOL:
        raise DegenerateSpectrum(
            "lambda_max = 1: the marked subgraph is a spanning complete "
            "bipartite graph, so the rotation angle is 0 and the quantum "
            "searching time is undefined"
        )
    f = principal_vector(values, vectors)
    order = vectors.shape[0]
    j = np.full(order, 1.0 / np.sqrt(order))
    return SpectralSummary(
        eigenvalues=values,
        f=f,
        theta_max=float(np.arccos(np.clip(lam, -1.0, 1.0))),
        gap=float(values[0] - values[1]),
        overlap=float(f @ j) ** 2,
    )


def d_star_apply(g: SignedCompleteGraph, vec: np.ndarray) -> np.ndarray:
    """Adjoint of the signed coin isometry: vertex vector to arc vector,
    (d* v)_a = sigma(a) v_{t(a)} / sqrt(n)."""
    return g.sigma_arcs * np.asarray(vec)[g.arcs.termini] / np.sqrt(g.n)


@dataclass(frozen=True)
class LiftedPair:
    """Arc-space eigenvectors at exp(+-i theta) and their real combinations.

    beta_plus = (phi_plus + phi_minus)/sqrt(2) is real-valued and
    i*beta_minus is real-valued; all four vectors are unit norm.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    beta_plus: np.ndarray
    beta_minus: np.ndarray
    theta: float


def lift_eigenvectors(
    g: SignedCompleteGraph, summary: SpectralSummary
) -> LiftedPair:
    """Lift the principal vertex eigenvector to the walk operator's
    eigenvectors at exp(+-i theta_max), matrix-free."""
    theta = summary.theta_max
    if theta <= 0.0:
        raise DegenerateSpectrum("rotation angle is zero; nothing to lift")
    base = d_star_apply(g, summary.f)
    swapped = base[g.arcs.inverse_index]
    scale = 1.0 / (np.sqrt(2.0) * np.sin(theta))
    phi_plus = scale * (base - np.exp(1j * theta) * swapped)
    phi_minus = scale * (base - np.exp(-1j * theta) * swapped)
    beta_plus = (phi_plus + phi_minus) / np.sqrt(2.0)
    beta_minus = (phi_plus - phi_minus) / np.sqrt(2.0)
    return LiftedPair(
        phi_plus=phi_plus,
        phi_minus=phi_minus,
        beta_plus=beta_plus,
        beta_minus=beta_minus,
        theta=theta,
    )


@dataclass(frozen=True)
class MappingReport:
    """Outcome of the spectral-mapping inclusion check.

    One entry per discriminant eigenvalue with |lambda| < 1: the lifted
    values exp(+-i arccos lambda) matched against the dense walk spectrum by
    minimum distance.  ``excluded`` lists eigenvalues at +-1, which the
    lifting does not cover.
    """

    entries: tuple[tuple[float, float, float], ...]
    excluded: tuple[float, ...]
    max_residual: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_residual <= self.tolerance


def spectral_mapping_check(
    g: SignedCompleteGraph, tolerance: float = 1e-8
) -> MappingReport:
    """Check that every lifted discriminant eigenvalue appears in the dense
    walk spectrum.  Small instances only (dense walk operator)."""
    walk_values = np.linalg.eigvals(build_U_dense(g))
    t_values, _ = eigh(build_T(g).matrix)
    entries = []
    excluded = []
    for lam in t_values:
        lam = float(lam)
        if abs(lam) >= 1.0 - TIE_TOL:
            excluded.append(lam)
            continue
        theta = np.arccos(lam)
        res_plus = float(np.min(np.abs(walk_values - np.exp(1j * theta))))
        res_minus = float(np.min(np.abs(walk_values - np.exp(-1j * theta))))
        entries.append((lam, res_plus, res_minus))
    max_residual = max((max(p, m) for _, p, m in entries), default=0.0)
    return MappingReport(
        entries=tuple(entries),
        excluded=tuple(excluded),
        max_residual=max_residual,
        tolerance=tolerance,
    )


def line_principal_pair(
    P: LineTransitionMatrix, dense_limit: int = DENSE_LINE_LIMIT
) -> tuple[float, np.ndarray]:
    """Top eigenpair of the line-graph kernel.

    Dense decomposition below ``dense_limit`` edges; Lanczos on the
    matrix-free operator beyond it (deterministic start vector).  The
    eigenvector is sign-fixed against the uniform direction.
    """
    edges = P.num_edges
    if edges == 1:
        return 0.0, np.ones(1)
    if edges <= dense_limit:
        values, vectors = eigh(P.dense())
        vec = principal_vector(values, vectors)
        return float(values[0]), vec
    start = np.full(edges, 1.0 / np.sqrt(edges))
    try:
        values, vectors = spla.eigsh(
            P.as_linear_operator(), k=1, which="LA", v0=start, tol=0.0
        )
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(str(exc)) from exc
    vec = vectors[:, 0]
    if vec.sum() < 0:
        vec = -vec
    return float(values[0]), vec / np.linalg.norm(vec)
