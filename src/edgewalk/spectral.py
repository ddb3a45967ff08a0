"""Symmetric eigensolving, principal pairs, and the arc-space lifting.

Every eigenvalue lambda of the discriminant matrix with |lambda| < 1 lifts
to the conjugate pair exp(+-i arccos lambda) in the spectrum of the unitary
walk operator, with eigenvectors produced matrix-free from the vertex
eigenvector f:

    phi_+- = (d* - exp(+-i theta) S d*) f / (sqrt(2) sin theta).

The principal pair of the discriminant matrix fixes the rotation angle
theta_max = arccos(lambda_max) that defines the quantum searching time.

In canonical order each ``VertexMatrix`` is alpha J + beta I outside the
s x s block on the marked subgraph's vertices, an equitable partition (Godsil
and Royle, Algebraic Graph Theory, section 9.3): ``quotient_eigh`` solves it
on the order-(s+1) quotient, ``quotient_lambda_max`` reads only its largest
eigenvalue there, and full ``eigh`` is the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import DegenerateSpectrum, NoConvergence, NotSymmetric
from .operators import (
    LineQuotientMatrix,
    LineTransitionMatrix,
    VertexMatrix,
    build_T,
    build_U_dense,
)
from .signed_graph import SignedCompleteGraph

__all__ = [
    "SpectralSummary",
    "LiftedPair",
    "MappingReport",
    "eigh",
    "quotient_eigh",
    "quotient_lambda_max",
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


def _quotient(matrix: VertexMatrix) -> np.ndarray:
    """The equitable quotient of a vertex matrix: with alpha = ``off`` and
    d = ``diagonal``, [[B, sqrt(t) alpha 1], [sqrt(t) alpha 1^T,
    alpha (t-1) + d]], or the block B itself when t = 0."""
    s, t = matrix.s, matrix.t
    cells = s + min(t, 1)
    quotient = np.empty((cells, cells))
    quotient[:s, :s] = matrix.block
    quotient[:s, s:] = quotient[s:, :s] = matrix.off * np.sqrt(t)
    quotient[s:, s:] = matrix.diagonal + matrix.off * (t - 1)
    return quotient


def quotient_eigh(matrix: VertexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a vertex matrix from its equitable quotient.

    The quotient gives s+1 pairs, lifted back with the last entry over
    sqrt(t) on the rest; beta = ``diagonal - off`` takes the other t-1,
    with the Helmert basis of the zero-sum vectors on the rest.
    """
    s, t, order = matrix.s, matrix.t, matrix.order
    q_values, q_vectors = eigh(_quotient(matrix))

    # The t-1 copies of beta go between the quotient values above and below
    # it, so the spectrum comes out descending without a sort.
    beta = matrix.diagonal - matrix.off
    k = np.arange(1, max(t, 1))
    top = int(np.count_nonzero(q_values >= beta))
    values = np.concatenate([q_values[:top], np.full(k.size, beta), q_values[top:]])
    vectors = np.zeros((order, order))
    lifted = np.r_[0:top, top + k.size : order]
    vectors[:s, lifted] = q_vectors[:s]
    vectors[s:, lifted] = q_vectors[s:] / np.sqrt(t)
    # Helmert column k: k entries 1/sqrt(k(k+1)), then -sqrt(k/(k+1)).
    helmert = vectors[s:, top : top + k.size]
    helmert[...] = np.arange(t)[:, None] < k
    helmert /= np.sqrt(k * (k + 1.0))
    helmert[k, k - 1] = -np.sqrt(k / (k + 1.0))
    return values, vectors


def quotient_lambda_max(matrix: VertexMatrix) -> float:
    """Largest eigenvalue of a vertex matrix: the top eigenvalue of its
    equitable quotient, or beta = ``diagonal - off`` when that is larger
    and t >= 2.  No eigenvector is formed."""
    quotient = _quotient(matrix)
    top = quotient.shape[0] - 1
    try:
        values = sla.eigh(quotient, eigvals_only=True, subset_by_index=[top, top])
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    if matrix.t >= 2:
        return max(float(values[0]), matrix.diagonal - matrix.off)
    return float(values[0])


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


def principal_pair(T: VertexMatrix) -> SpectralSummary:
    """Principal eigenpair of the discriminant matrix, solved on its
    order-(s+1) equitable quotient (``quotient_eigh``).

    Raises DegenerateSpectrum when lambda_max >= 1 - 1e-12, which happens
    exactly when the marked subgraph is a spanning complete bipartite graph;
    the rotation angle is then zero and the searching time undefined.
    """
    return summarize_spectrum(*quotient_eigh(T))


def summarize_spectrum(values: np.ndarray, vectors: np.ndarray) -> SpectralSummary:
    """Principal spectral data from a descending eigendecomposition of the
    discriminant matrix (the output of ``quotient_eigh`` or ``eigh``), so
    that a caller holding one does not solve again.  Raises
    DegenerateSpectrum as principal_pair.
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
    walk spectrum, the dense oracle of ``quotient_eigh``.  Small instances
    only (dense walk operator)."""
    walk_values = np.linalg.eigvals(build_U_dense(g))
    t_values, _ = quotient_eigh(build_T(g))
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
    P: LineTransitionMatrix | LineQuotientMatrix,
) -> tuple[float, np.ndarray]:
    """Top eigenpair of the line-graph kernel, the eigenvector in P's orbit
    coordinates (unit norm, as in edge space; edge coordinates for
    ``LineTransitionMatrix``).

    Lanczos on the matrix-free operator, from the uniform start vector, in
    a three-vector workspace.  The uniform vector is constant on the edge
    orbits of the permutations of the vertices outside the marked subgraph,
    and P maps that orbit-constant space (at most C(s, 2) - m + s + 1
    dimensions, all of ``LineQuotientMatrix``) into itself, so the Krylov
    space closes after a few steps and holds the top eigenvector.  The
    eigenvector is sign-fixed against the uniform direction.  When no two
    unmarked edges share an endpoint, P = 0 and the pair is (0, uniform):
    Lanczos would have no start.
    """
    start = P.uniform
    if P.max_degree <= 1:
        return 0.0, start
    size = start.size
    op = spla.LinearOperator((size, size), matvec=P.matvec, dtype=np.float64)
    try:
        # ncv = 3: with ARPACK's default of 20 the factorization breaks down
        # once the Krylov space closes, and ARPACK pads it with random
        # vectors that it orthogonalizes and restarts over, about 22
        # products where 4 or 5 converge.  Two orbits allow only ncv = 2.
        values, vectors = spla.eigsh(
            op, k=1, which="LA", v0=start, tol=0.0, ncv=min(3, size)
        )
    except spla.ArpackError as exc:
        raise NoConvergence(str(exc)) from exc
    vec = vectors[:, 0]
    if start @ vec < 0:
        vec = -vec
    return float(values[0]), vec / np.linalg.norm(vec)
