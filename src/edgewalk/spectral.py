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
and Royle, Algebraic Graph Theory, section 9.3).  ``quotient_spectrum``
solves it on the order-(s+1) quotient and keeps it there: the quotient
pairs, which hold every vector constant on the t = n+1-s rest vertices (the
uniform vector and the principal vector among them), and the value
beta = diagonal - off of the t-1 zero-sum vectors on the rest.  So the
principal pair, the overlaps and the top of the spectrum cost O(s^3) for
the solve and O(s^2) to read.  ``QuotientSpectrum.principal`` alone
chooses the principal vector, a dense eigendecomposition being the quotient
with s = n+1 and t = 0.  ``SpectralSummary`` is an O(s) view on the
quotient; only its ``f`` and ``eigenvalues`` are O(n), lifted on first
read and refused above ``LIFT_LIMIT`` vertices.  ``quotient_eigh`` lifts
the quotient to a dense order-(n+1) eigenvector matrix, and it and full
``eigh`` are the tests' oracles.

The line kernel P needs no eigensolve of its own: ``companion_spectra``
solves its vertex companion Q through Z, and ``line_bracket`` lifts Q's
principal vector to the edge orbits and brackets lambda_max(P) with one
product (Collatz-Wielandt).  This module needs numpy only; Lanczos on P,
scipy's ARPACK, is the tests' oracle in ``edge_space.line_principal_pair``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateSpectrum, LostPrecision, NoConvergence, NotSymmetric, TooLarge
)
from .operators import (
    LineQuotientMatrix, VertexMatrix, build_T, build_U_dense, cell_sizes, vertex_matrix
)
from .signed_graph import SignedCompleteGraph

__all__ = [
    "SpectralSummary",
    "LiftedPair",
    "MappingReport",
    "QuotientSpectrum",
    "LineBracket",
    "eigh",
    "quotient_spectrum",
    "quotient_eigh",
    "companion_spectra",
    "line_bracket",
    "principal_vector",
    "principal_pair",
    "summarize_spectrum",
    "d_star_apply",
    "lift_eigenvectors",
    "spectral_mapping_check",
]

# 1 - lambda_max(T) below this is the exact structural event lambda_max = 1
# (a spanning complete bipartite subgraph, so t = 0); with t >= 1 it is a
# float64 eigenvalue that has lost its digits.  ``QuotientSpectrum.summary``
# alone decides it; ``spectral_mapping_check`` reads +-1 by it too.
DEGENERACY_TOL = 1e-12
# Eigenvalues closer than this are treated as one eigenspace when picking
# the principal vector.
TIE_TOL = 1e-10
# The order-(n+1) lists and vectors lifted from a quotient take 8 bytes per
# vertex each, several at once; 2^24 vertices keeps each at 128 MB.
LIFT_LIMIT = 2**24


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


@dataclass(frozen=True)
class QuotientSpectrum:
    """The whole spectrum of a vertex matrix, held on its equitable quotient.

    ``values`` (descending) and the orthonormal columns of ``vectors`` are
    the pairs of ``VertexMatrix.quotient``, in the symmetric coordinates
    (x_block, sqrt(t) x_rest) of the vectors constant on the t rest
    vertices, where inner products are those of the order-(n+1) space.
    ``beta`` = ``diagonal - off`` takes the zero-sum vectors on the rest,
    ``copies`` = t - 1 of them.  Every read is O(s) or O(s^2), apart from
    the whole list of ``descending`` values and ``lift``, which are O(n)
    and raise TooLarge above ``LIFT_LIMIT`` vertices.  A dense
    eigendecomposition is the quotient with s = n+1 and t = 0.
    """

    values: np.ndarray
    vectors: np.ndarray
    beta: float
    s: int
    t: int

    @property
    def copies(self) -> int:
        return max(self.t - 1, 0)

    @property
    def uniform(self) -> np.ndarray:
        """The unit uniform vector of the order-(n+1) space in the
        symmetric coordinates: sqrt(|cell| / (n+1)) on each cell."""
        return np.sqrt(cell_sizes(self.s, self.t)) / np.sqrt(self.s + self.t)

    @property
    def distinct(self) -> np.ndarray:
        """Every eigenvalue once or more: the quotient's and beta."""
        return np.append(self.values, self.beta) if self.copies else self.values

    @property
    def lambda_max(self) -> float:
        return float(self.descending(1)[0])

    def descending(self, count: Optional[int] = None) -> np.ndarray:
        """The first ``count`` eigenvalues of the order-(n+1) spectrum (all
        of them by default), descending.  The copies of beta go between the
        quotient values above and below it, so no sort is needed."""
        if count is None:
            self._check_lift()
        copies = self.copies if count is None else min(self.copies, count)
        top = int(np.count_nonzero(self.values >= self.beta))
        values = np.concatenate(
            [self.values[:top], np.full(copies, self.beta), self.values[top:]]
        )
        return values[:count]

    def map(self, function: Callable) -> "QuotientSpectrum":
        """The spectrum of a polynomial in the matrix, such as n(T - I):
        ``function`` applied to each value, the vectors kept."""
        return replace(self, values=function(self.values), beta=function(self.beta))

    def principal(self) -> np.ndarray:
        """The unit vector of the top eigenspace (values within ``TIE_TOL``
        of the top) nearest the uniform vector, in the symmetric coordinates:
        the normalized projection of the uniform vector onto it, or its
        first basis vector if that is 0, sign-fixed so their inner product
        is >= 0.  The zero-sum vectors on the rest are orthogonal to the
        uniform vector, so the projection lies in the quotient.  Raises
        ValueError when beta lies above every quotient value (only for
        off < 0): the top eigenspace is then zero-sum on the rest."""
        if self.copies and self.beta - self.values[0] >= TIE_TOL:
            raise ValueError(
                "beta lies above every quotient eigenvalue, so the principal "
                "vector is not constant on the rest"
            )
        uniform = self.uniform
        basis = self.vectors[:, self.values[0] - self.values < TIE_TOL]
        coeffs = basis.T @ uniform
        norm = float(np.linalg.norm(coeffs))
        f = basis[:, 0] if norm < 1e-12 else basis @ (coeffs / norm)
        if f @ uniform < 0:
            f = -f
        return f / np.linalg.norm(f)

    def _check_lift(self) -> None:
        """Raises TooLarge, before anything of order n+1 is allocated, above
        ``LIFT_LIMIT`` vertices."""
        order = self.s + self.t
        if order > LIFT_LIMIT:
            raise TooLarge(
                f"n = {order - 1}: the {order} vertices of a lifted spectrum "
                f"or vector exceed the limit of {LIFT_LIMIT}"
            )

    def lift(self, x: np.ndarray) -> np.ndarray:
        """The order-(n+1) vectors of symmetric coordinates x (a vector, or
        one per column); TooLarge above ``LIFT_LIMIT`` vertices."""
        self._check_lift()
        cells = cell_sizes(self.s, self.t)
        return np.repeat((np.asarray(x).T / np.sqrt(cells)).T, cells, axis=0)

    def summary(self) -> SpectralSummary:
        """The principal spectral data of T in O(s), and the one decision
        whether lambda_max(T) resolves below 1.  lambda_max = 1 exactly for
        a spanning complete bipartite marked subgraph (so t = 0):
        DegenerateSpectrum within ``DEGENERACY_TOL`` of 1.  With t >= 1,
        lambda_max < 1, and that closeness is lost resolution: LostPrecision,
        a TooLarge.  Below, lambda_max is in [0, 1) (trace T = 0)."""
        top = self.descending(2)
        lam = float(top[0])
        if lam >= 1.0 - DEGENERACY_TOL:
            if self.t:
                raise LostPrecision(
                    f"n = {self.s + self.t - 1}: lambda_max(T) = {lam!r} lies "
                    f"within {DEGENERACY_TOL:.0e} of 1, the resolution of its "
                    "float64 eigensolve; the marked subgraph does not span the "
                    "host, so lambda_max < 1 and the rotation angle has no "
                    "correct digit"
                )
            raise DegenerateSpectrum(
                "lambda_max = 1: the marked subgraph is a spanning complete "
                "bipartite graph, so the rotation angle is 0 and the quantum "
                "searching time is undefined"
            )
        principal = self.principal()
        return SpectralSummary(
            spectrum=self,
            principal=principal,
            theta_max=float(np.arccos(lam)),
            gap=float(top[0] - top[1]),
            overlap=float(principal @ self.uniform) ** 2,
        )


def quotient_spectrum(matrix: VertexMatrix) -> QuotientSpectrum:
    """The spectrum of a vertex matrix from one ``eigh`` of its order-(s+1)
    equitable quotient."""
    values, vectors = eigh(matrix.quotient)
    return QuotientSpectrum(
        values=values,
        vectors=vectors,
        beta=matrix.diagonal - matrix.off,
        s=matrix.s,
        t=matrix.t,
    )


def quotient_eigh(matrix: VertexMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``eigh`` of a vertex matrix from its equitable quotient, with a
    dense order-(n+1) eigenvector matrix: the tests' dense oracle of
    ``quotient_spectrum``, which nothing in the package calls.

    The quotient gives s+1 pairs, lifted back with the last entry over
    sqrt(t) on the rest; beta = ``diagonal - off`` takes the other t-1,
    with the Helmert basis of the zero-sum vectors on the rest.
    """
    spectrum = quotient_spectrum(matrix)
    s, t, order = matrix.s, matrix.t, matrix.order
    k = np.arange(1, spectrum.copies + 1)
    top = int(np.count_nonzero(spectrum.values >= spectrum.beta))
    vectors = np.zeros((order, order))
    lifted = np.r_[0:top, top + k.size : order]
    vectors[:, lifted] = spectrum.lift(spectrum.vectors)
    # Helmert column k: k entries 1/sqrt(k(k+1)), then -sqrt(k/(k+1)).
    helmert = vectors[s:, top : top + k.size]
    helmert[...] = np.arange(t)[:, None] < k
    helmert /= np.sqrt(k * (k + 1.0))
    helmert[k, k - 1] = -np.sqrt(k / (k + 1.0))
    return spectrum.descending(), vectors


def companion_spectra(
    g: SignedCompleteGraph,
) -> tuple[VertexMatrix, QuotientSpectrum, QuotientSpectrum]:
    """Z = J - (n+1)I - A - D (A, D: the marked adjacency and degrees), its
    quotient spectrum, and the spectrum of the line kernel's vertex
    companion Q = Z/(2(n-1)) + I mapped from it: the one eigensolve of Q,
    which the ledger and ``hitting_time`` share (Z's block is exact)."""
    n = g.n
    z_matrix = vertex_matrix(g, 0, -n, degree=-1)
    z_spectrum = quotient_spectrum(z_matrix)
    return z_matrix, z_spectrum, z_spectrum.map(lambda z: z / (2.0 * (n - 1)) + 1.0)


@dataclass(frozen=True)
class LineBracket:
    """lambda_max(P) of the line kernel between ``lower`` and ``upper``,
    ``value`` a point inside them, and ``overlap`` the squared inner
    product of the unit principal vector of P with the uniform edge
    vector."""

    lower: float
    upper: float
    value: float
    overlap: float


def line_bracket(P: LineQuotientMatrix, companion: QuotientSpectrum) -> LineBracket:
    """Certify lambda_max(P) from the spectrum of its vertex companion Q
    (``companion``, on Q's quotient), with one ``orbit_matvec`` and no
    eigensolve of P.

    P N^T = N^T Q, N the vertex-edge incidence, so x = N^T w is an
    eigenvector of P for an eigenvector w of Q.  Q + I/(n-1) is
    nonnegative and irreducible on each connected component of the
    unmarked edges, so the top w of a component's block is positive there,
    and so is x on the component's edges.  For the nonnegative P and any
    x > 0, min_k (Px)_k/x_k <= lambda_max(P) <= max_k (Px)_k/x_k
    (Collatz-Wielandt; Horn and Johnson, Matrix Analysis, 2nd ed., 8.1.29),
    and P is block diagonal over the components: ``lower`` and ``upper``
    are the largest of the components' ends.  ``value`` is the largest
    Rayleigh quotient x^T P x / x^T x, each inside its component's
    bracket, and ``overlap`` sums (1^T x)^2 / (E x^T x) over the components
    whose value ties with it: the uniform vector's projection onto the top
    eigenspace, the principal vector as ``principal_vector`` chooses it.

    One component, the case for every t >= 1, takes w from
    ``companion.principal()``; for t = 0 a complement of several takes each
    from a solve of its block of ``Q.quotient``.  Every sum over an orbit
    weighs it by its size.  Raises NoConvergence when x has an entry that
    is not positive, where the bracket would not hold.
    """
    cells, orbits = P.components()
    count = int(cells.max()) + 1
    if count == 1:
        w = companion.principal()
    else:
        w = np.zeros(cells.size)
        for component in range(count):
            cell = np.flatnonzero(cells == component)
            w[cell] = principal_vector(*eigh(P.q_matrix.quotient[np.ix_(cell, cell)]))
    x = P.lift(w)
    if not np.all(x > 0.0):
        raise NoConvergence(
            "the line kernel's Perron vector has an entry that is not positive"
        )
    px = P.orbit_matvec(x)
    sizes = P.orbit_sizes
    ends, values, overlaps = [], [], []
    for component in range(count):
        on = orbits == component
        ratios = px[on] / x[on]
        weighted = sizes[on] * x[on]
        norm_sq = np.sum(weighted * x[on])
        ends.append((ratios.min(), ratios.max()))
        # a mean of the ratios, weighted by |O_k| x_k^2: clipped to their
        # range, which its rounding may leave by an ulp
        values.append(np.clip(np.sum(weighted * px[on]) / norm_sq, *ends[-1]))
        overlaps.append(np.sum(weighted) ** 2 / norm_sq)
    lower, upper = np.max(ends, axis=0)
    values = np.array(values)
    tied = values >= values.max() - TIE_TOL
    return LineBracket(
        lower=float(lower),
        upper=float(upper),
        value=float(values.max()),
        overlap=float(np.sum(np.array(overlaps)[tied]) / P.num_edges),
    )


def principal_vector(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """``QuotientSpectrum.principal`` of a descending eigendecomposition:
    the quotient of the partition into single vertices."""
    return QuotientSpectrum(values, vectors, np.nan, s=vectors.shape[0], t=0).principal()


@dataclass(frozen=True)
class SpectralSummary:
    """Principal spectral data of a discriminant matrix, a view on its
    ``QuotientSpectrum``.

    ``principal`` is the unit principal vector in the quotient's symmetric
    coordinates (``QuotientSpectrum.principal``); ``theta_max =
    arccos(lambda_max)``; ``gap`` the top spectral gap; and ``overlap`` the
    squared inner product of the principal vector with the uniform vector.
    Each is O(s).  ``eigenvalues``, the full descending spectrum, and
    ``f``, the principal vector on the n+1 vertices, are lifted on first
    read in O(n) and raise TooLarge above ``LIFT_LIMIT`` vertices.  A
    summary holds theta_max > 0: DegenerateSpectrum otherwise.
    """

    spectrum: QuotientSpectrum
    principal: np.ndarray
    theta_max: float
    gap: float
    overlap: float

    def __post_init__(self) -> None:
        if self.theta_max <= 0.0:
            raise DegenerateSpectrum("rotation angle is zero; searching time undefined")

    @property
    def lambda_max(self) -> float:
        return self.spectrum.lambda_max

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.descending()

    @cached_property
    def f(self) -> np.ndarray:
        return self.spectrum.lift(self.principal)


def principal_pair(T: VertexMatrix) -> SpectralSummary:
    """Principal eigenpair of the discriminant matrix, solved on its
    order-(s+1) equitable quotient (``quotient_spectrum``) in O(s^3),
    whatever n is.  Raises DegenerateSpectrum and TooLarge as
    ``QuotientSpectrum.summary``.
    """
    return quotient_spectrum(T).summary()


def summarize_spectrum(values: np.ndarray, vectors: np.ndarray) -> SpectralSummary:
    """Principal spectral data from a descending eigendecomposition of the
    discriminant matrix (the output of ``quotient_eigh`` or ``eigh``), so
    that a caller holding one does not solve again.  Raises
    DegenerateSpectrum as principal_pair.
    """
    return QuotientSpectrum(values, vectors, np.nan, s=vectors.shape[0], t=0).summary()


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
    base = d_star_apply(g, summary.f)
    swapped = base[g.arcs.inverse_index]
    scale = 1.0 / (np.sqrt(2.0) * np.sin(theta))
    phi_plus = scale * (base - np.exp(1j * theta) * swapped)
    phi_minus = scale * (base - np.exp(-1j * theta) * swapped)
    beta_plus = (phi_plus + phi_minus) / np.sqrt(2.0)
    beta_minus = (phi_plus - phi_minus) / np.sqrt(2.0)
    return LiftedPair(phi_plus, phi_minus, beta_plus, beta_minus, theta)


@dataclass(frozen=True)
class MappingReport:
    """Outcome of the spectral-mapping inclusion check.

    One entry per discriminant eigenvalue with |lambda| < 1: the lifted
    values exp(+-i arccos lambda) matched against the dense walk spectrum by
    minimum distance.  ``excluded`` lists eigenvalues within
    ``DEGENERACY_TOL`` of +-1, which the lifting does not cover.
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
    """Check that every lifted discriminant eigenvalue, T's spectrum read
    from its quotient (``QuotientSpectrum.descending``), appears in the
    dense walk spectrum.  Small instances only (dense walk operator)."""
    walk_values = np.linalg.eigvals(build_U_dense(g))
    t_values = quotient_spectrum(build_T(g)).descending()
    entries = []
    excluded = []
    for lam in t_values:
        lam = float(lam)
        if abs(lam) >= 1.0 - DEGENERACY_TOL:
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
