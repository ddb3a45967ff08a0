"""Edge space: the unmarked edges of the host graph, the line kernel P on
them, and the scipy solvers that run on P; the tests' oracles.

This is the one module of the package that imports scipy.  It holds the
sparse vertex-by-edge incidence (``pair_incidence``) and everything built
on it: the complement (``build_complement``), the line kernel on the edges
(``build_P``), Lanczos for lambda_max(P) (``line_principal_pair``, ARPACK,
on either form of P) and the absorption solve (``solve_absorption``,
conjugate gradients, the oracle of ``classical_search.hitting_time``).  No
command needs it: the searching times, the spectra of the vertex matrices,
the walks and the ledger need numpy alone, the ledger's line kernel being
``operators.LineQuotientMatrix`` with its lambda_max(P) certified by
``spectral.line_bracket``.  So the package loads this module only when a
name of it is read from ``edgewalk`` (or ``LineTransitionMatrix`` from its
former home, ``operators``).

P is the isotropic transition kernel on the line graph of the unmarked
remainder, with entry 1/(2(n-1)) between distinct edges sharing an
endpoint, applied matrix-free at every size: here on the edges
(``LineTransitionMatrix``, a test oracle, as is a dense P), and in
``operators`` on the orbits of the permutations of the vertices outside
the marked subgraph (``LineQuotientMatrix``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .classical_search import RESIDUAL_TOL
from .errors import (
    DimensionMismatch,
    NoConvergence,
    SolverFailure,
    TooLarge,
)
from .operators import (
    LineQuotientMatrix,
    VertexMatrix,
    _LineKernel,
    _unmarked_edges,
    unmarked_pairs,
)
from .signed_graph import SignedCompleteGraph

__all__ = [
    "ComplementGraph",
    "LineTransitionMatrix",
    "build_complement",
    "build_P",
    "line_principal_pair",
    "solve_absorption",
    "DENSE_LINE_LIMIT",
]

# Dense P, a test oracle, has edges^2 entries; 2000 keeps it at 32 MB.
DENSE_LINE_LIMIT = 2000


@dataclass(frozen=True)
class ComplementGraph:
    """The host graph minus the marked edges, with incidence structure.

    ``edges`` holds the unmarked edges as canonical pairs (i, j), i < j, in
    lexicographic order; ``degrees[v] = n - deg_marked(v)`` for every vertex.
    """

    n: int
    edges: np.ndarray
    degrees: np.ndarray
    _incidence: sp.csr_matrix

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def incidence(self) -> sp.csr_matrix:
        """Vertex-by-edge incidence matrix N (``pair_incidence``)."""
        return self._incidence


def pair_incidence(pairs: np.ndarray, order: int) -> sp.csr_matrix:
    """Vertex-by-pair incidence matrix of ``unmarked_pairs`` on ``order``
    vertices (entry 1 iff the vertex lies on the pair), float64 CSR with
    sorted indices.

    It is the transpose of its own transpose, whose CSR rows are the pairs
    themselves (two ascending entries each, and the row-major ``pairs`` is
    its column-index array as it stands), so the conversion is one counting
    sort and no comparison sort or duplicate merge is needed.
    """
    num = pairs.shape[0]
    incidence_t = sp.csr_matrix(
        (np.ones(2 * num), pairs.ravel(), np.arange(0, 2 * num + 1, 2)),
        shape=(num, order),
    )
    return incidence_t.T.tocsr()


def build_complement(g: SignedCompleteGraph) -> ComplementGraph:
    """Edges of K_{n+1} that are not marked, their degrees and incidence.
    Raises TooLarge, before any O(n^2) allocation, above
    ``signed_graph.PAIR_TABLE_LIMIT`` vertex pairs."""
    n = g.n
    edges = unmarked_pairs(g.marked_matrix)
    return ComplementGraph(
        n=n,
        edges=edges,
        degrees=n - g.gamma_degrees,
        _incidence=pair_incidence(edges, n + 1),
    )


@dataclass(frozen=True)
class LineTransitionMatrix(_LineKernel):
    """Transition kernel on the unmarked edges, plus its vertex companion.

    The kernel acts on vectors indexed by the unmarked edges (the vertices
    of the line graph of the complement): distinct edges sharing an endpoint
    get weight 1/(2(n-1)).  Rows of edges adjacent to a marked edge sum to
    less than one, which makes I - P invertible and the absorption time
    finite.  ``gram`` is N N^T, N the vertex-edge incidence, in exact
    integers, and ``q_matrix`` the companion Q = (N N^T - 2I)/(2(n-1)) read
    off it, with P's spectrum apart from the value -1/(n-1); both are
    ``VertexMatrix`` instances of order n+1.

    Application is matrix-free through per-vertex accumulators: for x over
    unmarked edges, (P x)_{uv} = (C_u + C_v - 2 x_{uv}) / (2(n-1)) where
    C_w sums x over unmarked edges at w.  Every edge is its own orbit, so
    ``line_principal_pair`` reads it as it reads ``LineQuotientMatrix``,
    of which it is the oracle; ``solve_absorption`` reads it alone.
    ``dense()`` materializes the kernel, as a test oracle, only when
    ``fits_dense``.
    """

    n: int
    complement: ComplementGraph
    gram: VertexMatrix

    @property
    def num_edges(self) -> int:
        return self.complement.num_edges

    @cached_property
    def orbit_sizes(self) -> np.ndarray:
        return np.ones(self.num_edges, dtype=np.int64)

    @property
    def fits_dense(self) -> bool:
        """Whether ``dense()`` may build the kernel (<= DENSE_LINE_LIMIT edges)."""
        return self.num_edges <= DENSE_LINE_LIMIT

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.num_edges:
            raise DimensionMismatch(
                f"vector of length {x.shape[0]} against {self.num_edges} edges"
            )
        sums = self.complement.incidence() @ x
        eu, ev = self.complement.edges.T
        return (sums[eu] + sums[ev] - 2.0 * x) / self.moves

    def dense(self) -> np.ndarray:
        """Dense kernel; guarded because it is quadratic in the edge count."""
        if not self.fits_dense:
            raise TooLarge(
                f"{self.num_edges} unmarked edges exceed the dense limit "
                f"{DENSE_LINE_LIMIT}"
            )
        inc = self.complement.incidence()
        gram = (inc.T @ inc).toarray()
        return (gram - 2.0 * np.eye(self.num_edges)) / self.moves


def build_P(g: SignedCompleteGraph) -> LineTransitionMatrix:
    """Construct the line-graph kernel and its vertex companion.

    Both come from the closed form 2(n-1) Q + 2I = N N^T = J + (n-1) I - A - D,
    with A the marked adjacency (zero diagonal) and D its degrees, and
    N N^T is checked exactly against the unmarked edges in O(E + s^2): each
    vertex's edge count must be its diagonal entry, and as the off-diagonal
    entries are 0 or 1, the edges, pairs u < v in strictly increasing order,
    must be the pairs at a 1: none on a zero of the block, and as many.
    Raises EmptyComplement, with nothing built, when every edge is marked.
    """
    _unmarked_edges(g)
    delta = build_complement(g)
    n, s = g.n, g.s
    order = n + 1
    gram = VertexMatrix(g, 0, n, degree=-1)
    eu, ev = delta.edges.T
    counts = np.bincount(delta.edges.ravel(), minlength=order)
    unit_pairs = order * n // 2 - np.count_nonzero(np.triu(gram.block == 0, 1))
    inside = ev < s
    if not (
        np.array_equal(counts[:s], gram.gamma_diagonal)
        and np.all(counts[s:] == gram.constant)
        and np.all(eu < ev)
        and np.all(np.diff(eu * order + ev) > 0)
        and np.all(gram.block[eu[inside], ev[inside]] != 0)
        and delta.num_edges == unit_pairs
    ):
        raise AssertionError("vertex companion disagrees with incidence identity")
    return LineTransitionMatrix(n=n, complement=delta, gram=gram)


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
    eigenvector is sign-fixed against the uniform direction.  When P u is
    parallel to the uniform u at rounding level (P = 0 among them), the
    pair is (u^T P u, u) by Perron-Frobenius: Lanczos would break down and
    restart from a random vector, which can be orthogonal to u.
    """
    start = P.uniform
    image = P.matvec(start)
    rayleigh = float(start @ image)
    residual = np.linalg.norm(image - rayleigh * start)
    if residual <= 16 * np.finfo(float).eps * np.linalg.norm(image):
        return rayleigh, start
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


def solve_absorption(P: LineTransitionMatrix) -> tuple[np.ndarray, float]:
    """Solve (I - P) x = 1 on the edges and return (x, relative residual);
    the mean of x is t_c.

    Conjugate gradients at every size: the kernel has a single eigenvalue
    near 1 and the rest below ~1/2, which CG deflates in a handful of
    iterations.  This edge-space solve is the tests' oracle for
    ``classical_search.hitting_time``.
    """
    edges = P.num_edges
    ones = np.ones(edges)
    # scipy checks the residual at the top of an iteration only, so an
    # exact step (one edge, or P = 0) needs one more iteration to report it.
    maxiter = min(edges, 20000) + 1

    # Residuals are evaluated with the mean of x split off: the constant
    # part of (I - P)x, (2n - d_u - d_v)/(2(n-1)) at the edge uv with d the
    # unmarked degrees, follows exactly from integer degree sums, and the
    # remainder has O(1) spread, so the summation error no longer scales
    # with the (large) magnitude of the absorption times.
    eu, ev = P.complement.edges.T
    deg = P.complement.degrees.astype(np.float64)
    ones_response = (2.0 * P.n - deg[eu] - deg[ev]) / P.moves

    def shortfall_of(x: np.ndarray) -> np.ndarray:
        center = x.mean()
        spread = x - center
        return ones - center * ones_response - (spread - P.matvec(spread))

    def true_residual(x: np.ndarray) -> float:
        return float(np.linalg.norm(shortfall_of(x)) / np.sqrt(edges))

    op = spla.LinearOperator(
        (edges, edges),
        matvec=lambda v: v - P.matvec(v),
        dtype=np.float64,
    )
    x, info = spla.cg(op, ones, rtol=1e-13, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise SolverFailure(f"conjugate gradients stopped with info={info}")
    # The recursive CG residual drifts from the true one on this
    # ill-conditioned system; iterative refinement restores it.  Keep the
    # best iterate, since updates near the attainable floor can oscillate.
    best, best_residual = x, true_residual(x)
    for _ in range(5):
        if best_residual <= 0.5 * RESIDUAL_TOL:
            break
        delta, info = spla.cg(op, shortfall_of(best), rtol=1e-8, atol=0.0, maxiter=maxiter)
        if info != 0:
            break
        candidate = best + delta
        candidate_residual = true_residual(candidate)
        if candidate_residual >= best_residual:
            break
        best, best_residual = candidate, candidate_residual
    if best_residual > RESIDUAL_TOL:
        raise SolverFailure(f"residual {best_residual:.3e} above {RESIDUAL_TOL:.0e}")
    return best, best_residual
