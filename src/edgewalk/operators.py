"""Walk and transition operators of a search instance.

Vertex space: the discriminant matrix T (order n+1, entries tau(uv)/n off
the diagonal) carries the spectral analysis of the quantum walk, and Q is
its companion built from the incidence structure of the unmarked remainder.
Edge space: P is the isotropic transition kernel on the line graph of the
unmarked remainder, with entry 1/(2(n-1)) between distinct edges sharing an
endpoint.  Arc space: the unitary evolution U = S(2 d* d - I) runs on the
square layout of the state, the (n+1) x (n+1) matrix X with X[u, v] the
amplitude of the arc (u, v) and a zero diagonal; the lexicographic arc order
is the row-major order of its off-diagonal entries.  There d* d is a column
sum, S a transpose, and the signs differ from +1 only on the m negative
arcs.  The kernel stores X and X^T on alternate steps, so no transpose is
formed and a step is one reduction plus one in-place broadcast update,
O(n^2) with no index arrays; a dense U exists only as a small-instance test
oracle.  ``walk_arc_matrix`` serves arbitrary arc states.  The finding
probability series and the rotation diagnostics need only states of
range[d*, S d*]: ``quantum_search`` walks those exactly as vertex pairs at
O(n + m) per step and reads the diagnostics from closed forms in vertex
space, with this kernel as their test oracle.

In K_{n+1} every vertex has degree n, so the general normalizations
1/sqrt(deg u * deg v) specialize to 1/n throughout this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.sparse.linalg import LinearOperator

from .errors import DimensionMismatch, EmptyComplement, TooLarge
from .signed_graph import ComplementGraph, SignedCompleteGraph, build_complement

__all__ = [
    "DiscriminantMatrix",
    "LineTransitionMatrix",
    "build_T",
    "build_P",
    "apply_U",
    "arc_matrix",
    "arc_vector",
    "walk_arc_matrix",
    "build_U_dense",
    "build_d_dense",
    "DENSE_U_LIMIT",
    "DENSE_LINE_LIMIT",
]

# Dense U has (n(n+1))^2 entries; 40 keeps that under ~3M.
DENSE_U_LIMIT = 40
# The one dense/iterative policy on unmarked edges (``fits_dense``): the
# line-kernel eigenpair, the absorption solve and the pq_spectra comparison
# run dense up to this count and matrix-free (Lanczos, CG, lifted residuals)
# beyond it.  Below it the dense paths are exact small-instance references,
# notably the full pq_spectra multiset comparison; above it a dense solve
# costs seconds where the iterative one takes milliseconds.
DENSE_LINE_LIMIT = 2000


@dataclass(frozen=True)
class DiscriminantMatrix:
    """Dense symmetric vertex matrix of order n+1 with block sizes (s, t).

    Off-diagonal entries are +1/n on unmarked pairs and -1/n on marked
    pairs; the diagonal is zero.  In canonical order this equals
    (J - I - 2*A)/n with A the zero-padded adjacency of the marked subgraph.
    """

    matrix: np.ndarray
    s: int
    t: int

    @property
    def order(self) -> int:
        return self.matrix.shape[0]


def build_T(g: SignedCompleteGraph) -> DiscriminantMatrix:
    """Construct the discriminant matrix of an instance."""
    order = g.n + 1
    m = np.asarray(g.marked_matrix, dtype=np.float64)
    matrix = (np.ones((order, order)) - np.eye(order) - 2.0 * m) / g.n
    matrix.setflags(write=False)
    return DiscriminantMatrix(matrix=matrix, s=g.s, t=g.t)


@dataclass(frozen=True)
class LineTransitionMatrix:
    """Transition kernel on the unmarked edges, plus its vertex companion.

    The kernel acts on vectors indexed by the unmarked edges (the vertices
    of the line graph of the complement): distinct edges sharing an endpoint
    get weight 1/(2(n-1)).  Rows of edges adjacent to a marked edge sum to
    less than one, which makes I - P invertible and the absorption time
    finite.  ``q_matrix`` is the (n+1)-dimensional companion with the same
    spectrum apart from the value -1/(n-1), and ``gram`` the integer Gram
    matrix N N^T = 2(n-1) Q + 2I of the vertex-edge incidence matrix N
    (stored as float64; its entries are exact).

    Application is matrix-free through per-vertex accumulators: for x over
    unmarked edges, (P x)_{uv} = (C_u + C_v - 2 x_{uv}) / (2(n-1)) where
    C_w sums x over unmarked edges at w.  ``dense()`` materializes the
    kernel only when ``fits_dense``.
    """

    n: int
    complement: ComplementGraph
    q_matrix: np.ndarray
    gram: np.ndarray

    @property
    def num_edges(self) -> int:
        return self.complement.num_edges

    @property
    def rate(self) -> float:
        return 1.0 / (2.0 * (self.n - 1))

    @property
    def fits_dense(self) -> bool:
        """Whether solvers take the dense path (at most DENSE_LINE_LIMIT
        unmarked edges)."""
        return self.num_edges <= DENSE_LINE_LIMIT

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.num_edges:
            raise DimensionMismatch(
                f"vector of length {x.shape[0]} against {self.num_edges} edges"
            )
        sums = self.complement.incidence() @ x
        eu = self.complement.edges[:, 0]
        ev = self.complement.edges[:, 1]
        return self.rate * (sums[eu] + sums[ev] - 2.0 * x)

    def as_linear_operator(self) -> LinearOperator:
        return LinearOperator(
            (self.num_edges, self.num_edges),
            matvec=self.matvec,
            matmat=self.matvec,
            dtype=np.float64,
        )

    def dense(self) -> np.ndarray:
        """Dense kernel; guarded because it is quadratic in the edge count."""
        if not self.fits_dense:
            raise TooLarge(
                f"{self.num_edges} unmarked edges exceed the dense limit "
                f"{DENSE_LINE_LIMIT}"
            )
        inc = self.complement.incidence()
        gram = (inc.T @ inc).toarray()
        return self.rate * (gram - 2.0 * np.eye(self.num_edges))


def build_P(g: SignedCompleteGraph) -> LineTransitionMatrix:
    """Construct the line-graph kernel and its vertex companion.

    The companion is assembled from the canonical block closed form and
    cross-checked, exactly in integer arithmetic, against the incidence
    identity 2(n-1) Q + 2I = N N^T.  N N^T is evaluated from its
    definition by one scatter over the unmarked edges: 1 at (u, v) and
    (v, u) for each edge uv, and each vertex's edge count on the diagonal.
    """
    delta = build_complement(g)
    if delta.num_edges == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    n = g.n
    order = n + 1
    # 2(n-1) Q + 2I = J + (n-1) I - A - D, with A the marked adjacency
    # (zero diagonal) and D its degrees.
    q_num = np.subtract(1, g.marked_matrix, dtype=np.int64)
    np.fill_diagonal(q_num, n - g.gamma_degrees)
    eu, ev = delta.edges.T
    gram = np.zeros((order, order), dtype=np.int64)
    gram[eu, ev] = gram[ev, eu] = 1
    np.fill_diagonal(gram, np.bincount(delta.edges.ravel(), minlength=order))
    if not np.array_equal(q_num, gram):
        raise AssertionError("vertex companion disagrees with incidence identity")
    q_num.flat[:: order + 1] -= 2  # now 2(n-1) Q
    q = q_num / (2.0 * (n - 1))
    q.setflags(write=False)
    gram = gram.astype(np.float64)
    gram.setflags(write=False)
    return LineTransitionMatrix(n=n, complement=delta, q_matrix=q, gram=gram)


def arc_matrix(g: SignedCompleteGraph, psi: np.ndarray) -> np.ndarray:
    """Square layout of an arc-indexed state: X[u, v] is the amplitude on
    the arc (u, v), and the diagonal is zero.

    The lexicographic arc order is the row-major order of the off-diagonal
    entries, so the copy is one strided assignment.  Real and complex
    states keep their dtype.
    """
    psi = np.asarray(psi)
    if psi.shape != (g.num_arcs,):
        raise DimensionMismatch(
            f"state of shape {psi.shape} against {g.num_arcs} arcs"
        )
    order = g.n + 1
    x = np.zeros((order, order), dtype=np.result_type(psi.dtype, np.float64))
    _off_diagonal(x)[...] = psi.reshape(order - 1, order)
    return x


def arc_vector(x: np.ndarray) -> np.ndarray:
    """Arc-indexed state of a square-layout matrix (inverse of arc_matrix)."""
    return _off_diagonal(np.ascontiguousarray(x)).reshape(-1)


def _off_diagonal(x: np.ndarray) -> np.ndarray:
    # Dropping the first entry of a C-ordered N x N matrix and reading the
    # rest in rows of N+1 puts every diagonal entry in the last column.
    order = x.shape[0]
    return x.reshape(-1)[1:].reshape(order - 1, order + 1)[:, :-1]


def walk_arc_matrix(
    g: SignedCompleteGraph,
    x: np.ndarray,
    steps: int,
    fp: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply the walk operator ``steps`` times to a square-layout state, in
    place, and return the evolved state in square layout.

    With c_v = sum over arcs a into v of sigma(a) X_a, one step is
    X'[u, v] = (2/n) sigma(v, u) c_u - X[v, u]: a column sum, a broadcast
    and a transpose, with sigma differing from +1 only on the m negative
    arcs.  The transpose is never formed: the buffer holds X and X^T on
    alternate steps, so each step is one reduction and one in-place
    broadcast update, plus O(m) sign corrections.  After an odd number of
    steps the returned matrix is the transposed view of the buffer.

    When ``fp`` is given, ``fp[t]`` receives the squared mass on the marked
    arcs after t steps, for t = 0..steps.  The marked arcs are closed under
    reversal, so that mass does not depend on which orientation the buffer
    holds.  The tests use this series as the oracle of
    ``quantum_search.run_series``, which walks the uniform state in the
    2(n+1)-dimensional vertex-pair space instead.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    neg_o, neg_t = np.array(g.sigma_negative_arcs, dtype=np.int64).T
    marked_u, marked_v = np.nonzero(g.marked_matrix)
    scale = 2.0 / g.n

    def marked_mass() -> float:
        amp = x[marked_u, marked_v]
        return float(np.vdot(amp, amp).real)

    if fp is not None:
        fp[0] = marked_mass()
    for step in range(steps):
        # Even steps hold X, odd steps X^T: the arcs into a vertex are then a
        # column or a row, and the negative arc (o, t) sits at (o, t) or
        # (t, o).
        transposed = step % 2 == 1
        rows, cols = (neg_t, neg_o) if transposed else (neg_o, neg_t)
        c = x.sum(axis=1 if transposed else 0)
        # Negative arcs can share a terminus, so the correction accumulates.
        np.subtract.at(c, neg_t, 2.0 * x[rows, cols])
        c *= scale
        np.subtract(c[:, None] if transposed else c, x, out=x)
        x[rows, cols] -= 2.0 * c[neg_t]
        np.fill_diagonal(x, 0.0)
        if fp is not None:
            fp[step + 1] = marked_mass()
    return x.T if steps % 2 else x


def apply_U(g: SignedCompleteGraph, psi: np.ndarray) -> np.ndarray:
    """Apply the walk operator once to an arc-indexed state.

    Goes through the square-layout kernel ``walk_arc_matrix``; O(n^2) time,
    norm-preserving, real or complex states.
    """
    return arc_vector(walk_arc_matrix(g, arc_matrix(g, psi), 1))


def build_d_dense(g: SignedCompleteGraph) -> np.ndarray:
    """Dense signed coin isometry: entry sigma(a)/sqrt(n) at (t(a), a).

    Rows are vertices, columns arcs; d d* = I.  Small instances only.
    """
    if g.n > DENSE_U_LIMIT:
        raise TooLarge(f"n = {g.n} exceeds the dense limit {DENSE_U_LIMIT}")
    arcs = g.arcs
    d = np.zeros((g.n + 1, arcs.num_arcs))
    d[arcs.termini, np.arange(arcs.num_arcs)] = g.sigma_arcs / np.sqrt(g.n)
    return d


def build_U_dense(g: SignedCompleteGraph) -> np.ndarray:
    """Dense walk operator S(2 d* d - I); exists as a test oracle.

    Entries satisfy (U)_{a,b} = 2 sigma(a^{-1}) sigma(b) / n - [a^{-1} = b]
    when t(b) = o(a) and vanish otherwise; U U^T = I.
    """
    if g.n > DENSE_U_LIMIT:
        raise TooLarge(f"n = {g.n} exceeds the dense limit {DENSE_U_LIMIT}")
    d = build_d_dense(g)
    reflect = 2.0 * d.T @ d - np.eye(g.arcs.num_arcs)
    return reflect[g.arcs.inverse_index, :]
