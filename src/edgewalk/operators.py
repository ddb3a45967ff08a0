"""Walk and transition operators of a search instance.

Vertex space: the discriminant matrix T (order n+1, entries tau(uv)/n off
the diagonal) carries the spectral analysis of the quantum walk, and Q is
its companion built from the incidence structure of the unmarked remainder.
Both, like the ledger's Y, Z and G = N N^T, are ``VertexMatrix`` instances,
held as their block on the marked subgraph and two scalars; their
order-(s+1) ``quotient`` carries every vector constant on the other
vertices, which is where the package solves and walks them.
Edge space: P is the isotropic transition kernel on the line graph of the
unmarked remainder, with entry 1/(2(n-1)) between distinct edges sharing an
endpoint, applied matrix-free at every size: on the edges
(``LineTransitionMatrix``, a test oracle, as is a dense P) or on the
orbits of the permutations of the vertices outside the marked subgraph
(``LineQuotientMatrix``, on which the ledger finds lambda_max(P) and its
eigenvector).
Arc space: the unitary evolution U = S(2 d* d - I) runs on the square
layout of the state, the (n+1) x (n+1) matrix X with X[u, v] the amplitude
of the arc (u, v) and a zero diagonal; the lexicographic arc order is the
row-major order of its off-diagonal entries.  There d* d is a column
sum, S a transpose, and the signs differ from +1 only on the m negative
arcs.  The kernel stores X and X^T on alternate steps, so no transpose is
formed and a step is one reduction plus one in-place broadcast update,
O(n^2) with no index arrays; a dense U exists only as a small-instance test
oracle.  ``walk_arc_matrix`` serves arbitrary arc states.  The finding
probability series and the rotation diagnostics need only states of
range[d*, S d*]: ``quantum_search`` walks those exactly as vertex pairs on
the order-(s+1) quotient at O(s + m) per step and reads the diagnostics
from closed forms there, with this kernel as their test oracle.

In K_{n+1} every vertex has degree n, so the general normalizations
1/sqrt(deg u * deg v) specialize to 1/n throughout this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .errors import DimensionMismatch, EmptyComplement, TooLarge
from .signed_graph import (
    ComplementGraph,
    SignedCompleteGraph,
    build_complement,
    pair_incidence,
    unmarked_pairs,
)

__all__ = [
    "VertexMatrix",
    "LineTransitionMatrix",
    "LineQuotientMatrix",
    "vertex_matrix",
    "build_T",
    "build_P",
    "build_P_quotient",
    "build_Q",
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
# Dense P, a test oracle like dense U, has edges^2 entries; 2000 keeps it at 32 MB.
DENSE_LINE_LIMIT = 2000


@dataclass(frozen=True)
class VertexMatrix:
    """Symmetric vertex matrix of order n+1 in canonical order: the s x s
    ``block`` on the marked subgraph's vertices, ``off`` at every other
    off-diagonal entry and ``diagonal`` on the rest of the diagonal (the
    equitable partition ``spectral.quotient_spectrum`` solves on).  ``@``
    costs O(n + s^2) per column; the order-(s+1) ``quotient`` and the dense
    ``matrix`` are built on first use.
    """

    order: int
    block: np.ndarray
    off: float
    diagonal: float

    @property
    def s(self) -> int:
        return self.block.shape[0]

    @property
    def t(self) -> int:
        return self.order - self.s

    @cached_property
    def matrix(self) -> np.ndarray:
        s = self.s
        dense = np.full((self.order, self.order), self.off)
        dense[:s, :s] = self.block
        np.fill_diagonal(dense[s:, s:], self.diagonal)
        dense.setflags(write=False)
        return dense

    @cached_property
    def quotient(self) -> np.ndarray:
        """The equitable quotient, which acts on the vectors constant on the
        t rest vertices in the symmetric coordinates (x_block, sqrt(t) x_rest):
        with alpha = ``off`` and d = ``diagonal``, [[B, sqrt(t) alpha 1],
        [sqrt(t) alpha 1^T, alpha (t-1) + d]], or the block itself when
        t = 0; read-only."""
        s, t = self.s, self.t
        cells = s + min(t, 1)
        quotient = np.empty((cells, cells))
        quotient[:s, :s] = self.block
        quotient[:s, s:] = quotient[s:, :s] = self.off * np.sqrt(t)
        quotient[s:, s:] = self.diagonal + self.off * (t - 1)
        quotient.setflags(write=False)
        return quotient

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.order:
            raise DimensionMismatch(f"{x.shape[0]} rows against order {self.order}")
        s = self.s
        # every row as a rest row, off J + (diagonal - off) I, then the block rows
        out = self.off * x.sum(axis=0) + (self.diagonal - self.off) * x
        out[:s] = self.block @ x[:s] + self.off * x[s:].sum(axis=0)
        return out


def vertex_matrix(
    g: SignedCompleteGraph, marked: int, diagonal: int, degree: int = 0, divisor: int = 1
) -> VertexMatrix:
    """The vertex matrix with entries 1 on unmarked pairs, ``marked`` on
    marked pairs and ``diagonal + degree * deg(v)`` at the vertex v, deg its
    marked-subgraph degree, each an exact integer over ``divisor``."""
    numerator = np.where(g.marked_block, marked, 1)
    np.fill_diagonal(numerator, diagonal + degree * g.marked_block.sum(axis=1))
    block = numerator / np.float64(divisor)
    block.setflags(write=False)
    return VertexMatrix(g.n + 1, block, 1 / divisor, diagonal / divisor)


def build_T(g: SignedCompleteGraph) -> VertexMatrix:
    """The discriminant matrix (J - I - 2A)/n, A the zero-padded adjacency
    of the marked subgraph."""
    return vertex_matrix(g, -1, 0, divisor=g.n)


class _LineKernel:
    """What ``line_principal_pair`` reads from either form of P: ``matvec``
    applies P to the coordinates y_k = sqrt(|O_k|) x_k of an edge vector
    constant on each edge orbit O_k, in the orthonormal basis of normalized
    orbit indicators, where P is symmetric.

    A subclass gives ``n``, ``q_matrix``, ``gram``, ``num_edges`` (E), the
    ``orbit_sizes`` and ``matvec``.
    """

    @property
    def moves(self) -> float:
        """2(n-1), the edges one step may move to.  P is an integer matrix
        over it, and dividing by it rounds each entry once, where
        multiplying by a rounded 1/(2(n-1)) would scale all of P by the same
        relative error and t_c, through the condition of I - P, by about
        t_c times as much."""
        return 2.0 * (self.n - 1)

    @property
    def max_degree(self) -> int:
        """Most unmarked edges at one vertex, the largest diagonal entry of
        N N^T; P = 0 exactly when it is at most 1."""
        gram = self.gram
        return int(max(np.diag(gram.block).max(), gram.diagonal if gram.t else 0))

    @cached_property
    def uniform(self) -> np.ndarray:
        """The unit uniform edge vector in orthonormal orbit coordinates:
        sqrt(|O_k| / E); read-only."""
        uniform = np.sqrt(self.orbit_sizes) / np.sqrt(self.num_edges)
        uniform.setflags(write=False)
        return uniform


@dataclass(frozen=True)
class LineTransitionMatrix(_LineKernel):
    """Transition kernel on the unmarked edges, plus its vertex companion.

    The kernel acts on vectors indexed by the unmarked edges (the vertices
    of the line graph of the complement): distinct edges sharing an endpoint
    get weight 1/(2(n-1)).  Rows of edges adjacent to a marked edge sum to
    less than one, which makes I - P invertible and the absorption time
    finite.  ``q_matrix`` is the (n+1)-dimensional companion Q with the same
    spectrum apart from the value -1/(n-1), and ``gram`` the Gram matrix
    N N^T = 2(n-1) Q + 2I of the vertex-edge incidence matrix N, whose
    entries are exact integers; both are ``VertexMatrix`` instances.

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
    q_matrix: VertexMatrix
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
    """
    delta = build_complement(g)
    if delta.num_edges == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    n, s = g.n, g.s
    order = n + 1
    gram = vertex_matrix(g, 0, n, degree=-1)
    eu, ev = delta.edges.T
    counts = np.bincount(delta.edges.ravel(), minlength=order)
    unit_pairs = order * n // 2 - np.count_nonzero(np.triu(gram.block == 0, 1))
    inside = ev < s
    if not (
        np.array_equal(counts[:s], np.diag(gram.block))
        and np.all(counts[s:] == gram.diagonal)
        and np.all(eu < ev)
        and np.all(np.diff(eu * order + ev) > 0)
        and np.all(gram.block[eu[inside], ev[inside]] != 0)
        and delta.num_edges == unit_pairs
    ):
        raise AssertionError("vertex companion disagrees with incidence identity")
    return LineTransitionMatrix(n=n, complement=delta, q_matrix=build_Q(g), gram=gram)


@dataclass(frozen=True)
class LineQuotientMatrix(_LineKernel):
    """The line kernel P on the edge vectors that are constant on the orbits
    of the permutations of the t = n+1-s vertices outside the marked
    subgraph, in normalized orbit coordinates.

    P commutes with those permutations, so its top eigenpair lies in that
    space (an equitable partition: Godsil and Royle, Algebraic Graph
    Theory, chapter 9), as does the Krylov space of Lanczos from the
    uniform start.  The orbits, in this order:
    each unmarked pair {i, j} of the marked subgraph's vertices (``pairs``,
    size 1); O_i = {i, rest} for each of its s vertices i (size t, when
    t >= 1); and O_R, the pairs of two rest vertices (size C(t, 2), when
    t >= 2).  E = sum |O_k|.

    On the orbit values x, with the per-vertex sums C_i = sum of x over
    the unmarked pairs at i plus t x_{O_i} and, at any rest vertex,
    C_r = sum_i x_{O_i} + (t-1) x_R, P x is (C_i + C_j - 2x)/(2(n-1)) on
    {i, j}, (C_i + C_r - 2x)/(2(n-1)) on O_i and (2 C_r - 2x)/(2(n-1)) on
    O_R: ``orbit_matvec`` applies it in O(s + r) through the s x p
    incidence of the pairs, with the integer coefficients of the edge
    space, and ``matvec`` scales it to the orthonormal coordinates.  When
    t <= 1 the orbits are single edges and this is P itself.
    """

    n: int
    pairs: np.ndarray
    q_matrix: VertexMatrix
    gram: VertexMatrix
    _incidence: sp.csr_matrix

    @property
    def t(self) -> int:
        return self.gram.t

    @property
    def num_edges(self) -> int:
        return self.pairs.shape[0] + self.gram.s * self.t + self.t * (self.t - 1) // 2

    @cached_property
    def orbit_sizes(self) -> np.ndarray:
        t = self.t
        sizes = [np.ones(self.pairs.shape[0], dtype=np.int64)]
        if t:
            sizes.append(np.full(self.gram.s, t))
        if t >= 2:
            sizes.append([t * (t - 1) // 2])
        return np.concatenate(sizes)

    @cached_property
    def _root_sizes(self) -> np.ndarray:
        return np.sqrt(self.orbit_sizes)

    def _orbit_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.orbit_sizes.size:
            raise DimensionMismatch(
                f"vector of length {x.shape[0]} against {self.orbit_sizes.size} orbits"
            )
        return x

    def orbit_matvec(self, x: np.ndarray) -> np.ndarray:
        x = self._orbit_vector(x)
        p, s, t = self.pairs.shape[0], self.gram.s, self.t
        pair = x[:p]
        sums = self._incidence @ pair
        out = np.empty_like(x)
        if t:
            side, rest = x[p : p + s], x[p + s :]
            rest_sums = side.sum(axis=0) + (t - 1) * rest.sum(axis=0)
            sums += t * side
            out[p : p + s] = (sums + rest_sums - 2.0 * side) / self.moves
            out[p + s :] = (2.0 * rest_sums - 2.0 * rest) / self.moves
        # The s sums are divided, not the p pairs (all the edges when t <= 1):
        # the rounded factor of the -2x term only shifts P by at most
        # eps/(n-1) times I.
        sums /= self.moves
        pu, pv = self.pairs.T
        np.add(sums[pu], sums[pv], out=out[:p])
        out[:p] -= (2.0 / self.moves) * pair
        return out

    def matvec(self, y: np.ndarray) -> np.ndarray:
        if self.t <= 1:  # every orbit is one edge: the coordinates agree
            return self.orbit_matvec(y)
        # transposed, so that the sizes run along the last axis of a block
        root = self._root_sizes
        return (root * self.orbit_matvec((self._orbit_vector(y).T / root).T).T).T


def build_P_quotient(g: SignedCompleteGraph) -> LineQuotientMatrix:
    """The line kernel on its edge orbits (``LineQuotientMatrix``), from the
    marked subgraph in O(s^2 + r), with no edge-space array when t >= 2.

    As ``build_P`` does for the edges, it checks in integers that the orbit
    sizes sum to the E = n(n+1)/2 - m unmarked edges and that each vertex
    class meets as many of them as the diagonal of N N^T says: n - D_i at
    the marked subgraph's vertex i, n at a rest vertex.  Raises
    EmptyComplement when every edge is marked.
    """
    n, s, t = g.n, g.s, g.t
    edges = n * (n + 1) // 2 - g.num_marked
    if edges == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    gram = vertex_matrix(g, 0, n, degree=-1)
    pairs = unmarked_pairs(g.marked_block)
    P = LineQuotientMatrix(
        n=n, pairs=pairs, q_matrix=build_Q(g), gram=gram,
        _incidence=pair_incidence(pairs, s),
    )
    counts = np.bincount(pairs.ravel(), minlength=s) + t
    if not (
        int(P.orbit_sizes.sum()) == P.num_edges == edges
        and np.array_equal(counts, np.diag(gram.block))
        and (t == 0 or s + t - 1 == gram.diagonal)
    ):
        raise AssertionError("edge orbits disagree with the incidence identity")
    return P


def build_Q(g: SignedCompleteGraph) -> VertexMatrix:
    """The vertex companion Q = (N N^T - 2I)/(2(n-1)) of the line-graph
    kernel, from the closed form of N N^T (see ``build_P``); O(s^2), with no
    edge-space work."""
    return vertex_matrix(g, 0, g.n - 2, degree=-1, divisor=2 * (g.n - 1))


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
    ``quantum_search.run_series``, which walks the uniform state as a vertex
    pair on the order-(s+1) quotient instead.
    """
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    neg_o, neg_t = g.negative_arcs
    scale = 2.0 / g.n

    if fp is not None:
        # The 2m marked arcs: the negative arcs both ways, in row-major order.
        order = g.n + 1
        keys = np.sort(np.concatenate((neg_o * order + neg_t, neg_t * order + neg_o)))
        marked_u, marked_v = np.divmod(keys, order)

        def marked_mass() -> float:
            amp = x[marked_u, marked_v]
            return float(np.vdot(amp, amp).real)

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
