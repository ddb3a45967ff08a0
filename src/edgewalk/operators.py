"""Walk and transition operators of a search instance.

Every quotient is taken on one equitable partition, ``cell_sizes``: the
marked subgraph's s vertices as single cells, then one cell for the
t = n+1-s others.
Vertex space: the discriminant matrix T (order n+1, entries tau(uv)/n off
the diagonal) carries the spectral analysis of the quantum walk, and Q is
its companion built from the incidence structure of the unmarked remainder.
Both, like the ledger's Y, Z and G = N N^T, are ``VertexMatrix`` instances,
held as their block on the marked subgraph and two scalars; their
order-(s+1) ``quotient`` on the cells carries every vector constant on the
rest, which is where the package solves and walks them.
Edge space: the line kernel P on the unmarked edges, which Q stands in for,
is held here on its edge orbits (``LineQuotientMatrix``), one for each
pair of cells that carries an unmarked edge, with one product formula over
them; on the edges themselves, with the sparse incidence, it is a test
oracle in ``edge_space``.
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
the order-(s+1) quotient, at a cost per step that does not grow with n,
and reads the diagnostics from closed forms there, with this kernel as
their test oracle.

In K_{n+1} every vertex has degree n, so the general normalizations
1/sqrt(deg u * deg v) specialize to 1/n throughout this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, EmptyComplement, TooLarge
from .signed_graph import SignedCompleteGraph, _index, _readonly

__all__ = [
    "VertexMatrix",
    "cell_sizes",
    "vertex_matrix",
    "build_T",
    "build_Q",
    "LineQuotientMatrix",
    "build_P_quotient",
    "apply_U",
    "arc_matrix",
    "arc_vector",
    "walk_arc_matrix",
    "build_U_dense",
    "build_d_dense",
    "DENSE_U_LIMIT",
]

# Dense U has (n(n+1))^2 entries; 40 keeps that under ~3M.
DENSE_U_LIMIT = 40


def cell_sizes(s: int, t: int) -> np.ndarray:
    """The sizes of the cells every quotient is taken on: s ones, for the
    marked subgraph's vertices, then t for the rest when t >= 1."""
    sizes = np.ones(s + min(t, 1), dtype=np.int64)
    sizes[s:] = t
    return sizes


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
        cells = cell_sizes(s, t).size
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
    np.fill_diagonal(numerator, diagonal + degree * g.degrees)
    block = numerator / np.float64(divisor)
    block.setflags(write=False)
    return VertexMatrix(g.n + 1, block, 1 / divisor, diagonal / divisor)


def build_T(g: SignedCompleteGraph) -> VertexMatrix:
    """The discriminant matrix (J - I - 2A)/n, A the zero-padded adjacency
    of the marked subgraph."""
    return vertex_matrix(g, -1, 0, divisor=g.n)


def build_Q(g: SignedCompleteGraph) -> VertexMatrix:
    """The vertex companion Q = (N N^T - 2I)/(2(n-1)) of the line-graph
    kernel, from the closed form of N N^T (see ``edge_space.build_P``); O(s^2), with no
    edge-space work."""
    return vertex_matrix(g, 0, g.n - 2, degree=-1, divisor=2 * (g.n - 1))


def _unmarked_edges(g: SignedCompleteGraph) -> int:
    """E = n(n+1)/2 - m, the unmarked edges, from ``n`` and ``num_marked``
    alone; raises EmptyComplement when every edge is marked."""
    edges = g.n * (g.n + 1) // 2 - g.num_marked
    if edges == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    return edges


def unmarked_pairs(marked: np.ndarray) -> np.ndarray:
    """The pairs (i, j), i < j, at the zeros of a square adjacency
    indicator, in lexicographic order, as a read-only (pairs, 2) array."""
    return _readonly(np.stack(np.nonzero(np.triu(~marked, k=1)), axis=1))


class _LineKernel:
    """What either form of the line kernel P gives: ``matvec`` applies P to
    the coordinates y_k = sqrt(|O_k|) x_k of an edge vector constant on each
    edge orbit O_k, in the orthonormal basis of normalized orbit indicators,
    where P is symmetric.

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

    @cached_property
    def uniform(self) -> np.ndarray:
        """The unit uniform edge vector in orthonormal orbit coordinates:
        sqrt(|O_k| / E); read-only."""
        uniform = np.sqrt(self.orbit_sizes) / np.sqrt(self.num_edges)
        uniform.setflags(write=False)
        return uniform


@dataclass(frozen=True)
class LineQuotientMatrix(_LineKernel):
    """The line kernel P on the edge vectors that are constant on the orbits
    of the permutations of the t = n+1-s vertices outside the marked
    subgraph, in normalized orbit coordinates.

    P commutes with those permutations, so its top eigenpair lies in that
    space (an equitable partition: Godsil and Royle, Algebraic Graph
    Theory, chapter 9).  Its cells are those of ``cell_sizes``: each vertex
    of the marked subgraph alone, then the rest.  An orbit is the set of
    unmarked edges between two cells a <= b, one row (a, b) of ``pairs``,
    in this order: the unmarked pairs {i, j} of the marked subgraph's
    vertices, {i, rest} for each of them, then {rest, rest}.  ``reach``
    counts an orbit's edges at one vertex of each end cell, so its size is
    half of the ends counted from both cells, and E = sum |O_k|.

    On the orbit values x, with C_a = sum of reach x over the orbits at
    cell a (the sum of x over the unmarked edges at any vertex of a),
    P x is (C_a + C_b - 2x)/(2(n-1)) on the orbit (a, b): ``orbit_matvec``
    applies it in O(s + r), with the integer coefficients of the edge
    space, and ``matvec`` scales it to the orthonormal coordinates.
    ``lift`` gives the orbit values of N^T w for a vertex vector w on the
    companion's quotient.  When t <= 1 the orbits are single edges and
    this is P itself.
    """

    n: int
    pairs: np.ndarray
    q_matrix: VertexMatrix
    gram: VertexMatrix

    @property
    def t(self) -> int:
        return self.gram.t

    @cached_property
    def cells(self) -> np.ndarray:
        return cell_sizes(self.gram.s, self.t)

    @cached_property
    def reach(self) -> np.ndarray:
        """The edges of each orbit at one vertex of its cell a and of its
        cell b, as (r, 2) integers: the other cell's size.  An orbit inside
        one cell has its size less one at a and 0 at b, so that the cell
        counts it once."""
        a, b = self.pairs.T
        return np.column_stack([self.cells[b] - (a == b), self.cells[a] * (a != b)])

    @cached_property
    def orbit_sizes(self) -> np.ndarray:
        # in Python integers: the ends t(t - 1) of the rest-rest orbit leave
        # int64 from t = 3.04e9, where its size t(t - 1)/2 still fits
        ends = self.cells[self.pairs].astype(object) * self.reach
        return (np.sum(ends, axis=1) // 2).astype(np.int64)

    @property
    def num_edges(self) -> int:
        return int(self.orbit_sizes.sum())

    @cached_property
    def degrees(self) -> np.ndarray:
        """The unmarked edges at a vertex of each cell."""
        return np.bincount(self.pairs.ravel(), self.reach.ravel(), self.cells.size)

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
        # each cell adds its orbits in ascending order, as the rows of the
        # sparse incidence would
        sums = np.zeros((self.cells.size, *x.shape[1:]))
        ends = (self.reach.ravel() * np.repeat(x, 2, axis=0).T).T
        np.add.at(sums, self.pairs.ravel(), ends)
        a, b = self.pairs.T
        return (sums[a] + sums[b] - 2.0 * x) / self.moves

    def matvec(self, y: np.ndarray) -> np.ndarray:
        # transposed, so that the sizes run along the last axis of a block
        root = self._root_sizes
        return (root * self.orbit_matvec((self._orbit_vector(y).T / root).T).T).T

    def lift(self, w: np.ndarray) -> np.ndarray:
        """The orbit values of N^T w, N the vertex-edge incidence, for w in
        the symmetric coordinates (w_block, sqrt(t) w_rest) of the
        companion's quotient: v_a + v_b on the orbit (a, b), with
        v = w / sqrt(cells) the value at each vertex."""
        value = w / np.sqrt(self.cells)
        a, b = self.pairs.T
        return value[a] + value[b]

    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """The connected components of the unmarked edges, numbered from 0:
        the component of each cell of the companion's quotient (-1 at a
        vertex that meets no unmarked edge) and of each orbit.

        A rest vertex is joined to every other vertex, so for t >= 1 there
        is one.  For t = 0 the labels are found by taking, at each vertex,
        the least label of its neighbours and of the vertex its label
        names, until none changes."""
        if self.t:
            return np.zeros(self.cells.size, np.intp), np.zeros(len(self.pairs), np.intp)
        s = self.gram.s
        pu, pv = self.pairs.T
        label = np.arange(s)
        while True:
            least = label.copy()
            np.minimum.at(least, pu, label[pv])
            np.minimum.at(least, pv, label[pu])
            least = least[least]
            if np.array_equal(least, label):
                break
            label = least
        carries = np.bincount(self.pairs.ravel(), minlength=s) > 0
        component = np.full(s, -1, dtype=np.intp)
        component[carries] = np.unique(label[carries], return_inverse=True)[1]
        return component, component[pu]


def build_P_quotient(g: SignedCompleteGraph) -> LineQuotientMatrix:
    """The line kernel on its edge orbits (``LineQuotientMatrix``), from the
    marked subgraph in O(s^2 + r), with no edge-space array when t >= 2.

    As ``edge_space.build_P`` does for the edges, it checks in integers that
    the orbit sizes sum to the E = n(n+1)/2 - m unmarked edges and that a
    vertex of each cell meets as many of them as the diagonal of N N^T
    says: n - D_i at the marked subgraph's vertex i, n at a rest vertex.
    Raises EmptyComplement when every edge is marked.
    """
    n, s, t = g.n, g.s, g.t
    edges = _unmarked_edges(g)
    gram = vertex_matrix(g, 0, n, degree=-1)
    pairs = unmarked_pairs(g.marked_block)
    if t:  # {i, rest} for each i, and {rest, rest} once the rest has an edge
        pairs = _readonly(np.concatenate([pairs, [(a, s) for a in range(s + (t > 1))]]))
    P = LineQuotientMatrix(n=n, pairs=pairs, q_matrix=build_Q(g), gram=gram)
    # diag(N N^T) at a vertex of each cell: n - D_i, then n at the rest
    diagonal = [*np.diag(gram.block), *[gram.diagonal] * (P.cells.size - s)]
    if not (P.num_edges == edges and np.array_equal(P.degrees, diagonal)):
        raise AssertionError("edge orbits disagree with the incidence identity")
    return P


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
    pair on the order-(s+1) quotient instead.  Raises DimensionMismatch
    unless ``x`` is (n+1) x (n+1), TypeError unless ``steps`` is an integer
    (a bool is not) and ValueError when it is negative.
    """
    steps, order = _index(steps), g.n + 1
    if np.shape(x) != (order, order):
        raise DimensionMismatch(f"state of shape {np.shape(x)} against order {order}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    neg_o, neg_t = g.negative_arcs
    scale = 2.0 / g.n

    if fp is not None:
        # The 2m marked arcs: the negative arcs both ways, in row-major order.
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
    d = build_d_dense(g)
    reflect = 2.0 * d.T @ d - np.eye(g.arcs.num_arcs)
    return reflect[g.arcs.inverse_index, :]


def __getattr__(name: str):
    # The edge-space kernel lived here before it moved to ``edge_space``, and
    # perfbench's traced pass still reads it from this module: served on
    # that first access (PEP 562), which loads ``edge_space`` and scipy.
    if name == "LineTransitionMatrix":
        from .edge_space import LineTransitionMatrix

        return LineTransitionMatrix
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
