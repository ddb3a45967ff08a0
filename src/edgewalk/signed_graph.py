"""Signed complete graphs: host graph, marked subgraph, arcs and signs.

A search instance is the complete graph on n+1 vertices together with a
nonempty set of marked edges (the subgraph to be found).  Each edge {u, v}
contributes two mutually inverse arcs (u, v) and (v, u); exactly one arc of
each marked edge carries sign -1, so the induced edge sign
tau(uv) = sigma((u, v)) * sigma((v, u)) is -1 precisely on marked edges.

Vertices are relabelled internally so that the marked subgraph's vertices
come first (the canonical order).  All matrices and state vectors in the
sibling modules are indexed canonically; user-facing labels are translated
back on output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import (
    EmptySubgraph,
    InvalidArc,
    InvalidEdge,
    InvalidVertex,
    LoopEdge,
    TooSmall,
)

__all__ = [
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
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ArcTable:
    """All n(n+1) ordered pairs of distinct vertices of K_{n+1}.

    Arcs are sorted lexicographically by (origin, terminus), so the index of
    (u, v) is ``u*n + v - (v > u)``.  ``inverse_index`` maps each arc to its
    reversal; it is an involution with no fixed point.
    """

    n: int
    origins: np.ndarray
    termini: np.ndarray
    inverse_index: np.ndarray

    @property
    def num_arcs(self) -> int:
        return self.n * (self.n + 1)

    def index(self, origin: int, terminus: int) -> int:
        """Index of the arc (origin, terminus); raises InvalidArc otherwise."""
        if not (0 <= origin <= self.n and 0 <= terminus <= self.n):
            raise InvalidArc(
                f"arc ({origin}, {terminus}) has a vertex outside 0..{self.n}"
            )
        if origin == terminus:
            raise InvalidArc(f"({origin}, {origin}) is a loop, not an arc")
        return origin * self.n + terminus - (terminus > origin)

    def pair(self, index: int) -> tuple[int, int]:
        return int(self.origins[index]), int(self.termini[index])


def build_arc_table(n: int) -> ArcTable:
    """Enumerate the symmetric arcs of K_{n+1} with O(1) inverse lookup."""
    if n < 2:
        raise TooSmall(f"need n >= 2, got n = {n}")
    verts = np.arange(n + 1)
    grid = np.tile(verts, (n + 1, 1))
    off_diag = grid != verts[:, None]
    origins = np.repeat(verts, n)
    termini = grid[off_diag]
    inverse = termini * n + origins - (origins > termini)
    return ArcTable(
        n=n,
        origins=_readonly(origins),
        termini=_readonly(termini),
        inverse_index=_readonly(inverse.astype(np.int64)),
    )


def _index(value) -> int:
    """``operator.index``, which also raises TypeError for a bool (JSON true
    or false)."""
    return operator.index(None if isinstance(value, bool) else value)


def _normalize_edge(edge) -> tuple[int, int]:
    """The endpoints of an edge given as a pair or a set of two integer
    labels; raises InvalidEdge for anything else."""
    try:
        pair = sorted(edge) if isinstance(edge, (set, frozenset)) else list(edge)
        if len(pair) == 2:
            return _index(pair[0]), _index(pair[1])
    except TypeError:
        pass
    raise InvalidEdge(f"an edge is a pair of integer vertex labels, got {edge!r}")


class SignedCompleteGraph:
    """K_{n+1} with a nonempty marked subgraph and a fixed arc sign function.

    The sign convention only constrains the product of the two arc signs of
    an edge, so any orientation choice yields the same edge signs, vertex
    matrices and spectra.  We fix -1 on the arc whose origin precedes its
    terminus in canonical order (``orientation="canonical"``); passing
    ``orientation="reversed"`` picks the opposite arc, which is useful for
    checking that downstream quantities are orientation invariant.

    Attributes
    ----------
    n : int
        The host graph is K_{n+1}.
    marked_edges : tuple of (int, int)
        Marked edges in the caller's labels, input order, duplicates removed.
    gamma_vertices : tuple of int
        Endpoints of marked edges in order of first appearance.
    canonical_order : tuple of int
        External label at each canonical position: marked-subgraph vertices
        first (in ``gamma_vertices`` order), remaining vertices ascending.
    sigma_negative_arcs : tuple of (int, int)
        The arc of each marked edge carrying sign -1, in canonical indices.
    s, t : int
        Order of the marked subgraph and n + 1 - s.
    marked_matrix : ndarray of bool, shape (n+1, n+1)
        Adjacency indicator of the marked subgraph in canonical indices.
    gamma_degrees : ndarray of int
        Marked-subgraph degree of each canonical vertex (0 outside it).
    arcs : ArcTable
        Arc enumeration of the host graph (canonical indices).
    sigma_arcs : ndarray of float
        Sign of each arc, indexed like ``arcs``.
    marked_arcs : ndarray of bool
        True on the 2m arcs of the marked subgraph.

    The last three hold n(n+1) entries each.  Only the arc-space helpers
    and the dense oracles read them, so they are built on first use and
    cached; the ledger, the finding-probability series and the solvers
    never build them.

    Instances are immutable after construction and safe to share between
    threads; the numpy members are marked read-only.  Two threads that read
    a per-arc member for the first time at once may each build it; the
    copies are equal, and the instance keeps one of them.
    """

    def __init__(self, n: int, marked_edges: Iterable, orientation: str = "canonical"):
        if n < 2:
            raise TooSmall(f"need n >= 2, got n = {n}")
        if orientation not in ("canonical", "reversed"):
            raise ValueError(f"unknown orientation {orientation!r}")
        edges: list[tuple[int, int]] = []
        seen: set[frozenset] = set()
        for raw in marked_edges:
            u, v = _normalize_edge(raw)
            if u == v:
                raise LoopEdge(f"edge ({u}, {v}) is a loop")
            for w in (u, v):
                if not 0 <= w <= n:
                    raise InvalidVertex(f"vertex {w} outside 0..{n}")
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append((u, v))
        if not edges:
            raise EmptySubgraph("at least one marked edge is required")

        self.n = int(n)
        self.marked_edges = tuple(edges)
        # keys in order of first appearance, with O(1) membership
        gamma = dict.fromkeys(w for edge in edges for w in edge)
        self.gamma_vertices = tuple(gamma)
        rest = [w for w in range(n + 1) if w not in gamma]
        self.canonical_order = self.gamma_vertices + tuple(rest)
        self.s = len(gamma)
        self.t = n + 1 - self.s

        canon = np.empty(n + 1, dtype=np.int64)
        for pos, label in enumerate(self.canonical_order):
            canon[label] = pos
        self._canon = _readonly(canon)

        marked_matrix = np.zeros((n + 1, n + 1), dtype=bool)
        negatives: list[tuple[int, int]] = []
        for u, v in edges:
            i, j = int(canon[u]), int(canon[v])
            marked_matrix[i, j] = marked_matrix[j, i] = True
            lo, hi = (i, j) if i < j else (j, i)
            negatives.append((lo, hi) if orientation == "canonical" else (hi, lo))
        self.orientation = orientation
        self.sigma_negative_arcs = tuple(negatives)
        self.marked_matrix = _readonly(marked_matrix)
        self.gamma_degrees = _readonly(marked_matrix.sum(axis=1).astype(np.int64))

    @cached_property
    def arcs(self) -> ArcTable:
        return build_arc_table(self.n)

    @cached_property
    def sigma_arcs(self) -> np.ndarray:
        sigma = np.ones(self.num_arcs)
        o, tm = np.array(self.sigma_negative_arcs, dtype=np.int64).T
        sigma[o * self.n + tm - (tm > o)] = -1.0
        return _readonly(sigma)

    @cached_property
    def marked_arcs(self) -> np.ndarray:
        return _readonly(self.marked_matrix[self.arcs.origins, self.arcs.termini])

    @property
    def num_marked(self) -> int:
        """Number of marked edges."""
        return len(self.marked_edges)

    @property
    def num_arcs(self) -> int:
        return self.n * (self.n + 1)

    def to_canonical(self, label: int) -> int:
        """Canonical index of an external vertex label."""
        if not 0 <= label <= self.n:
            raise InvalidVertex(f"vertex {label} outside 0..{self.n}")
        return int(self._canon[label])

    def to_external(self, index: int) -> int:
        """External label at a canonical position."""
        return self.canonical_order[index]

    def sigma(self, arc: Sequence[int]) -> int:
        """Sign of an arc given in external labels: -1 exactly on
        ``sigma_negative_arcs``, read in O(m)."""
        u, v = int(arc[0]), int(arc[1])
        for w in (u, v):
            if not 0 <= w <= self.n:
                raise InvalidArc(f"vertex {w} outside 0..{self.n}")
        if u == v:
            raise InvalidArc(f"({u}, {u}) is a loop, not an arc")
        arc = (self.to_canonical(u), self.to_canonical(v))
        return -1 if arc in self.sigma_negative_arcs else 1

    def tau(self, edge) -> int:
        """Edge sign: -1 exactly on marked edges."""
        u, v = _normalize_edge(edge)
        for w in (u, v):
            if not 0 <= w <= self.n:
                raise InvalidEdge(f"vertex {w} outside 0..{self.n}")
        if u == v:
            raise InvalidEdge(f"({u}, {u}) is a loop, not an edge")
        return -1 if self.marked_matrix[self.to_canonical(u), self.to_canonical(v)] else 1

    def is_spanning_complete_bipartite(self) -> bool:
        """Decide combinatorially whether the marked subgraph is a complete
        bipartite graph on all n+1 vertices (the degenerate search case)."""
        if self.s != self.n + 1:
            return False
        color = np.full(self.n + 1, -1, dtype=np.int64)
        color[0] = 0
        queue = [0]
        reached = 1
        while queue:
            u = queue.pop()
            nbrs = np.nonzero(self.marked_matrix[u])[0]
            for v in nbrs:
                if color[v] == -1:
                    color[v] = 1 - color[u]
                    reached += 1
                    queue.append(int(v))
                elif color[v] == color[u]:
                    return False
        if reached != self.n + 1:
            return False
        n_left = int(np.sum(color == 0))
        n_right = self.n + 1 - n_left
        return self.num_marked == n_left * n_right

    def __repr__(self) -> str:
        return (
            f"SignedCompleteGraph(n={self.n}, marked_edges={list(self.marked_edges)})"
        )


def build_instance(
    n: int, marked_edges: Iterable, orientation: str = "canonical"
) -> SignedCompleteGraph:
    """Validate input and construct a search instance.

    Parameters
    ----------
    n : int
        Host graph is K_{n+1}; requires n >= 2.
    marked_edges : iterable of vertex pairs
        Nonempty, loop-free edges over {0, ..., n}; duplicates are collapsed.
    orientation : str
        Which arc of each marked edge carries sign -1 (see
        SignedCompleteGraph).
    """
    return SignedCompleteGraph(n, marked_edges, orientation=orientation)


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
        """Vertex-by-edge incidence matrix N (entry 1 iff the vertex lies on
        the edge), float64 CSR with sorted indices.

        It is the transpose of N^T, whose CSR rows are the edges themselves
        (two ascending entries each), so the conversion is one counting
        sort and no comparison sort or duplicate merge is needed.
        """
        return self._incidence

    def edge_index(self, u: int, v: int) -> int:
        """Index of the unmarked edge {u, v} (canonical labels)."""
        lo, hi = (u, v) if u < v else (v, u)
        keys = self.edges[:, 0] * (self.n + 1) + self.edges[:, 1]
        pos = int(np.searchsorted(keys, lo * (self.n + 1) + hi))
        if pos >= self.num_edges or tuple(self.edges[pos]) != (lo, hi):
            raise InvalidEdge(f"({u}, {v}) is not an unmarked edge")
        return pos


def build_complement(g: SignedCompleteGraph) -> ComplementGraph:
    """Edges of K_{n+1} that are not marked, their degrees and incidence."""
    n = g.n
    edges = np.stack(np.nonzero(np.triu(~g.marked_matrix, k=1)), axis=1)
    num = edges.shape[0]
    # N^T in CSR: row e holds the endpoints i < j of edge e, already sorted,
    # and the row-major ``edges`` is its column-index array as it stands.
    incidence_t = sp.csr_matrix(
        (np.ones(2 * num), edges.ravel(), np.arange(0, 2 * num + 1, 2)),
        shape=(num, n + 1),
    )
    return ComplementGraph(
        n=n,
        edges=_readonly(edges),
        degrees=n - g.gamma_degrees,
        _incidence=incidence_t.T.tocsr(),
    )


# --- subgraph generators -------------------------------------------------
#
# Generators emit edges over labels 0..max; build_instance validates them
# against the host size.  Path/matching/star take the number of edges k.

def path_edges(k: int) -> list[tuple[int, int]]:
    """Path with k edges on vertices 0..k."""
    if k < 1:
        raise ValueError(f"a path needs k >= 1 edges, got {k}")
    return [(i, i + 1) for i in range(k)]


def matching_edges(k: int) -> list[tuple[int, int]]:
    """Matching with k disjoint edges on vertices 0..2k-1."""
    if k < 1:
        raise ValueError(f"a matching needs k >= 1 edges, got {k}")
    return [(2 * i, 2 * i + 1) for i in range(k)]


def star_edges(k: int) -> list[tuple[int, int]]:
    """Star with k leaves centred at vertex 0."""
    if k < 1:
        raise ValueError(f"a star needs k >= 1 edges, got {k}")
    return [(0, i + 1) for i in range(k)]


def cycle_edges(k: int) -> list[tuple[int, int]]:
    """Cycle on k vertices (k >= 3)."""
    if k < 3:
        raise ValueError(f"a cycle needs k >= 3 vertices, got {k}")
    return [(i, (i + 1) % k) for i in range(k)]


def complete_bipartite_edges(a: int, b: int) -> list[tuple[int, int]]:
    """Complete bipartite graph with parts 0..a-1 and a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError(f"bipartite parts must be nonempty, got a={a}, b={b}")
    return [(i, a + j) for i in range(a) for j in range(b)]


# Each generator with its integer parameters and the number of vertices they
# span, so that a descriptor too large for its host fails before any edge.
_GENERATORS = {
    "path": (path_edges, ("k",), lambda k: k + 1),
    "matching": (matching_edges, ("k",), lambda k: 2 * k),
    "star": (star_edges, ("k",), lambda k: k + 1),
    "cycle": (cycle_edges, ("k",), lambda k: k),
    "complete_bipartite": (complete_bipartite_edges, ("a", "b"), lambda a, b: a + b),
}


def edges_from_descriptor(
    descriptor: dict, *, n: Optional[int] = None
) -> list[tuple[int, int]]:
    """Materialize a subgraph descriptor into an edge list.

    The descriptor is a JSON-style mapping with a ``kind`` of ``path``,
    ``matching``, ``star``, ``cycle`` (parameter ``k``),
    ``complete_bipartite`` (parameters ``a`` and ``b``) or ``edges``
    (explicit ``edges`` list of pairs).  Given the host size ``n``, a
    generated subgraph on more than n + 1 vertices, or an explicit edge with
    a vertex outside 0..n, raises InvalidVertex.
    """
    kind = descriptor.get("kind") if isinstance(descriptor, dict) else None
    if not isinstance(kind, str):
        raise ValueError("subgraph descriptor must be an object with a string 'kind'")

    def integer(key: str) -> int:
        value = descriptor.get(key)
        try:
            return _index(value)
        except TypeError:
            raise ValueError(
                f"descriptor of kind {kind!r} needs an integer {key!r}, got {value!r}"
            ) from None

    if kind in _GENERATORS:
        generate, keys, span = _GENERATORS[kind]
        params = [integer(key) for key in keys]
        if n is not None and span(*params) > n + 1:
            raise InvalidVertex(
                f"a {kind} on {span(*params)} vertices does not fit in K_{n + 1}"
            )
        return generate(*params)
    if kind == "edges":
        edges = descriptor.get("edges")
        if not isinstance(edges, (list, tuple)) or not edges:
            raise ValueError("descriptor of kind 'edges' needs a nonempty 'edges' list")
        pairs = [_normalize_edge(e) for e in edges]
        if n is not None:
            for w in (w for pair in pairs for w in pair):
                if not 0 <= w <= n:
                    raise InvalidVertex(f"vertex {w} outside 0..{n}")
        return pairs
    raise ValueError(f"unknown subgraph kind {kind!r}")
