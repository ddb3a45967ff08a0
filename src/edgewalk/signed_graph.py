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

from .errors import (
    EmptySubgraph,
    InvalidArc,
    InvalidEdge,
    InvalidVertex,
    LoopEdge,
    TooLarge,
    TooSmall,
)

__all__ = [
    "ArcTable",
    "SignedCompleteGraph",
    "build_arc_table",
    "build_instance",
    "path_edges",
    "matching_edges",
    "star_edges",
    "cycle_edges",
    "complete_bipartite_edges",
    "edges_from_descriptor",
    "PAIR_TABLE_LIMIT",
]

# The O(n^2) pair tables, the edges and incidence of the tests' oracle
# ``edge_space.build_complement`` (35 bytes per vertex pair; no command
# builds one), start from ``marked_matrix``, which refuses more than this
# many vertex pairs (n+1)^2: n + 1 = 4096, 0.6 GB of complement arrays.
PAIR_TABLE_LIMIT = 4096**2


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
        origin = _vertex(origin, self.n, InvalidArc)
        terminus = _vertex(terminus, self.n, InvalidArc)
        if origin == terminus:
            raise InvalidArc(f"({origin}, {origin}) is a loop, not an arc")
        return origin * self.n + terminus - (terminus > origin)

    def pair(self, index: int) -> tuple[int, int]:
        """The arc (origin, terminus) at ``index``; raises InvalidArc unless
        it is an integer in 0..n(n+1)-1."""
        try:
            index = _index(index)
        except TypeError:
            raise InvalidArc(f"an arc index is an integer, got {index!r}") from None
        if not 0 <= index < self.num_arcs:
            raise InvalidArc(f"arc index {index} outside 0..{self.num_arcs - 1}")
        return int(self.origins[index]), int(self.termini[index])


def build_arc_table(n: int) -> ArcTable:
    """Enumerate the symmetric arcs of K_{n+1} with O(1) inverse lookup."""
    n = _index(n)
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
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _vertex(label, n: int, error: type[Exception] = InvalidVertex) -> int:
    """A vertex label from outside, as an int in 0..n; raises ``error`` for
    any other value, a float, a bool or a string among them."""
    try:
        vertex = _index(label)
    except TypeError:
        raise error(f"a vertex is an integer label, got {label!r}") from None
    if not 0 <= vertex <= n:
        raise error(f"vertex {vertex} outside 0..{n}")
    return vertex


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
    s, t : int
        Order of the marked subgraph and n + 1 - s.
    negative_arcs : ndarray of int64, shape (2, m)
        Canonical origin and terminus of each marked edge's arc of sign -1;
        ``sigma_negative_arcs`` holds them as a tuple of (int, int) pairs.
    degrees, gamma_degrees : ndarray of int64, shapes (s,) and (n+1,)
        Marked-subgraph degree of each canonical vertex (0 outside it).
    marked_block : ndarray of bool, shape (s, s)
        Adjacency indicator of the marked subgraph (canonical 0..s-1).
    canonical_order : tuple of int
        External label at each canonical position: marked-subgraph vertices
        first (in ``gamma_vertices`` order), remaining vertices ascending.
    marked_matrix : ndarray of bool, shape (n+1, n+1)
        ``marked_block`` zero-padded to the host graph.
    arcs : ArcTable
        Arc enumeration of the host graph (canonical indices).
    sigma_arcs : ndarray of float
        Sign of each arc, indexed like ``arcs``.
    marked_arc_indices : ndarray of int
        Ascending indices of the 2m arcs of the marked subgraph.
    marked_arcs : ndarray of bool
        True on the 2m arcs of the marked subgraph.

    Construction keeps the marked subgraph once, as ``negative_arcs`` and
    ``degrees``, in O(s + m) whatever n is; the rest are built from them on
    first use and cached.  Only whole-block readers build ``marked_block``
    (vertex matrices, t_c's solve, ``unmarked_pairs``, the walker's cell
    rule, ``adjacency_max``), only the tests' oracle ``build_complement``
    ``marked_matrix`` (TooLarge above ``PAIR_TABLE_LIMIT`` vertex pairs),
    and only the arc-space helpers and the dense oracles the per-arc members.

    Instances are immutable after construction and safe to share between
    threads; the numpy members are marked read-only.  Two threads that read
    a cached member for the first time at once may each build it; the
    copies are equal, and the instance keeps one of them.
    """

    def __init__(self, n: int, marked_edges: Iterable, orientation: str = "canonical"):
        n = _index(n)
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
            u, v = _vertex(u, n), _vertex(v, n)
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            edges.append((u, v))
        if not edges:
            raise EmptySubgraph("at least one marked edge is required")

        self.n = n
        self.marked_edges = tuple(edges)
        self.gamma_vertices = tuple(dict.fromkeys(w for edge in edges for w in edge))
        position = {w: i for i, w in enumerate(self.gamma_vertices)}  # canonical
        self.s = len(position)
        self.t = n + 1 - self.s

        self.orientation = orientation
        arcs = np.array([sorted((position[u], position[v])) for u, v in edges]).T
        arcs = arcs if orientation == "canonical" else arcs[::-1]
        self.negative_arcs = _readonly(arcs.astype(np.int64, order="C"))
        self.degrees = _readonly(np.bincount(arcs.ravel(), minlength=self.s))

    @cached_property
    def sigma_negative_arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self.negative_arcs.tolist()))

    @cached_property
    def marked_block(self) -> np.ndarray:
        block = np.zeros((self.s, self.s), dtype=bool)
        o, tm = self.negative_arcs
        block[o, tm] = block[tm, o] = True
        return _readonly(block)

    @cached_property
    def canonical_order(self) -> tuple[int, ...]:
        rest = np.setdiff1d(np.arange(self.n + 1), self.gamma_vertices)
        return self.gamma_vertices + tuple(rest.tolist())

    @cached_property
    def marked_matrix(self) -> np.ndarray:
        pairs = (self.n + 1) ** 2
        if pairs > PAIR_TABLE_LIMIT:
            raise TooLarge(
                f"n = {self.n}: the pair tables of (n+1)^2 = {pairs} vertex "
                f"pairs exceed the limit of {PAIR_TABLE_LIMIT}"
            )
        return _readonly(np.pad(self.marked_block, (0, self.t)))

    @cached_property
    def gamma_degrees(self) -> np.ndarray:
        return _readonly(np.pad(self.degrees, (0, self.t)))

    @cached_property
    def arcs(self) -> ArcTable:
        return build_arc_table(self.n)

    @cached_property
    def sigma_arcs(self) -> np.ndarray:
        sigma = np.ones(self.num_arcs)
        o, tm = self.negative_arcs
        sigma[o * self.n + tm - (tm > o)] = -1.0
        return _readonly(sigma)

    @cached_property
    def marked_arc_indices(self) -> np.ndarray:
        o, tm = self.negative_arcs
        origins, termini = np.concatenate((o, tm)), np.concatenate((tm, o))
        indices = origins * self.n + termini - (termini > origins)
        return _readonly(np.sort(indices))

    @cached_property
    def marked_arcs(self) -> np.ndarray:
        mask = np.zeros(self.num_arcs, dtype=bool)
        mask[self.marked_arc_indices] = True
        return _readonly(mask)

    @property
    def num_marked(self) -> int:
        """Number of marked edges."""
        return len(self.marked_edges)

    @property
    def num_arcs(self) -> int:
        return self.n * (self.n + 1)

    def to_canonical(self, label: int) -> int:
        """Canonical index of an external vertex label, in O(s): a label
        outside the marked subgraph follows the s inside it, in ascending
        order."""
        label = _vertex(label, self.n)
        if label in self.gamma_vertices:
            return self.gamma_vertices.index(label)
        return int(self.s + label - sum(w < label for w in self.gamma_vertices))

    def to_external(self, index: int) -> int:
        """External label at a canonical position, in O(log s): the k-th
        label outside the marked subgraph is k + #{i : g_i - i <= k}, with
        g_0 < g_1 < ... its sorted labels."""
        index = _vertex(index, self.n)
        if index < self.s:
            return self.gamma_vertices[index]
        k = index - self.s
        return k + int(np.searchsorted(self._label_gaps, k, side="right"))

    @cached_property
    def _label_gaps(self) -> np.ndarray:
        # g_i - i, nondecreasing: how many labels outside the marked
        # subgraph precede g_i
        return _readonly(np.sort(self.gamma_vertices) - np.arange(self.s))

    def sigma(self, arc: Sequence[int]) -> int:
        """Sign of an arc given in external labels: -1 exactly on
        ``negative_arcs``, read in O(m).  Raises InvalidArc unless
        ``arc`` is a pair (a sequence of two labels) of distinct vertices."""
        if not isinstance(arc, (Sequence, np.ndarray)) or len(arc) != 2:
            raise InvalidArc(f"an arc is a pair of vertex labels, got {arc!r}")
        u, v = _vertex(arc[0], self.n, InvalidArc), _vertex(arc[1], self.n, InvalidArc)
        if u == v:
            raise InvalidArc(f"({u}, {u}) is a loop, not an arc")
        arc = (self.to_canonical(u), self.to_canonical(v))
        return -1 if (self.negative_arcs.T == arc).all(axis=1).any() else 1

    def tau(self, edge) -> int:
        """Edge sign sigma((u, v)) sigma((v, u)): -1 exactly on marked edges."""
        u, v = (_vertex(w, self.n, InvalidEdge) for w in _normalize_edge(edge))
        if u == v:
            raise InvalidEdge(f"({u}, {u}) is a loop, not an edge")
        return self.sigma((u, v)) * self.sigma((v, u))

    def is_spanning_complete_bipartite(self) -> bool:
        """Decide in O(s + m) whether the marked subgraph is a complete
        bipartite graph on all n+1 vertices (the degenerate search case):
        with R the marked neighbours of canonical vertex 0, every marked edge
        joins R to the rest, and there are |R| (s - |R|) of them."""
        if self.t:
            return False
        o, tm = self.negative_arcs
        side = np.bincount(np.concatenate((tm[o == 0], o[tm == 0])), minlength=self.s) > 0
        r = int(np.count_nonzero(side))
        return bool(np.all(side[o] != side[tm])) and self.num_marked == r * (self.s - r)

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
                _vertex(w, n)
        return pairs
    raise ValueError(f"unknown subgraph kind {kind!r}")
