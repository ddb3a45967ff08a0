"""Operator fixtures and cross-checks: T against its closed forms, the dense
walk operator against the entrywise formula, matrix-free against dense."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import operators
from edgewalk import (
    apply_U,
    build_complement,
    build_instance,
    build_P,
    build_P_quotient,
    build_T,
    build_U_dense,
    complete_bipartite_edges,
    cycle_edges,
    edge_space,
    matching_edges,
    path_edges,
    star_edges,
)
from edgewalk.errors import DimensionMismatch, EmptyComplement, TooLarge
from edgewalk.operators import build_d_dense

RNG = np.random.default_rng(2024)

K5_EDGES = [(0, 1), (1, 2), (2, 3)]

K5_T_TIMES_4 = np.array(
    [
        [0, -1, 1, 1, 1],
        [-1, 0, -1, 1, 1],
        [1, -1, 0, -1, 1],
        [1, 1, -1, 0, 1],
        [1, 1, 1, 1, 0],
    ],
    dtype=np.float64,
)


def random_instance(rng, n, max_edges=6):
    pairs = [(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]
    count = int(rng.integers(1, min(max_edges, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=count, replace=False)
    return build_instance(n, [pairs[i] for i in chosen])


def test_T_k5_exact():
    T = build_T(build_instance(4, K5_EDGES))
    assert np.array_equal(T.matrix, K5_T_TIMES_4 / 4.0)
    assert (T.s, T.t) == (4, 1)


def test_T_triangle_exact():
    T = build_T(build_instance(2, [(0, 1)]))
    expected = np.array([[0, -1, 1], [-1, 0, 1], [1, 1, 0]]) / 2.0
    assert np.array_equal(T.matrix, expected)


def test_T_quadratic_form_k5():
    T = build_T(build_instance(4, K5_EDGES))
    j = np.full(5, 1 / np.sqrt(5))
    assert j @ T.matrix @ j == pytest.approx(0.4, abs=1e-14)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_T_block_form(n):
    g = random_instance(np.random.default_rng(n), n)
    T = build_T(g).matrix
    order = n + 1
    padded = g.marked_matrix.astype(float)
    expected = (np.ones((order, order)) - np.eye(order) - 2 * padded) / n
    assert np.array_equal(T, expected)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_T_matches_coin_swap_product(n):
    # T = d S d* evaluated densely
    g = random_instance(np.random.default_rng(100 + n), n)
    d = build_d_dense(g)
    swapped_rows = d[:, g.arcs.inverse_index]
    assert np.allclose(build_T(g).matrix, d @ swapped_rows.T, atol=1e-14)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_coin_isometry(n):
    # d d* = I on the vertex space
    g = random_instance(np.random.default_rng(200 + n), n)
    d = build_d_dense(g)
    assert np.abs(d @ d.T - np.eye(n + 1)).max() <= 1e-14


def test_U_k5_entries_exact():
    g = build_instance(4, K5_EDGES)
    U = build_U_dense(g)
    a = g.arcs
    assert U[a.index(1, 2), a.index(2, 1)] == -0.5
    assert U[a.index(1, 2), a.index(0, 1)] == -0.5
    assert U[a.index(1, 2), a.index(4, 1)] == 0.5
    assert U[a.index(1, 2), a.index(4, 2)] == 0.0


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_U_entrywise_formula(n):
    # independently rebuild U entry by entry from the sign pattern; the
    # operator-product route differs by rounding when sqrt(n) is inexact
    g = random_instance(np.random.default_rng(7 * n), n)
    U = build_U_dense(g)
    arcs = g.arcs
    expected = np.zeros_like(U)
    for a in range(arcs.num_arcs):
        for b in range(arcs.num_arcs):
            if arcs.termini[b] != arcs.origins[a]:
                continue
            value = 2.0 * g.sigma_arcs[arcs.inverse_index[a]] * g.sigma_arcs[b] / n
            if arcs.inverse_index[a] == b:
                value -= 1.0
            expected[a, b] = value
    assert np.abs(U - expected).max() <= 1e-14


@pytest.mark.parametrize("n", [2, 4, 6, 9])
def test_U_orthogonal(n):
    g = random_instance(np.random.default_rng(n + 50), n)
    U = build_U_dense(g)
    assert np.abs(U @ U.T - np.eye(g.num_arcs)).max() <= 1e-12


def test_U_dense_guard():
    with pytest.raises(TooLarge):
        build_U_dense(build_instance(41, [(0, 1)]))


def test_apply_U_k5_indicator_amplitudes():
    g = build_instance(4, K5_EDGES)
    a = g.arcs
    psi = np.zeros(20)
    psi[a.index(2, 1)] = 1.0
    assert apply_U(g, psi)[a.index(1, 2)] == -0.5
    psi = np.zeros(20)
    psi[a.index(4, 2)] = 1.0
    assert apply_U(g, psi)[a.index(1, 2)] == 0.0


def test_apply_U_k100_single_edge_first_step():
    g = build_instance(99, [(0, 1)])
    psi = np.full(9900, 1 / np.sqrt(9900))
    mass = float(np.sum(apply_U(g, psi)[g.marked_arcs] ** 2))
    assert mass == pytest.approx(0.0009857786106, abs=1e-9)


@pytest.mark.parametrize("n", [2, 4, 7, 10])
def test_apply_U_matches_dense(n):
    g = random_instance(np.random.default_rng(300 + n), n)
    U = build_U_dense(g)
    for _ in range(100):
        psi = RNG.normal(size=g.num_arcs) + 1j * RNG.normal(size=g.num_arcs)
        psi /= np.linalg.norm(psi)
        assert np.abs(U @ psi - apply_U(g, psi)).max() <= 1e-12


@pytest.mark.parametrize("n", [5, 30, 120, 200])
def test_apply_U_unitary(n):
    g = build_instance(n, [(0, 1), (2, 3)])
    for _ in range(10):
        psi = RNG.normal(size=g.num_arcs) + 1j * RNG.normal(size=g.num_arcs)
        psi /= np.linalg.norm(psi)
        assert abs(np.linalg.norm(apply_U(g, psi)) - 1.0) <= 1e-12


def test_apply_U_dimension_mismatch():
    g = build_instance(3, [(0, 1)])
    with pytest.raises(DimensionMismatch):
        apply_U(g, np.zeros(5))


def test_P_triangle():
    P = build_P(build_instance(2, [(0, 1)]))
    assert np.array_equal(P.dense(), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_P_diagonal_zero_and_rowsums():
    g = build_instance(6, [(0, 1), (1, 2)])
    P = build_P(g)
    dense = P.dense()
    assert np.array_equal(np.diag(dense), np.zeros(P.num_edges))
    rowsums = dense.sum(axis=1)
    assert np.all(rowsums <= 1.0 + 1e-12)
    # rows of edges touching the marked subgraph leak probability
    eu, ev = P.complement.edges[:, 0], P.complement.edges[:, 1]
    touching = (g.gamma_degrees[eu] > 0) | (g.gamma_degrees[ev] > 0)
    assert np.all(rowsums[touching] < 1.0 - 1e-12)
    assert np.allclose(rowsums[~touching], 1.0)


def test_P_matvec_matches_dense():
    g = build_instance(9, [(0, 1), (4, 5), (5, 6)])
    P = build_P(g)
    dense = P.dense()
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.normal(size=P.num_edges)
        assert np.abs(dense @ x - P.matvec(x)).max() <= 1e-13


def test_Q_incidence_identity():
    # 2(n-1) Q + 2I = N N^T exactly
    for n, edges in [(2, [(0, 1)]), (5, [(0, 1), (1, 2), (3, 4)])]:
        g = build_instance(n, edges)
        P = build_P(g)
        inc = P.complement.incidence().toarray()
        lhs = 2 * (n - 1) * P.q_matrix.matrix + 2 * np.eye(n + 1)
        assert np.array_equal(lhs, inc @ inc.T)


# Each family with the largest size that fits in K_{n+1}, and its smallest.
FAMILIES = {
    "path": (path_edges, 1, lambda n: n),
    "star": (star_edges, 1, lambda n: n),
    "matching": (matching_edges, 1, lambda n: (n + 1) // 2),
    "cycle": (cycle_edges, 3, lambda n: n + 1),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_incidence_and_gram_match_their_definitions(data):
    n = data.draw(st.integers(2, 60), label="n")
    generate, smallest, largest = FAMILIES[
        data.draw(st.sampled_from(sorted(FAMILIES)), label="family")
    ]
    edges = generate(data.draw(st.integers(smallest, largest(n)), label="size"))
    labels = data.draw(st.permutations(range(n + 1)), label="labels")
    orientation = data.draw(st.sampled_from(["canonical", "reversed"]))
    g = build_instance(n, [(labels[u], labels[v]) for u, v in edges], orientation)

    delta = build_complement(g)
    order = n + 1
    unmarked = [
        (i, j)
        for i in range(order)
        for j in range(i + 1, order)
        if not g.marked_matrix[i, j]
    ]
    assert delta.edges.tolist() == [list(e) for e in unmarked]
    dense = np.zeros((order, len(unmarked)))
    for e, (i, j) in enumerate(unmarked):
        dense[i, e] = dense[j, e] = 1.0
    inc = delta.incidence()
    assert inc.format == "csr" and inc.dtype == np.float64
    assert inc.has_sorted_indices
    rows = np.repeat(np.arange(order), np.diff(inc.indptr))
    assert np.array_equal(np.lexsort((inc.indices, rows)), np.arange(inc.nnz))
    assert np.array_equal(inc.toarray(), dense)
    if not unmarked:
        with pytest.raises(EmptyComplement):
            build_P(g)
        return

    # the sparse product that build_P's edge check stands in for
    P = build_P(g)
    assert np.array_equal(P.gram.matrix, (inc @ inc.T).toarray())
    x = np.random.default_rng(n).normal(size=P.num_edges)
    assert np.abs(P.matvec(x) - P.dense() @ x).max() <= 1e-12


@pytest.mark.parametrize("dropped", [0, 7, -1])
def test_P_check_sees_a_dropped_edge(monkeypatch, dropped):
    g = build_instance(7, [(0, 1), (1, 2)])

    def short_complement(g):
        delta = build_complement(g)
        keep = np.ones(delta.num_edges, dtype=bool)
        keep[dropped] = False
        return dataclasses.replace(
            delta,
            edges=delta.edges[keep],
            _incidence=delta.incidence()[:, keep].tocsr(),
        )

    monkeypatch.setattr(edge_space, "build_complement", short_complement)
    with pytest.raises(
        AssertionError, match="vertex companion disagrees with incidence identity"
    ):
        build_P(g)


def _trade_cycle_diagonals_for_sides(edges, a, b, c, d):
    # every vertex keeps its count and the edge count stays: only the
    # zeros of the block tell the edge sets apart
    pairs = {tuple(e) for e in edges.tolist()}
    pairs -= {tuple(sorted((a, c))), tuple(sorted((b, d)))}
    pairs |= {tuple(sorted((a, b))), tuple(sorted((c, d)))}
    return np.array(sorted(pairs))


def _reverse_last_edge(edges, *cycle):
    edges = edges.copy()
    edges[-1] = edges[-1, ::-1]
    return edges


def _swap_first_edges(edges, *cycle):
    return edges[[1, 0, *range(2, len(edges))]]


@pytest.mark.parametrize(
    "edit",
    [_trade_cycle_diagonals_for_sides, _reverse_last_edge, _swap_first_edges],
    ids=["marked-pairs", "reversed", "out-of-order"],
)
def test_P_check_sees_a_wrong_edge_set_with_the_right_counts(monkeypatch, edit):
    g = build_instance(7, cycle_edges(4))
    cycle = [g.to_canonical(v) for v in range(4)]

    def edited_complement(g):
        delta = build_complement(g)
        return dataclasses.replace(delta, edges=edit(delta.edges, *cycle))

    monkeypatch.setattr(edge_space, "build_complement", edited_complement)
    with pytest.raises(
        AssertionError, match="vertex companion disagrees with incidence identity"
    ):
        build_P(g)


@pytest.mark.parametrize("n,edges", [(7, [(0, 1), (1, 2)]), (1000, [(0, 1)])])
def test_P_check_builds_no_dense_vertex_matrix(n, edges):
    P = build_P(build_instance(n, edges))
    assert "matrix" not in P.gram.__dict__
    assert "matrix" not in P.q_matrix.__dict__


def test_P_empty_complement():
    full = [(u, v) for u in range(3) for v in range(u + 1, 3)]
    with pytest.raises(EmptyComplement):
        build_P(build_instance(2, full))


def _orbit_basis(g, edges):
    """The normalized orbit indicators of the unmarked edges, as columns in
    the order of ``LineQuotientMatrix``: the unmarked pairs inside the
    marked subgraph, then {i, rest} for each of its vertices i, then the
    rest-rest pairs."""
    s = g.s
    pairs = [tuple(e) for e in edges.tolist() if e[1] < s]
    orbit = [
        pairs.index((u, v)) if v < s else len(pairs) + u if u < s else len(pairs) + s
        for u, v in edges.tolist()
    ]
    basis = np.zeros((len(orbit), max(orbit) + 1))
    basis[np.arange(len(orbit)), orbit] = 1.0
    return basis / np.sqrt(basis.sum(axis=0))


@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [(0, 1)]),  # t = 1
        (3, cycle_edges(4)),  # t = 0 and P = 0
        (4, path_edges(3)),  # t = 1
        (5, path_edges(3)),  # t = 2: O_R is one edge
        (6, star_edges(3)),
        (7, path_edges(7)),  # t = 0
        (9, [(0, 1), (4, 5), (5, 6)]),
        (12, complete_bipartite_edges(2, 3)),
        (5, [(u, v) for u in range(4) for v in range(u + 1, 4)]),  # no pair left
        (5, path_edges(4)),  # t = 1: each {i, rest} is one edge, no O_R
    ],
)
def test_quotient_is_the_kernel_on_orbit_indicators(n, edges):
    # W^T P W from the dense kernel and the edge list; P W = W (W^T P W)
    # says that P maps the orbit-constant vectors into themselves
    g = build_instance(n, edges)
    P, Q = build_P(g), build_P_quotient(g)
    basis = _orbit_basis(g, P.complement.edges)
    dense = P.dense()
    projected = basis.T @ dense @ basis
    size = Q.orbit_sizes.size
    assert basis.shape == (P.num_edges, size) and Q.num_edges == P.num_edges
    assert np.array_equal(np.count_nonzero(basis, axis=0), Q.orbit_sizes)
    assert np.abs(Q.matvec(np.eye(size)) - projected).max() <= 1e-15
    assert np.abs(dense @ basis - basis @ projected).max() <= 1e-15
    assert np.abs(basis.T @ P.uniform - Q.uniform).max() <= 1e-15
    # orbit values: the edge vector is the plain indicators times x
    x = np.random.default_rng(n).normal(size=size)
    edge_vector = (basis > 0) @ x
    assert np.abs((basis > 0) @ Q.orbit_matvec(x) - dense @ edge_vector).max() <= 1e-15


def test_quotient_check_sees_a_dropped_pair(monkeypatch):
    g = build_instance(7, cycle_edges(4))

    def short_pairs(marked):
        return real_pairs(marked)[1:]

    # one vertex too many in the rest cell: the orbits at it grow, and the
    # degrees they give no longer match the diagonal of N N^T
    def one_more(s, t):
        sizes = real_sizes(s, t)
        sizes[s:] += 1
        return sizes

    real_pairs, real_sizes = operators.unmarked_pairs, operators.cell_sizes
    for name, fake in (("unmarked_pairs", short_pairs), ("cell_sizes", one_more)):
        with monkeypatch.context() as patch:
            patch.setattr(operators, name, fake)
            with pytest.raises(
                AssertionError, match="edge orbits disagree with the incidence identity"
            ):
                build_P_quotient(g)
    build_P_quotient(g)


def test_quotient_rejects_a_vector_of_another_length():
    Q = build_P_quotient(build_instance(9, path_edges(2)))
    assert Q.orbit_sizes.tolist() == [1, 7, 7, 7, 21]
    with pytest.raises(DimensionMismatch):
        Q.matvec(np.zeros(6))


def test_quotient_empty_complement():
    full = [(u, v) for u in range(3) for v in range(u + 1, 3)]
    with pytest.raises(EmptyComplement):
        build_P_quotient(build_instance(2, full))


def test_quotient_builds_nothing_of_host_size():
    # O(s^2 + r): at n = 10^6, five orbits and a few kilobytes
    g = build_instance(10**6, path_edges(2))
    tracemalloc.start()
    try:
        Q = build_P_quotient(g)
        Q.matvec(Q.uniform)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Q.orbit_sizes.size == 5 and Q.num_edges == 10**6 * (10**6 + 1) // 2 - 2
    assert peak <= 2**16
