"""The matrix-free line-kernel path against its dense oracles on every
instance of K_3, K_4 and K_5 and on every disconnected complement in K_6,
the orbit quotient, the Collatz-Wielandt bracket and the vertex-space t_c
against that edge-space path, and their two degenerate kernels: P = 0 and
a single unmarked edge."""

import itertools

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from edgewalk import (
    build_instance,
    build_P,
    build_P_quotient,
    complete_bipartite_edges,
    cycle_edges,
    eigh,
    hitting_time,
    line_principal_pair,
    matching_edges,
)
from edgewalk import edge_space, spectral
from edgewalk.bounds import _pq_spectra_mismatch
from edgewalk.edge_space import solve_absorption
from edgewalk.errors import NoConvergence
from edgewalk.operators import LineQuotientMatrix
from edgewalk.spectral import companion_spectra, line_bracket, principal_vector
from pq_oracle import (
    companion_closed_form,
    companion_eigendata,
    dense_pq_mismatch,
    same_bits,
)

EPS = np.finfo(float).eps


def _marked_sets(n):
    """Every nonempty set of edges of K_{n+1} that leaves an edge unmarked."""
    host = list(itertools.combinations(range(n + 1), 2))
    for mask in range(1, 2 ** len(host) - 1):
        yield [edge for i, edge in enumerate(host) if mask >> i & 1]


@pytest.mark.parametrize("n,count", [(2, 6), (3, 62), (4, 1022)])
def test_every_small_instance_matches_the_dense_oracles(n, count):
    # the principal pair against eigh + principal_vector (tied tops
    # included), t_c (edge-space CG and vertex path) against a dense solve,
    # the pq_spectra certificate and the full multiset comparison against
    # each other, the ledger's bracket on lambda_max(P), a complement of
    # several components included, against Lanczos, and either form's
    # companion, read off N N^T, against its closed form bit for bit
    seen = 0
    for edges in _marked_sets(n):
        g = build_instance(n, edges)
        P = build_P(g)
        dense = P.dense()
        values, vectors = eigh(dense)
        lam, f = line_principal_pair(P)
        assert abs(lam - values[0]) <= 16 * EPS
        assert np.abs(f - principal_vector(values, vectors)).max() <= 16 * EPS
        x, residual = solve_absorption(P)
        exact = np.linalg.solve(np.eye(P.num_edges) - dense, np.ones(P.num_edges))
        assert residual <= 1e-10
        assert abs(x.mean() - exact.mean()) <= 16 * EPS * exact.mean()
        assert abs(hitting_time(g).t_c - exact.mean()) <= 16 * EPS * exact.mean()
        q_values, _ = companion_eigendata(g)
        _, z_spectrum, companion = companion_spectra(g)
        assert _pq_spectra_mismatch(P, lam, companion) <= 64 * EPS
        assert dense_pq_mismatch(P, q_values) <= 64 * EPS
        # the same eigensolver on the orbit quotient
        Q = build_P_quotient(g)
        lam_q, f_q = line_principal_pair(Q)
        assert abs(lam_q - lam) <= 16 * EPS
        assert abs((Q.uniform @ f_q) ** 2 - (P.uniform @ f) ** 2) <= 16 * EPS
        assert _pq_spectra_mismatch(Q, lam_q, companion) <= 64 * EPS
        bracket = line_bracket(Q, z_spectrum)
        assert bracket.lower <= lam + 1e-15 and lam <= bracket.upper + 1e-15
        assert 0.0 <= bracket.upper - bracket.lower <= 1e-14
        assert bracket.lower <= bracket.value <= bracket.upper
        assert abs(bracket.overlap - (P.uniform @ f) ** 2) <= 1e-15
        closed_form = companion_closed_form(g)
        assert same_bits(P.q_matrix, closed_form) and same_bits(Q.q_matrix, closed_form)
        seen += 1
    assert seen == count


def _components(edges):
    """How many connected components the edges form."""
    label = {}

    def root(v):
        while label.setdefault(v, v) != v:
            v = label[v]
        return v

    for u, v in edges:
        label[root(u)] = root(v)
    return len({root(v) for v in label})


def test_k6_disconnected_complements_match_the_dense_oracle():
    # every marked set of K_6 whose unmarked edges fall apart: when the
    # uniform start lies in a multiple top eigenspace (two disjoint 2-paths
    # unmarked, lambda_max(P) = 1/8 twice) it is an eigenvector, and the
    # pair is (u^T P u, u), where Lanczos broke down and restarted from a
    # random vector, whose overlap could be 0 where the dense one is 1
    n, seen = 5, 0
    for edges in _marked_sets(n):
        unmarked = _complement_of(n, edges)
        if _components(unmarked) < 2:
            continue
        g = build_instance(n, edges)
        P = build_P(g)
        values, vectors = eigh(P.dense())
        overlap = (P.uniform @ principal_vector(values, vectors)) ** 2
        for kernel in (P, build_P_quotient(g)):
            lam, f = line_principal_pair(kernel)
            assert abs(lam - values[0]) <= 16 * EPS, edges
            assert abs((kernel.uniform @ f) ** 2 - overlap) <= 16 * EPS, edges
        seen += 1
    assert seen == 1030


def test_kernel_without_shared_endpoints_is_zero():
    # K_4 minus a 4-cycle leaves a perfect matching: P = 0, on which
    # ARPACK's Lanczos stops with error -9 (a zero starting residual)
    P = build_P(build_instance(3, cycle_edges(4)))
    assert P.num_edges == 2 and not P.dense().any()
    lam, f = line_principal_pair(P)
    assert lam == 0.0 and np.array_equal(f, np.full(2, 1 / np.sqrt(2)))
    x, residual = solve_absorption(P)
    assert np.array_equal(x, np.ones(2)) and residual == 0.0


def test_quotient_without_shared_endpoints_is_zero():
    # the same kernel on its orbits: t = 0, so the two edges are two orbits;
    # every first step is absorbed, and so t_c = 1 on the ledger's path
    g = build_instance(3, cycle_edges(4))
    Q = build_P_quotient(g)
    assert Q.num_edges == 2 and not Q.matvec(np.eye(2)).any()
    lam, f = line_principal_pair(Q)
    assert lam == 0.0 and np.array_equal(f, np.full(2, 1 / np.sqrt(2)))
    assert hitting_time(g).t_c == 1.0


def test_quotient_single_unmarked_edge():
    g = build_instance(2, [(0, 1), (1, 2)])
    Q = build_P_quotient(g)
    assert Q.num_edges == 1
    assert line_principal_pair(Q) == (0.0, np.ones(1))
    assert hitting_time(g).t_c == 1.0


def test_single_unmarked_edge():
    # K_3 minus a 2-path: CG takes one exact step and needs one more
    # iteration to see its zero residual
    P = build_P(build_instance(2, [(0, 1), (1, 2)]))
    assert P.num_edges == 1
    assert line_principal_pair(P) == (0.0, np.ones(1))
    x, residual = solve_absorption(P)
    assert np.array_equal(x, np.ones(1)) and residual == 0.0


def test_arpack_errors_are_no_convergence(monkeypatch):
    def fail(*args, **kwargs):
        raise spla.ArpackError(-9)

    monkeypatch.setattr(edge_space.spla, "eigsh", fail)
    with pytest.raises(NoConvergence):
        line_principal_pair(build_P(build_instance(3, [(0, 1)])))


def _complement_of(n, unmarked):
    """Every edge of K_{n+1} but ``unmarked``."""
    keep = {frozenset(edge) for edge in unmarked}
    host = itertools.combinations(range(n + 1), 2)
    return [edge for edge in host if frozenset(edge) not in keep]


@pytest.mark.parametrize(
    "n,edges,components",
    [
        # K_5 with a triangle and an edge unmarked (t = 0): lambda_max(P)
        # is the triangle's 1/4, the edge's block gives 0
        (4, _complement_of(4, [(0, 2), (2, 4), (0, 4), (1, 3)]), 2),
        # the same complement as a spanning K_{2,3}, in its own labels
        (4, complete_bipartite_edges(2, 3), 2),
        # a spanning K_{3,3}: two triangles, whose values tie
        (5, complete_bipartite_edges(3, 3), 2),
        # K_4 minus a 4-cycle: two single edges, P = 0
        (3, cycle_edges(4), 2),
        # K_3 minus a 2-path: one edge, beside a vertex that meets none
        (2, [(0, 1), (1, 2)], 1),
    ],
    ids=["triangle-plus-edge", "K23", "K33", "two-edges", "one-edge"],
)
def test_bracket_on_a_disconnected_complement(monkeypatch, n, edges, components):
    # t = 0 and the unmarked edges fall apart: each component's block of
    # N N^T, exact integers, is solved and bracketed, and the largest ends
    # are taken; the overlap sums over the components whose values tie at
    # the top, as Lanczos from the uniform start does
    solved = []

    def recording_eigh(matrix):
        solved.append(np.array(matrix))
        return eigh(matrix)

    g = build_instance(n, edges)
    assert g.t == 0
    P, Q = build_P(g), build_P_quotient(g)
    cells, orbits = Q.components()
    assert cells.max() + 1 == components
    assert np.array_equal(orbits, cells[Q.pairs[:, 0]])
    values, vectors = eigh(P.dense())
    lam, f = line_principal_pair(P)
    companion = companion_spectra(g)[1]
    monkeypatch.setattr(spectral, "eigh", recording_eigh)
    bracket = line_bracket(Q, companion)
    assert len(solved) == (components if components > 1 else 0)
    assert all(np.array_equal(block, np.round(block)) for block in solved)
    assert abs(lam - values[0]) <= 16 * EPS
    assert bracket.lower <= values[0] + 1e-15 and values[0] <= bracket.upper + 1e-15
    assert 0.0 <= bracket.upper - bracket.lower <= 1e-15
    assert abs(bracket.value - values[0]) <= 1e-15
    assert abs(bracket.overlap - (P.uniform @ f) ** 2) <= 1e-15


@pytest.mark.parametrize("n", [99, 199])
def test_bracket_on_a_perfect_matching_against_exact_values(n):
    # t = 0 and the unmarked edges are regular of degree n - 1, so P has
    # constant row sums (n-2)/(n-1), its principal vector is uniform and the
    # overlap is 1; the sums over the C(n+1, 2) - (n+1)/2 orbits are taken
    # pairwise, where one running sum drifted by 2e-13 at n = 99
    g = build_instance(n, matching_edges((n + 1) // 2))
    assert g.t == 0
    bracket = line_bracket(build_P_quotient(g), companion_spectra(g)[1])
    exact = (n - 2) / (n - 1)
    assert bracket.lower <= exact + 1e-14 and exact <= bracket.upper + 1e-14
    assert 0.0 <= bracket.upper - bracket.lower <= 1e-14
    assert abs(bracket.value - exact) <= 1e-14
    assert abs(bracket.overlap - 1.0) <= 4 * EPS


def test_bracket_refuses_a_vector_that_is_not_positive(monkeypatch):
    # a companion vector with a zero entry lifts to an edge vector with a
    # zero entry, on which the Collatz-Wielandt bracket says nothing
    g = build_instance(7, cycle_edges(4))
    Q = build_P_quotient(g)

    def lift_with_a_zero(self, w):
        x = real_lift(self, w)
        x[0] = 0.0
        return x

    real_lift = LineQuotientMatrix.lift
    monkeypatch.setattr(LineQuotientMatrix, "lift", lift_with_a_zero)
    with pytest.raises(NoConvergence, match="not positive"):
        line_bracket(Q, companion_spectra(g)[1])
