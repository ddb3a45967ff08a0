"""The matrix-free line-kernel path against its dense oracles on every
instance of K_3, K_4 and K_5, the orbit quotient and the vertex-space t_c
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
    cycle_edges,
    eigh,
    hitting_time,
    line_principal_pair,
)
from edgewalk import spectral
from edgewalk.bounds import _pq_spectra_mismatch
from edgewalk.classical_search import solve_absorption
from edgewalk.errors import NoConvergence
from edgewalk.spectral import principal_vector
from pq_oracle import companion_eigendata, companion_spectrum, dense_pq_mismatch

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
    # and the pq_spectra certificate and the full multiset comparison
    # against each other
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
        companion = companion_spectrum(g)
        assert _pq_spectra_mismatch(P, lam, companion) <= 64 * EPS
        assert dense_pq_mismatch(P, q_values) <= 64 * EPS
        # the same eigensolver on the orbit quotient
        Q = build_P_quotient(g)
        lam_q, f_q = line_principal_pair(Q)
        assert abs(lam_q - lam) <= 16 * EPS
        assert abs((Q.uniform @ f_q) ** 2 - (P.uniform @ f) ** 2) <= 16 * EPS
        assert _pq_spectra_mismatch(Q, lam_q, companion) <= 64 * EPS
        seen += 1
    assert seen == count


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

    monkeypatch.setattr(spectral.spla, "eigsh", fail)
    with pytest.raises(NoConvergence):
        line_principal_pair(build_P(build_instance(3, [(0, 1)])))
