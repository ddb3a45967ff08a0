"""Eigensolving fixtures, principal-pair conventions, and the lifting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import (
    apply_U,
    build_instance,
    build_P,
    build_T,
    build_U_dense,
    complete_bipartite_edges,
    cycle_edges,
    eigh,
    lift_eigenvectors,
    matching_edges,
    operators,
    line_principal_pair,
    path_edges,
    principal_pair,
    quotient_eigh,
    spectral_mapping_check,
    star_edges,
)
from edgewalk.errors import DegenerateSpectrum, NotSymmetric
from edgewalk.spectral import d_star_apply, principal_vector

K5_EDGES = [(0, 1), (1, 2), (2, 3)]


def test_eigh_identity():
    values, _ = eigh(np.eye(3))
    assert np.allclose(values, [1, 1, 1])


def test_eigh_all_ones():
    values, vectors = eigh(np.ones((3, 3)))
    assert np.allclose(values, [3, 0, 0], atol=1e-12)
    assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-12)


def test_eigh_triangle_T():
    T = build_T(build_instance(2, [(0, 1)]))
    values, vectors = eigh(T.matrix)
    assert np.allclose(values, [0.5, 0.5, -1.0], atol=1e-12)
    residual = T.matrix @ vectors - vectors * values
    assert np.abs(residual).max() <= 1e-10


def test_eigh_not_symmetric():
    with pytest.raises(NotSymmetric):
        eigh(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetric):
        eigh(np.zeros((2, 3)))


def test_eigh_residuals_random():
    rng = np.random.default_rng(8)
    for n in (5, 20, 60):
        a = rng.normal(size=(n, n))
        m = (a + a.T) / 2
        values, vectors = eigh(m)
        assert np.all(np.diff(values) <= 1e-12)
        scale = max(1.0, np.abs(values).max())
        assert np.abs(m @ vectors - vectors * values).max() <= 1e-10 * scale
        assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-10


def test_principal_pair_triangle():
    summary = principal_pair(build_T(build_instance(2, [(0, 1)])))
    assert summary.lambda_max == pytest.approx(0.5, abs=1e-12)
    assert summary.theta_max == pytest.approx(np.pi / 3, abs=1e-12)
    assert summary.f @ np.full(3, 1 / np.sqrt(3)) >= 0


def test_principal_pair_degenerate():
    with pytest.raises(DegenerateSpectrum):
        principal_pair(build_T(build_instance(2, [(0, 1), (1, 2)])))


def test_principal_pair_k100_single_edge():
    T = build_T(build_instance(99, [(0, 1)]))
    summary = principal_pair(T)
    assert 1 - 4 / 9900 <= summary.lambda_max < 1
    assert int(np.floor(np.pi / (2 * summary.theta_max))) == 55


def test_principal_pair_residual_and_trace():
    g = build_instance(12, [(0, 1), (1, 2), (5, 6)])
    T = build_T(g)
    summary = principal_pair(T)
    assert abs(np.linalg.norm(summary.f) - 1.0) <= 1e-12
    residual = T.matrix @ summary.f - summary.lambda_max * summary.f
    assert np.linalg.norm(residual) <= 1e-10
    assert abs(summary.eigenvalues.sum()) <= 1e-10


def test_principal_vector_maximizes_overlap():
    # triangle with one marked edge: the top eigenvalue is double, and the
    # projection of the uniform vector beats any other eigenspace member
    T = build_T(build_instance(2, [(0, 1)]))
    values, vectors = eigh(T.matrix)
    f = principal_vector(values, vectors)
    j = np.full(3, 1 / np.sqrt(3))
    basis = vectors[:, :2]
    rng = np.random.default_rng(3)
    for _ in range(50):
        coeffs = rng.normal(size=2)
        v = basis @ coeffs
        v /= np.linalg.norm(v)
        assert (f @ j) ** 2 >= (v @ j) ** 2 - 1e-12


@pytest.mark.parametrize(
    "n,edges",
    [(2, [(0, 1)]), (4, K5_EDGES), (7, [(0, 3), (3, 5), (1, 2)])],
)
def test_lift_eigenvector_residual(n, edges):
    g = build_instance(n, edges)
    summary = principal_pair(build_T(g))
    lifted = lift_eigenvectors(g, summary)
    for phi, phase in (
        (lifted.phi_plus, np.exp(1j * summary.theta_max)),
        (lifted.phi_minus, np.exp(-1j * summary.theta_max)),
    ):
        assert abs(np.linalg.norm(phi) - 1.0) <= 1e-10
        assert np.linalg.norm(apply_U(g, phi) - phase * phi) <= 1e-10
    for beta in (lifted.beta_plus, lifted.beta_minus):
        assert abs(np.linalg.norm(beta) - 1.0) <= 1e-10
    assert np.abs(lifted.beta_plus.imag).max() <= 1e-12
    assert np.abs((1j * lifted.beta_minus).imag).max() <= 1e-12


def test_lift_beta_minus_is_swapped_base():
    # i beta_- equals the swap of d* f, a real unit vector
    g = build_instance(2, [(0, 1)])
    summary = principal_pair(build_T(g))
    lifted = lift_eigenvectors(g, summary)
    swapped = d_star_apply(g, summary.f)[g.arcs.inverse_index]
    assert np.abs(1j * lifted.beta_minus - swapped).max() <= 1e-12
    assert abs(np.linalg.norm(swapped) - 1.0) <= 1e-12


def test_mapping_check_triangle():
    g = build_instance(2, [(0, 1)])
    report = spectral_mapping_check(g)
    assert report.ok
    lams = [entry[0] for entry in report.entries]
    assert lams == pytest.approx([0.5, 0.5], abs=1e-12)
    # the walk spectrum also contains -1, outside the lifted range
    walk_values = np.linalg.eigvals(build_U_dense(g))
    assert np.min(np.abs(walk_values + 1.0)) <= 1e-10
    assert report.excluded == pytest.approx([-1.0], abs=1e-10)


def test_mapping_check_k5():
    assert spectral_mapping_check(build_instance(4, K5_EDGES)).ok


def test_mapping_check_excludes_unit_eigenvalue():
    g = build_instance(2, [(0, 1), (1, 2)])  # spanning complete bipartite
    report = spectral_mapping_check(g)
    assert any(abs(lam - 1.0) <= 1e-10 for lam in report.excluded)
    assert report.ok


def test_line_principal_pair_dense_vs_iterative(monkeypatch):
    g = build_instance(24, [(0, 1), (2, 3)])
    P = build_P(g)
    lam_dense, vec_dense = line_principal_pair(P)
    monkeypatch.setattr(operators, "DENSE_LINE_LIMIT", 0)
    lam_iter, vec_iter = line_principal_pair(P)
    assert lam_iter == pytest.approx(lam_dense, abs=1e-10)
    assert np.abs(np.abs(vec_dense @ vec_iter) - 1.0) <= 1e-8


def _top_companion_value(P):
    # lambda_max(P) = lambda_max(Q): the spectra differ only at -1/(n-1)
    return eigh(P.q_matrix)[0][0]


@pytest.mark.parametrize("n,edges", [(300, path_edges(2)), (384, path_edges(1))])
def test_line_lanczos_matvec_budget(monkeypatch, n, edges):
    # The uniform start spans a Krylov space of a few dimensions, so the
    # three-vector Lanczos workspace converges in a handful of products.
    monkeypatch.setattr(operators, "DENSE_LINE_LIMIT", 0)
    P = build_P(build_instance(n, edges))
    calls = []
    real_matvec = operators.LineTransitionMatrix.matvec

    def counting(self, x):
        calls.append(1)
        return real_matvec(self, x)

    monkeypatch.setattr(operators.LineTransitionMatrix, "matvec", counting)
    lam, _ = line_principal_pair(P)
    assert len(calls) <= 8
    assert abs(lam - _top_companion_value(P)) <= 1e-13


LINE_FAMILIES = {
    "edge": lambda draw: path_edges(1),
    "path": lambda draw: path_edges(draw(st.integers(1, 7), label="k")),
    "matching": lambda draw: matching_edges(draw(st.integers(1, 4), label="k")),
    "star": lambda draw: star_edges(draw(st.integers(1, 7), label="k")),
    "cycle": lambda draw: cycle_edges(draw(st.integers(3, 8), label="k")),
    "random": lambda draw: _random_edges(draw),
}


def _random_edges(draw):
    size = draw(st.integers(2, 8), label="vertices")
    pairs = [(i, k) for i in range(size) for k in range(i + 1, size)]
    keep = draw(
        st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs))
        .filter(any),
        label="keep",
    )
    return [p for p, kept in zip(pairs, keep) if kept]


@pytest.mark.parametrize("family", sorted(LINE_FAMILIES))
@settings(max_examples=5, deadline=None, derandomize=True)
@given(data=st.data())
def test_line_lanczos_matches_companion(family, data):
    n = data.draw(st.integers(64, 300), label="n")
    edges = LINE_FAMILIES[family](data.draw)
    used = 1 + max(max(e) for e in edges)
    labels = data.draw(
        st.lists(st.integers(0, n), min_size=used, max_size=used, unique=True),
        label="labels",
    )
    P = build_P(build_instance(n, [(labels[u], labels[v]) for u, v in edges]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "DENSE_LINE_LIMIT", 0)
        lam, vec = line_principal_pair(P)
    assert abs(lam - _top_companion_value(P)) <= 1e-13
    assert np.linalg.norm(P.matvec(vec) - lam * vec) <= 1e-13


def _vertex_matrices(g):
    """T, Y, Z and Q of an instance, all in canonical order."""
    n, order = g.n, g.n + 1
    adj = g.marked_matrix.astype(np.float64)
    base = np.ones((order, order)) - order * np.eye(order)
    z = base - adj - np.diag(g.gamma_degrees)
    return {
        "T": build_T(g).matrix,
        "Y": base - 2.0 * adj,
        "Z": z,
        "Q": z / (2.0 * (n - 1)) + np.eye(order),
    }


def _assert_matches_full_eigh(matrix, s):
    values, vectors = quotient_eigh(matrix, s)
    full_values, full_vectors = eigh(matrix)
    scale = max(1.0, float(np.abs(full_values).max()))
    assert np.all(np.diff(values) <= 0.0)
    assert np.abs(values - full_values).max() <= 1e-13 * scale
    assert np.abs(matrix @ vectors - vectors * values).max() <= 1e-13 * scale
    identity = np.eye(len(values))
    assert np.abs(vectors.T @ vectors - identity).max() <= 1e-13
    principal = principal_vector(values, vectors)
    assert np.abs(principal - principal_vector(full_values, full_vectors)).max() <= 1e-12


QUOTIENT_FAMILIES = {
    "path": lambda draw, n: path_edges(draw(st.integers(1, min(n, 9)), label="k")),
    "star": lambda draw, n: star_edges(draw(st.integers(1, min(n, 9)), label="k")),
    "matching": lambda draw, n: matching_edges(
        draw(st.integers(1, min((n + 1) // 2, 5)), label="k")
    ),
    "cycle": lambda draw, n: cycle_edges(draw(st.integers(3, min(n + 1, 9)), label="k")),
    "complete_bipartite": lambda draw, n: complete_bipartite_edges(
        *draw(
            st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(
                lambda ab: sum(ab) <= n + 1
            ),
            label="a,b",
        )
    ),
}


@pytest.mark.parametrize("family", sorted(QUOTIENT_FAMILIES))
@settings(max_examples=15, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_eigh_matches_full_eigh(family, data):
    n = data.draw(st.integers(2, 400), label="n")
    edges = QUOTIENT_FAMILIES[family](data.draw, n)
    used = 1 + max(max(e) for e in edges)
    labels = data.draw(
        st.lists(st.integers(0, n), min_size=used, max_size=used, unique=True),
        label="labels",
    )
    g = build_instance(n, [(labels[u], labels[v]) for u, v in edges])
    for matrix in _vertex_matrices(g).values():
        _assert_matches_full_eigh(matrix, g.s)


@pytest.mark.parametrize(
    "n,edges,t",
    [
        (2, cycle_edges(3), 0),  # K_3 fully marked
        (3, complete_bipartite_edges(2, 2) + [(0, 1), (2, 3)], 0),  # K_4 fully marked
        (3, complete_bipartite_edges(2, 2), 0),  # spanning K_{2,2}
        (4, path_edges(3), 1),
        (2, [(0, 1)], 1),
        (5, path_edges(3), 2),
        (3, [(0, 1)], 2),
    ],
)
def test_quotient_eigh_small_rest_cells(n, edges, t):
    g = build_instance(n, edges)
    assert g.t == t
    for matrix in _vertex_matrices(g).values():
        _assert_matches_full_eigh(matrix, g.s)


def test_quotient_eigh_rejects_a_broken_rest_pattern():
    g = build_instance(8, path_edges(2))
    s = g.s
    matrix = np.array(build_T(g).matrix)
    quotient_eigh(matrix, s)
    off_pattern = matrix.copy()
    off_pattern[s + 1, s + 2] = off_pattern[s + 2, s + 1] = 0.5
    uneven_column = matrix.copy()
    uneven_column[0, s + 1] = uneven_column[s + 1, 0] = 0.5
    asymmetric = matrix.copy()
    asymmetric[s + 1, 0] = 0.5
    for broken in (off_pattern, uneven_column, asymmetric):
        with pytest.raises(ValueError):
            quotient_eigh(broken, s)
    # the marked block does not have the pattern either
    with pytest.raises(ValueError):
        quotient_eigh(matrix, s - 1)
