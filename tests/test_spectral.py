"""Eigensolving fixtures, principal-pair conventions, and the lifting."""

import tracemalloc
from dataclasses import replace

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
    line_principal_pair,
    path_edges,
    principal_pair,
    quotient_eigh,
    spectral_mapping_check,
    star_edges,
)
from edgewalk.edge_space import LineTransitionMatrix
from edgewalk.errors import DegenerateSpectrum, NotSymmetric, TooLarge
from edgewalk.operators import VertexMatrix
from edgewalk.spectral import (
    DEGENERACY_TOL,
    d_star_apply,
    principal_vector,
    quotient_spectrum,
    summarize_spectrum,
)
from spectral_oracle import reference_overlap

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


def test_summary_holds_a_positive_angle():
    # every reader of theta_max divides by it: a summary refuses 0 itself
    summary = principal_pair(build_T(build_instance(5, [(0, 1)])))
    assert summary.theta_max > 0.0
    with pytest.raises(DegenerateSpectrum):
        replace(summary, theta_max=0.0)


def test_principal_pair_refuses_lost_digits():
    # one edge at n = 2 * 10^6: 1 - lambda_max(T) is about 4/n^2 = 1e-12,
    # which float64 no longer resolves; the edge does not span the host, so
    # lambda_max < 1 and the closeness is lost precision, not degeneracy
    with pytest.raises(TooLarge, match=r"^n = 2000000: lambda_max\(T\) = 0\.9999"):
        principal_pair(build_T(build_instance(2 * 10**6, [(0, 1)])))
    # a dense eigendecomposition is read with t = 0, where it is degeneracy
    with pytest.raises(DegenerateSpectrum):
        summarize_spectrum(np.array([1.0 - 1e-13, 0.0]), np.eye(2))


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


def test_mapping_check_reads_the_quotient_spectrum():
    # the eigenvalues it lifts and those it sets aside at +-1 are, in order
    # and bit for bit, those of quotient_eigh, the dense oracle
    rng = np.random.default_rng(30)
    graphs = [build_instance(4, K5_EDGES)]
    for n in rng.integers(3, 9, size=12):
        pairs = [(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]
        picked = rng.choice(len(pairs), size=rng.integers(1, 5), replace=False)
        graphs.append(build_instance(int(n), [pairs[i] for i in picked]))
    for g in graphs:
        report = spectral_mapping_check(g)
        values = quotient_eigh(build_T(g))[0]
        unit = np.abs(values) >= 1.0 - DEGENERACY_TOL
        assert [entry[0] for entry in report.entries] == list(values[~unit])
        assert list(report.excluded) == list(values[unit])


def test_mapping_check_excludes_unit_eigenvalue():
    g = build_instance(2, [(0, 1), (1, 2)])  # spanning complete bipartite
    report = spectral_mapping_check(g)
    assert any(abs(lam - 1.0) <= 1e-10 for lam in report.excluded)
    assert report.ok


def test_line_principal_pair_dense_vs_iterative():
    g = build_instance(24, [(0, 1), (2, 3)])
    P = build_P(g)
    values, vectors = eigh(P.dense())
    lam_dense, vec_dense = values[0], principal_vector(values, vectors)
    lam_iter, vec_iter = line_principal_pair(P)
    assert lam_iter == pytest.approx(lam_dense, abs=1e-10)
    assert np.abs(np.abs(vec_dense @ vec_iter) - 1.0) <= 1e-8


def _top_companion_value(P):
    # lambda_max(P) = lambda_max(Q): the spectra differ only at -1/(n-1)
    return eigh(P.q_matrix.matrix)[0][0]


@pytest.mark.parametrize("n,edges", [(300, path_edges(2)), (384, path_edges(1))])
def test_line_lanczos_matvec_budget(monkeypatch, n, edges):
    # The uniform start spans a Krylov space of a few dimensions, so the
    # three-vector Lanczos workspace converges in a handful of products.
    P = build_P(build_instance(n, edges))
    calls = []
    real_matvec = LineTransitionMatrix.matvec

    def counting(self, x):
        calls.append(1)
        return real_matvec(self, x)

    monkeypatch.setattr(LineTransitionMatrix, "matvec", counting)
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
    lam, vec = line_principal_pair(P)
    assert abs(lam - _top_companion_value(P)) <= 1e-13
    assert np.linalg.norm(P.matvec(vec) - lam * vec) <= 1e-13


def _vertex_matrices(g):
    """T, Y, Z, Q and G of an instance, as the package builds them."""
    n = g.n
    return {
        "T": build_T(g),
        "Y": VertexMatrix(g, -1, -n),
        "Z": VertexMatrix(g, 0, -n, degree=-1),
        "Q": VertexMatrix(g, 0, n - 2, degree=-1, divisor=2 * (n - 1)),
        "G": VertexMatrix(g, 0, n, degree=-1),
    }


def _assert_matches_full_eigh(matrix):
    values, vectors = quotient_eigh(matrix)
    full_values, full_vectors = eigh(matrix.matrix)
    scale = max(1.0, float(np.abs(full_values).max()))
    assert np.all(np.diff(values) <= 0.0)
    assert np.abs(values - full_values).max() <= 1e-13 * scale
    assert np.abs(matrix.matrix @ vectors - vectors * values).max() <= 1e-13 * scale
    identity = np.eye(len(values))
    assert np.abs(vectors.T @ vectors - identity).max() <= 1e-13
    principal = principal_vector(values, vectors)
    assert np.abs(principal - principal_vector(full_values, full_vectors)).max() <= 1e-12
    assert abs(quotient_spectrum(matrix).lambda_max - full_values[0]) <= 1e-13 * scale


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
        _assert_matches_full_eigh(matrix)


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
        _assert_matches_full_eigh(matrix)


@pytest.mark.parametrize("divisor", [0, -1, -6])
def test_vertex_matrix_refuses_a_divisor_that_is_not_positive(divisor):
    # off = 1/divisor > 0 puts the quotient's rest diagonal beta + t off
    # above beta, so the top eigenspace is never zero-sum on the rest
    g = build_instance(5, path_edges(1))
    with pytest.raises(ValueError, match="divisor must be positive"):
        VertexMatrix(g, -1, 0, divisor=divisor)


def test_a_spectrum_chooses_its_principal_vector_once_and_read_only():
    # summary() hands out the cached vector itself, so neither it nor the
    # uniform vector may be written through
    spectrum = quotient_spectrum(build_T(build_instance(20, path_edges(3))))
    assert spectrum.summary().principal is spectrum.principal
    for vector in (spectrum.principal, spectrum.uniform):
        with pytest.raises(ValueError, match="read-only"):
            vector[0] = 0.0


PAIR_FAMILIES = {
    "edge": lambda k: [(0, 1)],
    "path": path_edges,
    "matching": matching_edges,
    "star": star_edges,
    "cycle": lambda k: cycle_edges(k + 2),
}


@pytest.mark.parametrize("family", sorted(PAIR_FAMILIES))
@settings(max_examples=8, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_spectrum_matches_its_dense_lift(family, data):
    # the spectrum kept on the quotient against quotient_eigh's dense lift
    # and against eigh of the dense matrix, for T, Y, Z, Q and G
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(12, 400), label="n")
    seed = data.draw(st.integers(0, 2**32 - 1), label="placement")
    labels = np.random.default_rng(seed).permutation(n + 1)
    edges = [(int(labels[u]), int(labels[v])) for u, v in PAIR_FAMILIES[family](k)]
    g = build_instance(n, edges)
    order = n + 1
    for name, matrix in _vertex_matrices(g).items():
        spectrum = quotient_spectrum(matrix)
        values, vectors = quotient_eigh(matrix)
        full_values = eigh(matrix.matrix)[0]
        scale = max(1.0, float(np.abs(full_values).max()))
        assert np.array_equal(spectrum.descending(), values), name
        assert np.array_equal(spectrum.descending(2), values[:2]), name
        assert spectrum.lambda_max == values[0], name
        assert np.array_equal(np.unique(spectrum.distinct), np.unique(values)), name
        assert np.abs(values - full_values).max() <= 1e-13 * scale, name
        # the principal vector and ||f - j||^2 in the symmetric coordinates
        f = spectrum.principal
        dense_f = principal_vector(values, vectors)
        assert np.abs(spectrum.lift(f) - dense_f).max() <= 1e-13, name
        j = np.full(order, 1.0 / np.sqrt(order))
        assert np.abs(spectrum.lift(spectrum.uniform) - j).max() <= 1e-16, name
        dense_distance = float(np.sum((dense_f - j) ** 2))
        distance = float(np.sum((f - spectrum.uniform) ** 2))
        assert abs(distance - dense_distance) <= 1e-12 * dense_distance, name
    T = build_T(g)
    summary = quotient_spectrum(T).summary()
    dense = summarize_spectrum(*quotient_eigh(T))
    assert np.array_equal(summary.eigenvalues, dense.eigenvalues)
    assert np.abs(summary.f - dense.f).max() <= 4 * np.finfo(float).eps
    # the overlap read on the quotient against a 50-digit eigensolve of the
    # same float64 quotient: the squared norm of the uniform vector's
    # projection onto the top eigenspace (the dense lift's overlap was up
    # to 2.3e-15 off)
    assert abs(summary.overlap - reference_overlap(T)) <= 1e-15


# at n = 10^6 lambda_max rounds to an ulp or two below cor_T.lower
@pytest.mark.parametrize("n,rounding", [(2000, 0.0), (10**6, 2**-52)])
def test_principal_pair_memory_is_independent_of_n(n, rounding):
    # the summary is a view on the order-(s+1) quotient: nothing of order
    # n + 1 is allocated until f or the eigenvalues are read
    tracemalloc.start()
    try:
        summary = principal_pair(build_T(build_instance(n, [(0, 1)])))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**10
    assert 1 - 4 / (n * (n + 1)) - rounding <= summary.lambda_max < 1
    assert summary.eigenvalues.shape == summary.f.shape == (n + 1,)
    assert summary.eigenvalues[0] == summary.lambda_max
    # f in canonical order: the block, then the rest value t = n - 1 times
    assert np.array_equal(summary.f[:2], summary.principal[:2])
    assert np.all(summary.f[2:] == summary.principal[2] / np.sqrt(n - 1))
