"""The vertex-space pq_spectra certificate against the edge-space lift
oracle, and its sensitivity to a wrong companion eigenpair."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import (
    bounds,
    build_instance,
    build_P,
    cycle_edges,
    line_principal_pair,
    matching_edges,
    path_edges,
    star_edges,
    verify_all,
)
from edgewalk.bounds import PQ_MATCH_TOL, _entry, _pq_spectra_mismatch
from edgewalk.operators import LineTransitionMatrix, VertexMatrix
from pq_oracle import (
    companion_spectrum,
    dense_eigendata,
    lifted_pq_mismatch,
    z_matrix,
)

FAMILIES = {
    "edge": lambda size: path_edges(1),
    "path": path_edges,
    "matching": matching_edges,
    "star": star_edges,
    "cycle": cycle_edges,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=4, deadline=None, derandomize=True)
@given(data=st.data())
def test_vertex_certificate_matches_lift_oracle(family, data):
    n = data.draw(st.integers(64, 400), label="n")
    size = data.draw(st.integers(3 if family == "cycle" else 1, 4), label="size")
    edges = FAMILIES[family](size)
    used = 1 + max(max(e) for e in edges)
    labels = data.draw(
        st.lists(st.integers(0, n), min_size=used, max_size=used, unique=True),
        label="labels",
    )
    g = build_instance(n, [(labels[u], labels[v]) for u, v in edges])
    P = build_P(g)
    lam, _ = line_principal_pair(P)
    spectrum = companion_spectrum(g)
    certificate = _pq_spectra_mismatch(P, lam, spectrum)
    oracle = lifted_pq_mismatch(P, lam, *dense_eigendata(spectrum))
    assert abs(certificate - oracle) <= 1e-13
    assert certificate <= PQ_MATCH_TOL


@pytest.fixture(scope="module")
def line_instance():
    g = build_instance(300, path_edges(2))
    P = build_P(g)
    lam, _ = line_principal_pair(P)
    return g, P, lam


def _shift_lowest_value(spectrum):
    values = spectrum.values.copy()
    values[-1] += 1e-6
    return dataclasses.replace(spectrum, values=values)


def _tilt_lowest_vector(spectrum):
    # Mix in the top eigenvector, whose companion value differs by about 1/2.
    vectors = spectrum.vectors.copy()
    tilted = vectors[:, -1] + 1e-3 * vectors[:, 0]
    vectors[:, -1] = tilted / np.linalg.norm(tilted)
    return dataclasses.replace(spectrum, vectors=vectors)


def _shift_beta(spectrum):
    # the value of the t - 1 zero-sum pairs on the rest, which the
    # certificate checks through one representative
    return dataclasses.replace(spectrum, beta=spectrum.beta + 1e-6)


@pytest.mark.parametrize(
    "corrupt",
    [_shift_lowest_value, _tilt_lowest_vector, _shift_beta],
    ids=["value", "vector", "beta"],
)
def test_certificate_catches_a_wrong_pair(line_instance, corrupt):
    g, P, lam = line_instance
    assert not P.fits_dense
    spectrum = companion_spectrum(g)
    assert _pq_spectra_mismatch(P, lam, spectrum) <= 1e-13
    spectrum = corrupt(spectrum)
    certificate = _pq_spectra_mismatch(P, lam, spectrum)
    oracle = lifted_pq_mismatch(P, lam, *dense_eigendata(spectrum))
    assert certificate >= 1e-7 and oracle >= 1e-7
    assert abs(certificate - oracle) <= 1e-13
    assert _entry("pq_spectra", "<=", certificate, PQ_MATCH_TOL).passed is False


def test_ledger_fails_pq_spectra_on_a_wrong_companion_value(monkeypatch):
    # Shift the lowest eigenvalue of Z's quotient by 2(n-1) * 1e-6, i.e. the
    # companion value by 1e-6: every other entry stays inside its bound.
    g = build_instance(300, path_edges(2))
    z = z_matrix(g)
    real_spectrum = bounds.quotient_spectrum

    def corrupted_spectrum(matrix):
        spectrum = real_spectrum(matrix)
        if matrix.order == len(z) and np.array_equal(matrix.matrix, z):
            values = spectrum.values.copy()
            values[-1] += 2.0 * (g.n - 1) * 1e-6
            spectrum = dataclasses.replace(spectrum, values=values)
        return spectrum

    monkeypatch.setattr(bounds, "quotient_spectrum", corrupted_spectrum)
    ledger = verify_all(g)
    assert [e.name for e in ledger.failures] == ["pq_spectra"]
    assert ledger.entry("pq_spectra").lhs >= 1e-7


def test_certificate_makes_no_edge_space_products(line_instance, monkeypatch):
    g, P, lam = line_instance
    spectrum = companion_spectrum(g)

    def refuse(self, x):
        raise AssertionError("pq_spectra applied the line kernel")

    monkeypatch.setattr(LineTransitionMatrix, "matvec", refuse)
    assert _pq_spectra_mismatch(P, lam, spectrum) <= 1e-13


def test_certificate_makes_no_vertex_sized_products(line_instance, monkeypatch):
    # Q and G act through their order-(s+1) quotient: their dense
    # order-(n+1) form is never built
    g, P, lam = line_instance
    spectrum = companion_spectrum(g)

    def refuse(self):
        raise AssertionError("pq_spectra built a dense vertex matrix")

    monkeypatch.setattr(VertexMatrix, "matrix", property(refuse))
    with pytest.raises(AssertionError):
        P.gram.matrix
    assert _pq_spectra_mismatch(P, lam, spectrum) <= 1e-13
