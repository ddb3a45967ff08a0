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
    operators,
    path_edges,
    star_edges,
    verify_all,
)
from edgewalk.bounds import PQ_MATCH_TOL, _entry, _pq_spectra_mismatch
from edgewalk.operators import LineTransitionMatrix
from pq_oracle import companion_eigendata, lifted_pq_mismatch, z_matrix

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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "DENSE_LINE_LIMIT", 0)
        P = build_P(g)
        lam, _ = line_principal_pair(P)
        values, vectors = companion_eigendata(g)
        certificate = _pq_spectra_mismatch(P, lam, values, vectors)
        oracle = lifted_pq_mismatch(P, lam, values, vectors)
    assert abs(certificate - oracle) <= 1e-13
    assert certificate <= PQ_MATCH_TOL


@pytest.fixture(scope="module")
def line_instance():
    g = build_instance(300, path_edges(2))
    P = build_P(g)
    lam, _ = line_principal_pair(P)
    return g, P, lam


def _shift_lowest_value(values, vectors):
    values = values.copy()
    values[-1] += 1e-6
    return values, vectors


def _tilt_lowest_vector(values, vectors):
    # Mix in the top eigenvector, whose companion value differs by about 1/2.
    vectors = vectors.copy()
    tilted = vectors[:, -1] + 1e-3 * vectors[:, 0]
    vectors[:, -1] = tilted / np.linalg.norm(tilted)
    return values, vectors


@pytest.mark.parametrize(
    "corrupt", [_shift_lowest_value, _tilt_lowest_vector], ids=["value", "vector"]
)
def test_certificate_catches_a_wrong_pair(line_instance, corrupt):
    g, P, lam = line_instance
    assert not P.fits_dense
    values, vectors = companion_eigendata(g)
    assert _pq_spectra_mismatch(P, lam, values, vectors) <= 1e-13
    values, vectors = corrupt(values, vectors)
    certificate = _pq_spectra_mismatch(P, lam, values, vectors)
    oracle = lifted_pq_mismatch(P, lam, values, vectors)
    assert certificate >= 1e-7 and oracle >= 1e-7
    assert abs(certificate - oracle) <= 1e-13
    assert _entry("pq_spectra", "<=", certificate, PQ_MATCH_TOL).passed is False


def test_ledger_fails_pq_spectra_on_a_wrong_companion_value(monkeypatch):
    # Shift the lowest eigenvalue of Z by 2(n-1) * 1e-6, i.e. the companion
    # value by 1e-6: every other entry stays inside its bound.
    g = build_instance(300, path_edges(2))
    z = z_matrix(g)
    real_eigh = bounds.quotient_eigh

    def corrupted_eigh(matrix, s):
        values, vectors = real_eigh(matrix, s)
        if matrix.shape == z.shape and np.array_equal(matrix, z):
            values[-1] += 2.0 * (g.n - 1) * 1e-6
        return values, vectors

    monkeypatch.setattr(bounds, "quotient_eigh", corrupted_eigh)
    ledger = verify_all(g)
    assert [e.name for e in ledger.failures] == ["pq_spectra"]
    assert ledger.entry("pq_spectra").lhs >= 1e-7


def test_certificate_makes_no_edge_space_products(line_instance, monkeypatch):
    g, P, lam = line_instance
    values, vectors = companion_eigendata(g)

    def refuse(self, x):
        raise AssertionError("pq_spectra applied the line kernel")

    monkeypatch.setattr(LineTransitionMatrix, "matvec", refuse)
    assert _pq_spectra_mismatch(P, lam, values, vectors) <= 1e-13


def _narrow_products(array, columns):
    """A view of ``array`` whose products refuse a left operand with more
    than ``columns`` columns."""

    class NarrowProducts(np.ndarray):
        def __matmul__(self, other):
            if self.shape[-1] > columns:
                raise AssertionError(f"product with {self.shape[-1]} columns")
            return np.asarray(self) @ other

    return array.view(NarrowProducts)


def test_certificate_makes_no_vertex_sized_products(line_instance):
    # Q and G act through their first s columns and their constant rest
    # pattern: no order-(n+1) x order-(n+1) product
    g, P, lam = line_instance
    narrow = dataclasses.replace(
        P,
        q_matrix=_narrow_products(P.q_matrix, g.s),
        gram=_narrow_products(P.gram, g.s),
    )
    values, vectors = companion_eigendata(g)
    with pytest.raises(AssertionError):
        narrow.gram @ vectors
    assert _pq_spectra_mismatch(narrow, lam, values, vectors) <= 1e-13
