"""Walk simulation: series values, searching time, rotation diagnostics."""

import numpy as np
import pytest

from edgewalk import (
    asymptotic_diagnostics,
    build_instance,
    build_T,
    build_U_dense,
    evolve_state,
    finding_probability,
    initial_state,
    path_edges,
    principal_pair,
    quantum_time,
    run_series,
)
from edgewalk.errors import DimensionMismatch

K5_EDGES = [(0, 1), (1, 2), (2, 3)]


def test_initial_state_values():
    g = build_instance(99, [(0, 1)])
    psi = initial_state(g)
    assert np.all(psi == 1 / np.sqrt(9900))
    assert finding_probability(g, psi) == pytest.approx(2 / 9900, abs=1e-15)


def test_initial_probability_k5():
    g = build_instance(4, K5_EDGES)
    assert finding_probability(g, initial_state(g)) == pytest.approx(0.3, abs=1e-15)


def test_initial_probability_p3():
    g = build_instance(99, path_edges(2))
    assert finding_probability(g, initial_state(g)) == pytest.approx(
        4 / 9900, abs=1e-12
    )


def test_finding_probability_concentrated():
    g = build_instance(5, [(0, 1)])
    psi = np.zeros(g.num_arcs)
    psi[g.arcs.index(0, 1)] = 1.0
    assert finding_probability(g, psi) == 1.0
    psi = np.zeros(g.num_arcs)
    psi[g.arcs.index(2, 3)] = 1.0
    assert finding_probability(g, psi) == 0.0
    with pytest.raises(DimensionMismatch):
        finding_probability(g, np.zeros(3))


def test_evolve_state_validates_input():
    g = build_instance(3, [(0, 1)])
    with pytest.raises(DimensionMismatch):
        evolve_state(g, np.zeros(3), 0)
    with pytest.raises(ValueError):
        evolve_state(g, initial_state(g), -1)


@pytest.mark.parametrize(
    "n,edges,expected",
    [(2, [(0, 1)], 1), (99, path_edges(1), 55), (99, path_edges(3), 32)],
)
def test_quantum_time(n, edges, expected):
    summary = principal_pair(build_T(build_instance(n, edges)))
    assert quantum_time(summary) == expected


def test_series_start_value_closed_form():
    g = build_instance(30, [(0, 1), (5, 6)])
    series = run_series(g, 5)
    assert series.fp[0] == pytest.approx(2 * 2 / (30 * 31), abs=1e-15)


def test_series_deterministic():
    g = build_instance(25, [(0, 1), (1, 2)])
    a = run_series(g, 40)
    b = run_series(g, 40)
    assert np.array_equal(a.fp, b.fp)


def test_series_probabilities_in_range():
    series = run_series(build_instance(15, [(0, 1)]), 60)
    assert np.all(series.fp >= 0.0) and np.all(series.fp <= 1.0)


def test_series_degenerate_still_produced():
    series = run_series(build_instance(2, [(0, 1), (1, 2)]), 10)
    assert series.degenerate
    assert series.t_f is None and series.fp_at_tf is None
    assert series.fp.shape == (11,)


def test_norm_conservation_long_run():
    from edgewalk import apply_U

    g = build_instance(10, [(0, 1), (2, 3)])
    psi = initial_state(g)
    for _ in range(10_000):
        psi = apply_U(g, psi)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10


def test_series_matches_dense_eigendecomposition():
    # FP(t) through the dense walk spectrum agrees with the sequential walk
    g = build_instance(4, K5_EDGES)
    series = run_series(g, 30)
    U = build_U_dense(g)
    values, vectors = np.linalg.eig(U)
    coeffs = np.linalg.solve(vectors, initial_state(g))
    for t in range(31):
        psi_t = vectors @ (values**t * coeffs)
        fp = float(np.sum(np.abs(psi_t[g.marked_arcs]) ** 2))
        assert fp == pytest.approx(series.fp[t], abs=1e-8)


def test_diagnostics_k100_single_edge():
    d = asymptotic_diagnostics(build_instance(99, path_edges(1)))
    assert d.t_f == 55
    assert d.hyp_half and not d.hyp_small
    by_name = {c.name: c for c in d.checks}
    assert by_name["rotation_gap"].passed
    assert by_name["rotation_gap_spectral"].passed
    start = by_name["start_gap"]
    assert start.passed
    assert start.bound == pytest.approx(
        (12 + 8 * np.sqrt(2)) / (100 * 98), rel=1e-12
    )
    assert by_name["fp_lower"].passed is None  # gated by 66s <= n+3


def test_diagnostics_all_bounds_at_large_n():
    d = asymptotic_diagnostics(build_instance(260, [(0, 1)]))
    assert d.hyp_half and d.hyp_ratio and d.hyp_small
    assert d.all_passed
    assert all(c.passed for c in d.checks)


@pytest.mark.parametrize("seed", range(5))
def test_rotation_gap_spectral_bound_random(seed):
    # ||U^tf(i b-) - (-b+)||^2 <= 4 (1 - lambda_max) whenever theta > 0
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    pairs = [(u, v) for u in range(n + 1) for v in range(u + 1, n + 1)]
    chosen = rng.choice(len(pairs), size=int(rng.integers(1, 5)), replace=False)
    g = build_instance(n, [pairs[i] for i in chosen])
    d = asymptotic_diagnostics(g)
    assert d.rotation_gap_sq <= 4 * (1 - d.lambda_max) + 1e-12
