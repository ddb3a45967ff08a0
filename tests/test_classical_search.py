"""Hitting times: exact solves, the Monte-Carlo oracle, spectral brackets."""

import numpy as np
import pytest

from edgewalk import (
    build_instance,
    build_P,
    hitting_time,
    mc_hitting_time,
    verify_all,
)
from edgewalk.classical_search import solve_absorption
from edgewalk.errors import ZeroTrials
from mc_oracle import per_trial_generator_mc


def test_triangle_exact():
    result = hitting_time(build_instance(2, [(0, 1)]))
    assert result.t_c == pytest.approx(2.0, abs=1e-12)
    assert result.solver_residual <= 1e-10


def test_triangle_resolvent_matrix():
    P = build_P(build_instance(2, [(0, 1)]))
    inv = np.linalg.inv(np.eye(2) - P.dense())
    assert np.allclose(inv, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-14)


def test_k4_exact():
    result = hitting_time(build_instance(3, [(0, 1)]))
    assert result.t_c == pytest.approx(26 / 5, abs=1e-12)


def test_k100_single_edge_bracket():
    result = hitting_time(build_instance(99, [(0, 1)]))
    assert 101 * 99 / 2 - 4 <= result.t_c <= 101 * 99 + 4


def test_iterative_path_matches_dense():
    g = build_instance(40, [(0, 1), (2, 3)])
    P = build_P(g)
    assert P.fits_dense
    x_dense = np.linalg.solve(np.eye(P.num_edges) - P.dense(), np.ones(P.num_edges))
    x_cg, residual = solve_absorption(P)
    assert residual <= 1e-10
    assert abs(x_cg.mean() - x_dense.mean()) <= 1e-8 * x_dense.mean()


def test_large_instance_uses_cg():
    g = build_instance(128, [(0, 1)])
    P = build_P(g)
    assert not P.fits_dense
    result = hitting_time(g)
    assert result.solver_residual <= 1e-10
    assert 129 * 127 / 2 - 4 <= result.t_c <= 129 * 127 + 4


def test_hitting_time_above_dense_limit_n80():
    # 3239 unmarked edges: dense P would be refused, so the solve must not
    # ask for it
    g = build_instance(80, [(0, 1)])
    result = hitting_time(g)
    assert result.solver_residual <= 1e-10
    assert 81 * 79 / 2 - 4 <= result.t_c <= 81 * 79 + 4


def test_mc_matches_exact_triangle():
    mean, stderr = mc_hitting_time(build_instance(2, [(0, 1)]), 100_000, seed=101)
    assert abs(mean - 2.0) <= 3 * stderr


def test_mc_matches_exact_k4():
    mean, stderr = mc_hitting_time(build_instance(3, [(0, 1)]), 100_000, seed=102)
    assert abs(mean - 5.2) <= 3 * stderr


def test_mc_zero_trials():
    with pytest.raises(ZeroTrials):
        mc_hitting_time(build_instance(2, [(0, 1)]), 0)


def test_mc_deterministic():
    g = build_instance(4, [(0, 1), (2, 3)])
    assert mc_hitting_time(g, 400, seed=9) == mc_hitting_time(g, 400, seed=9)
    assert mc_hitting_time(g, 400, seed=9) != mc_hitting_time(g, 400, seed=10)


@pytest.mark.parametrize("seed", [0, 7, 2**63])
@pytest.mark.parametrize(
    "n,edges",
    [(2, [(0, 1)]), (3, [(0, 1)]), (4, [(0, 1), (2, 3)]), (10, [(0, 1), (1, 2)])],
)
def test_mc_matches_per_trial_generator_oracle(n, edges, seed):
    # restarting one bit generator per trial reproduces the per-trial
    # Philox(key=[seed, trial]) streams exactly
    g = build_instance(n, edges)
    assert mc_hitting_time(g, 300, seed=seed) == per_trial_generator_mc(g, 300, seed)


def test_mc_seed_range():
    g = build_instance(2, [(0, 1)])
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            mc_hitting_time(g, 10, seed=seed)
    mean, _ = mc_hitting_time(g, 10, seed=2**64 - 1)
    assert mean >= 1.0


def test_classical_bounds_hypothesis_gate():
    # the hitting-time brackets are judged by the ledger under 64s <= n+1
    small = verify_all(build_instance(2, [(0, 1)]))
    for e in small.entries_for("tc_near_resolvent") + small.entries_for("tc_bracket"):
        assert not e.hypothesis_holds and e.passed is None
    g = build_instance(255, [(0, 1)])
    large = verify_all(g)
    near = large.entry("tc_near_resolvent")
    assert near.hypothesis_holds and near.passed
    assert near.lhs <= 4.0 + 1e-9
    assert all(e.passed for e in large.entries_for("tc_bracket"))
    assert 0.45 <= hitting_time(g).t_c / 255**2 <= 1.1


@pytest.mark.parametrize(
    "n,edges",
    [(5, [(0, 1)]), (8, [(0, 1), (2, 3)]), (12, [(0, 1), (1, 2), (2, 3)])],
)
def test_pq_spectra_agree_small(n, edges):
    # line-kernel and vertex-companion spectra agree except for -1/(n-1)
    P = build_P(build_instance(n, edges))
    kernel = -1.0 / (n - 1)
    p_values = np.sort(np.linalg.eigvalsh(P.dense()))
    q_values = np.sort(np.linalg.eigvalsh(P.q_matrix.matrix))
    p_keep = p_values[np.abs(p_values - kernel) > 1e-8]
    q_keep = q_values[np.abs(q_values - kernel) > 1e-8]
    assert p_keep.size == q_keep.size
    assert np.abs(p_keep - q_keep).max() <= 1e-8


def test_positive_definite_system():
    g = build_instance(10, [(0, 1), (3, 4)])
    P = build_P(g)
    eigenvalues = np.linalg.eigvalsh(np.eye(P.num_edges) - P.dense())
    assert eigenvalues.min() > 0
    assert eigenvalues.min() >= 1 - np.linalg.eigvalsh(P.dense()).max() - 1e-12
