"""Hitting times: exact solves, the Monte-Carlo oracle, spectral brackets."""

import itertools
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import (
    build_instance,
    build_P,
    build_P_quotient,
    complete_bipartite_edges,
    cycle_edges,
    hitting_time,
    line_principal_pair,
    matching_edges,
    mc_hitting_time,
    path_edges,
    star_edges,
    verify_all,
)
from edgewalk import classical_search, cli, edge_space
from edgewalk.classical_search import _bounded, _philox
from edgewalk.edge_space import build_complement, solve_absorption
from edgewalk.errors import (
    EmptyComplement,
    SolverFailure,
    StepCapExceeded,
    TooLarge,
    ZeroTrials,
)
from edgewalk.spectral import companion_spectra
from mc_oracle import per_trial_generator_mc


# the most live trials the walker holds; more trials join its pool as
# others are absorbed
POOL = classical_search._REFILL_DRAWS // classical_search._FIRST_WIDTH


def _key(*words):
    return np.array(words, dtype=np.uint64)


def _generator(seed, trial):
    return np.random.Generator(np.random.Philox(key=_key(seed, trial)))


def _draws(seed, keys, counter, blocks):
    """``_philox``'s uint32 draws, run in a work buffer of its own, one row
    per key."""
    work = np.empty(12 * keys.size * blocks + 2 * keys.size, dtype=np.uint64)
    return _philox(seed, keys, counter, blocks, work).T


def _words(seed, keys, counter, blocks):
    """Each key's uint64 words, joined from its draws 2i (the low half) and
    2i + 1, one row per key."""
    draws = _draws(seed, keys, counter, blocks).astype(np.uint64)
    return draws[:, 0::2] | draws[:, 1::2] << 32


def _accepted(seed, trial, bound, counter, blocks):
    """The accepted bounded draws of blocks counter, ..., counter+blocks-1."""
    draws = _draws(seed, _key(trial), counter, blocks)
    values, accepted = _bounded(draws, bound, np.empty_like(draws, np.uint64))
    return values[accepted]


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


def test_k4_minus_four_cycle():
    # the two unmarked edges share no endpoint: P = 0, so every walk ends
    # after one step
    result = hitting_time(build_instance(3, cycle_edges(4)))
    assert result.t_c == pytest.approx(1.0, abs=1e-12)
    assert result.lambda_max_P == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "n,edges", [(2, cycle_edges(3)), (3, complete_bipartite_edges(2, 2) + [(0, 1), (2, 3)])]
)
def test_hitting_time_all_marked(n, edges):
    with pytest.raises(EmptyComplement):
        hitting_time(build_instance(n, edges))


# Families drawn on random labels: the first five keep the marked subgraph
# small, the last two span the host (s = n + 1).
VERTEX_PATH_FAMILIES = {
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
    "spanning_path": lambda draw, n: path_edges(n),
    "spanning_star": lambda draw, n: star_edges(n),
}


def _assert_matches_edge_space(g):
    # the edge-space CG and Lanczos are the oracles of the vertex path
    result = hitting_time(g)
    assert result.solver_residual <= 1e-10
    P = build_P(g)
    expected = solve_absorption(P)[0].mean()
    assert abs(result.t_c - expected) <= 1e-11 * expected
    assert abs(result.lambda_max_P - line_principal_pair(P)[0]) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_vertex_path_matches_edge_space_solvers(data):
    n = data.draw(st.integers(2, 400), label="n")
    family = data.draw(st.sampled_from(sorted(VERTEX_PATH_FAMILIES)), label="family")
    edges = VERTEX_PATH_FAMILIES[family](data.draw, n)
    labels = data.draw(st.permutations(range(n + 1)), label="labels")
    g = build_instance(n, [(labels[u], labels[v]) for u, v in edges])
    if g.num_marked == n * (n + 1) // 2:  # K_3 as a 3-cycle
        with pytest.raises(EmptyComplement):
            hitting_time(g)
        return
    _assert_matches_edge_space(g)


# The vertex-path families plus the two with one vertex outside the marked
# subgraph (t = 1), where the orbit quotient is the whole edge space.
QUOTIENT_FAMILIES = {
    **VERTEX_PATH_FAMILIES,
    "path_missing_one": lambda draw, n: path_edges(n - 1),
    "star_missing_one": lambda draw, n: star_edges(n - 1),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_orbit_quotient_matches_edge_space_and_vertex_path(data):
    n = data.draw(st.integers(2, 400), label="n")
    family = data.draw(st.sampled_from(sorted(QUOTIENT_FAMILIES)), label="family")
    edges = QUOTIENT_FAMILIES[family](data.draw, n)
    labels = data.draw(st.permutations(range(n + 1)), label="labels")
    g = build_instance(n, [(labels[u], labels[v]) for u, v in edges])
    if g.num_marked == n * (n + 1) // 2:  # K_3 as a 3-cycle
        with pytest.raises(EmptyComplement):
            build_P_quotient(g)
        return
    P, Q = build_P(g), build_P_quotient(g)
    lam, f = line_principal_pair(P)
    lam_q, f_q = line_principal_pair(Q)
    assert abs(lam_q - lam) <= 1e-13
    assert abs((Q.uniform @ f_q) ** 2 - (P.uniform @ f) ** 2) <= 1e-12
    expected = solve_absorption(P)[0].mean()
    assert abs(hitting_time(g).t_c - expected) <= 1e-11 * expected


@pytest.mark.parametrize(
    "n,edges",
    [(400, path_edges(400)), (400, star_edges(400)), (299, matching_edges(150))],
    ids=["spanning-path", "spanning-star", "perfect-matching"],
)
def test_vertex_path_matches_edge_space_on_spanning_subgraphs(n, edges):
    # s = n + 1: the largest s x s solve and quotient at the largest host
    g = build_instance(n, edges)
    assert g.t == 0
    _assert_matches_edge_space(g)


def test_hitting_time_takes_no_edge_space_step(monkeypatch):
    g = build_instance(300, path_edges(3))
    P = build_P(g)
    expected = solve_absorption(P)[0].mean()
    expected_lambda = line_principal_pair(P)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("edge-space work in hitting_time")

    monkeypatch.setattr(edge_space, "build_complement", refuse)
    monkeypatch.setattr(edge_space, "build_P", refuse)
    monkeypatch.setattr(classical_search, "build_P", refuse, raising=False)
    monkeypatch.setattr(edge_space.LineTransitionMatrix, "matvec", refuse)
    result = hitting_time(g)
    assert abs(result.t_c - expected) <= 1e-11 * expected
    assert abs(result.lambda_max_P - expected_lambda) <= 1e-12


def test_lambda_max_P_is_the_companion_solved_once(monkeypatch):
    # classical's lambda_max(P) is the ledger's companion value, bit for
    # bit: on the 64 ledger_sweep instances (seeds 20240809 and 7) and on
    # every marked set of K_3 to K_5 that leaves an edge unmarked
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import ledger_specs

    specs = ledger_specs(20240809) + ledger_specs(7)
    assert len(specs) == 64
    graphs = [build_instance(spec["n"], [tuple(e) for e in spec["edges"]]) for spec in specs]
    for n in (2, 3, 4):
        pairs = list(itertools.combinations(range(n + 1), 2))
        for size in range(1, len(pairs)):
            graphs.extend(
                build_instance(n, list(edges)) for edges in itertools.combinations(pairs, size)
            )
    assert len(graphs) == 64 + 6 + 62 + 1022
    for g in graphs:
        assert hitting_time(g).lambda_max_P == companion_spectra(g)[2].lambda_max


def test_lambda_max_P_at_a_million():
    # one edge at n = 10^6: lambda_max(P) = 0.999999999998000004 to 18
    # digits (mpmath), the nearest float64; Q's own quotient read 2^-53 low
    assert hitting_time(build_instance(10**6, [(0, 1)])).lambda_max_P == 0.999999999998


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
    x, residual = solve_absorption(P)
    assert residual <= 1e-10
    assert 129 * 127 / 2 - 4 <= x.mean() <= 129 * 127 + 4


def test_hitting_time_above_dense_limit_n80():
    # 3239 unmarked edges: dense P would be refused, so the solve must not
    # ask for it
    x, residual = solve_absorption(build_P(build_instance(80, [(0, 1)])))
    assert residual <= 1e-10
    assert 81 * 79 / 2 - 4 <= x.mean() <= 81 * 79 + 4


def _patch_refinement(monkeypatch, correction_sign):
    """Make the first CG solve return a perturbed x, and every refinement
    solve return ``correction_sign`` times the exact correction; returns
    the list of right-hand sides the solves received."""
    real_cg, calls = edge_space.spla.cg, []

    def fake_cg(op, rhs, **kwargs):
        x, info = real_cg(op, rhs, **kwargs)
        calls.append(rhs)
        if len(calls) == 1:
            noise = np.random.default_rng(0).standard_normal(x.size)
            return x * (1.0 + 1e-6 * noise), info
        return correction_sign * x, info

    monkeypatch.setattr(edge_space.spla, "cg", fake_cg)
    return calls


def test_refinement_restores_a_perturbed_first_solve(monkeypatch):
    P = build_P(build_instance(30, path_edges(2)))
    expected = solve_absorption(P)[0].mean()
    calls = _patch_refinement(monkeypatch, 1.0)
    x, residual = solve_absorption(P)
    assert len(calls) >= 2  # refinement ran
    assert residual <= 1e-10
    assert abs(x.mean() - expected) <= 1e-12 * expected


def test_refinement_that_never_improves_raises(monkeypatch):
    P = build_P(build_instance(30, path_edges(2)))
    calls = _patch_refinement(monkeypatch, -1.0)
    with pytest.raises(SolverFailure, match="above 1e-10"):
        solve_absorption(P)
    assert len(calls) == 2  # one round, rejected


def _exact_t_c(n, edges):
    """t_c from exact rational arithmetic: Sherman-Morrison on the s x s
    block M_s = (n+1) I + A + D, with h = n - D on the block and n on the
    t = n + 1 - s rest vertices (see ``hitting_time``)."""
    labels = sorted({w for edge in edges for w in edge})
    s, t = len(labels), n + 1 - len(labels)
    where = {w: i for i, w in enumerate(labels)}
    matrix = [[Fraction(0)] * s for _ in range(s)]
    for u, v in edges:
        matrix[where[u]][where[v]] = matrix[where[v]][where[u]] = Fraction(1)
    degrees = [sum(row) for row in matrix]
    for i in range(s):
        matrix[i][i] = n + 1 + degrees[i]
    h = [n - d for d in degrees]
    # Gauss-Jordan on [M_s | h 1]
    rows = [row + [h[i], Fraction(1)] for i, row in enumerate(matrix)]
    for i in range(s):
        pivot = rows[i][i]
        rows[i] = [x / pivot for x in rows[i]]
        for k in range(s):
            if k != i:
                rows[k] = [a - rows[k][i] * b for a, b in zip(rows[k], rows[i])]
    h_k, ones_k = [row[s] for row in rows], [row[s + 1] for row in rows]
    quadratic = sum(a * b for a, b in zip(h, h_k)) + Fraction(t * n * n, n + 1)
    cross = sum(a * b for a, b in zip(h, ones_k)) + Fraction(t * n, n + 1)
    ones = sum(ones_k) + Fraction(t, n + 1)
    edges_e = n * (n + 1) // 2 - len(edges)
    inner = quadratic + cross**2 / (1 - ones)
    return Fraction(n - 1, n) * (1 + inner / edges_e)


@pytest.mark.parametrize("n", [400, 10**6, 10**9])
@pytest.mark.parametrize(
    "edges",
    [[(0, 1)], [(0, 1), (1, 2)], [(0, 1), (1, 2), (3, 4)]],
    ids=["edge", "path-2", "forest-3"],
)
def test_hitting_time_at_large_n_against_exact_arithmetic(n, edges):
    # the instance and the solve cost O(s^2 + m) whatever n is; the labels
    # are taken from the top of 0..n
    edges = [(n - u, n - v) for u, v in edges]
    exact = _exact_t_c(n, edges)
    t_c = hitting_time(build_instance(n, edges)).t_c
    assert abs(Fraction(t_c) - exact) <= Fraction(1, 10**15) * exact


def test_mc_matches_exact_triangle():
    mean, stderr = mc_hitting_time(build_instance(2, [(0, 1)]), 100_000, seed=101)
    assert abs(mean - 2.0) <= 3 * stderr


def test_mc_matches_exact_k4():
    mean, stderr = mc_hitting_time(build_instance(3, [(0, 1)]), 100_000, seed=102)
    assert abs(mean - 5.2) <= 3 * stderr


def test_mc_zero_trials():
    with pytest.raises(ZeroTrials):
        mc_hitting_time(build_instance(2, [(0, 1)]), 0)


@pytest.mark.parametrize(
    "trials,seed",
    [(50, 1.7), (50, 1.0), (50, True), (50, "1"), (50.0, 1), (True, 1), (50, None)],
)
def test_mc_trials_and_seed_are_integers(trials, seed):
    # refused before any use, as n is: seed 1.7 ran as seed 1, and a float
    # or bool trials failed in np.empty with numpy's own message
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        mc_hitting_time(build_instance(3, [(0, 1)]), trials, seed=seed)


def test_mc_trials_and_seed_of_any_integer_kind():
    g = build_instance(3, [(0, 1)])
    expected = mc_hitting_time(g, 50, seed=1)
    assert mc_hitting_time(g, np.int64(50), seed=np.uint64(1)) == expected


def test_mc_deterministic():
    g = build_instance(4, [(0, 1), (2, 3)])
    assert mc_hitting_time(g, 400, seed=9) == mc_hitting_time(g, 400, seed=9)
    assert mc_hitting_time(g, 400, seed=9) != mc_hitting_time(g, 400, seed=10)


@pytest.mark.parametrize("seed", [0, 7, 2**63])
@pytest.mark.parametrize(
    "n,edges,trials",
    [
        pytest.param(2, [(0, 1)], 300, id="2-edges0"),
        pytest.param(3, [(0, 1)], 300, id="3-edges1"),
        pytest.param(4, [(0, 1), (2, 3)], 300, id="4-edges2"),
        pytest.param(10, [(0, 1), (1, 2)], 300, id="10-edges3"),
        # one unmarked edge: the start draws nothing
        pytest.param(2, [(0, 1), (1, 2)], 300, id="one-unmarked-edge"),
        pytest.param(10, [(0, 1), (1, 2)], 1, id="one-trial"),
        # more trials than one refill holds: fresh trials join stragglers
        pytest.param(3, [(0, 1)], POOL + 1000, id="two-batches"),
        # long walks: the width doubles up to the draw cap
        pytest.param(30, [(0, 1)], 400, id="width-cap"),
        # t = 0, 1 and 2 vertices outside the marked subgraph: no rest cell,
        # a rest cell of one vertex, a rest-rest pair of one edge
        pytest.param(5, path_edges(5), 300, id="t0-spanning-path"),
        pytest.param(5, path_edges(4), 300, id="t1-path"),
        pytest.param(6, path_edges(4), 300, id="t2-path"),
        # the marked subgraph on labels other than the smallest
        pytest.param(9, [(5, 8), (1, 6), (6, 8)], 300, id="gamma-relabelled"),
        # long walks with few trials
        pytest.param(30, [(0, 1)], 1, id="one-long-trial"),
        pytest.param(80, [(3, 70)], 2, id="two-long-trials"),
        # a marked subgraph above the step table's size limit
        pytest.param(40, path_edges(35), 30, id="no-step-table"),
    ],
)
def test_mc_matches_per_trial_generator_oracle(n, edges, trials, seed):
    # the numpy-generated streams reproduce the per-trial
    # Philox(key=[seed, trial]) generators exactly
    g = build_instance(n, edges)
    expected = per_trial_generator_mc(g, trials, seed)
    assert mc_hitting_time(g, trials, seed=seed) == expected


@pytest.mark.parametrize(
    "seed,trials,trial,position",
    [
        (3899, 8, 7, 0),  # the start draw, among trials that need none
        (2757, 8, 3, 13),  # a step draw, among trials that need none
        (72912, 1, 0, 11),  # a step draw of the only trial
    ],
)
def test_mc_matches_oracle_through_rejected_draws(seed, trials, trial, position):
    # On the spanning star at n = 411 a draw is rejected with probability
    # 68671 / 2**32 for the start (84255 unmarked edges) and 816 / 2**32 for
    # a step (820 moves); these streams each reject one early draw.
    g = build_instance(411, star_edges(411))
    draws = _draws(seed, _key(trial), 1, 8)[0]
    values = np.empty_like(draws, np.uint64)
    _, start_ok = _bounded(draws[:1], 84255, values[:1])
    _, step_ok = _bounded(draws[1:], 820, values[1:])
    rejected = np.flatnonzero(~np.concatenate((start_ok, step_ok)))
    assert rejected.tolist() == [position]
    expected = per_trial_generator_mc(g, trials, seed)
    assert mc_hitting_time(g, trials, seed=seed) == expected


def test_mc_rejections_ignore_refill_splits(monkeypatch):
    # Reject a fifth of all draws on top of Lemire's rule, so that rows run
    # short of accepted draws in most refills.  A short row must wait out
    # the rest of its refill: only then does the estimate not depend on
    # where the refills split the streams.
    def lossy(draws, bound, values):
        kept = draws % 5 != 0  # before _bounded spends the draws
        values, accepted = _bounded(draws, bound, values)
        return values, accepted & kept

    monkeypatch.setattr(classical_search, "_bounded", lossy)
    g = build_instance(10, [(0, 1), (1, 2)])
    estimates = set()
    for first, cap in ((16, 2**16), (8, 2**7), (40, 2**9)):
        monkeypatch.setattr(classical_search, "_FIRST_WIDTH", first)
        monkeypatch.setattr(classical_search, "_REFILL_DRAWS", cap)
        estimates.add(mc_hitting_time(g, 50, seed=3))
    assert len(estimates) == 1


def test_mc_start_waits_for_a_refill_of_rejected_draws(monkeypatch):
    # Reject every draw of trial 5's first block as a start draw: with 8
    # draws a trial in the first refill, it starts in the second, beside
    # the fresh trials that join the pool there when the first refill held
    # 16 of the 20.  Where the refills split its stream must not change the
    # estimate.
    g = build_instance(10, [(0, 1), (1, 2)])
    num_start = classical_search._unmarked_edges(g)
    lost = _draws(3, _key(5), 1, 1)[0]

    def lossy(draws, bound, values):
        # before _bounded spends the draws
        kept = ~np.isin(draws, lost) if bound == num_start else True
        values, accepted = _bounded(draws, bound, values)
        return values, accepted & kept

    starts = []

    def recording(draws, columns, bound):
        starts.append(columns.size)
        return first_accepted(draws, columns, bound)

    first_accepted = classical_search._first_accepted
    monkeypatch.setattr(classical_search, "_bounded", lossy)
    monkeypatch.setattr(classical_search, "_first_accepted", recording)
    estimates = set()
    for first, cap, calls in (
        (8, 2**16, [20, 1]),
        (16, 2**16, [20]),
        (8, 2**7, [16, 5]),
        (24, 2**9, [20]),
    ):
        monkeypatch.setattr(classical_search, "_FIRST_WIDTH", first)
        monkeypatch.setattr(classical_search, "_REFILL_DRAWS", cap)
        starts.clear()
        estimates.add(mc_hitting_time(g, 20, seed=3))
        assert starts == calls
    assert len(estimates) == 1


def test_mc_rule_steps_as_the_table_does(monkeypatch):
    # Above the step table's size limit the walker applies the rule to each
    # column; with a fifth of all draws rejected, short rows stay and
    # absorbed rows stay frozen there as on the table.
    def lossy(draws, bound, values):
        kept = draws % 5 != 0  # before _bounded spends the draws
        values, accepted = _bounded(draws, bound, values)
        return values, accepted & kept

    monkeypatch.setattr(classical_search, "_bounded", lossy)
    g = build_instance(10, [(0, 1), (1, 2)])
    on_table = mc_hitting_time(g, 50, seed=3)
    monkeypatch.setattr(classical_search, "_STEP_TABLE_LIMIT", 0)
    assert mc_hitting_time(g, 50, seed=3) == on_table


def test_mc_steps_draw_through_bounded(monkeypatch):
    # the step draws are bounded by the module's ``_bounded``, on the table
    # and on the rule, so the wrappers above reach the step path: rejecting
    # a fifth of the step draws alone moves the estimate
    g = build_instance(10, [(0, 1), (1, 2)])
    moves = 2 * (g.n - 1)
    plain = mc_hitting_time(g, 50, seed=3)

    def lossy(draws, bound, values):
        kept = draws % 5 != 0 if bound == moves else True
        values, accepted = _bounded(draws, bound, values)
        return values, accepted & kept

    monkeypatch.setattr(classical_search, "_bounded", lossy)
    on_table = mc_hitting_time(g, 50, seed=3)
    assert on_table != plain
    monkeypatch.setattr(classical_search, "_STEP_TABLE_LIMIT", 0)
    assert mc_hitting_time(g, 50, seed=3) == on_table


def test_mc_refill_rule(monkeypatch):
    # every refill holds at most _REFILL_DRAWS draws; the width starts at
    # _FIRST_WIDTH per trial and doubles until the cap binds
    refills, pools = [], []

    def recording(seed, keys, counter, blocks, work):
        refills.append((keys.size, 8 * blocks))
        pools.append(keys.copy())
        return _philox(seed, keys, counter, blocks, work)

    monkeypatch.setattr(classical_search, "_philox", recording)
    mc_hitting_time(build_instance(30, [(0, 1)]), 400, seed=5)
    cap, first = classical_search._REFILL_DRAWS, classical_search._FIRST_WIDTH
    assert refills[0] == (400, first)
    assert all(rows * width <= cap for rows, width in refills)
    for (_, before), (rows, width) in zip(refills, refills[1:]):
        assert width == min(2 * before, cap // rows // 8 * 8)
    widths = [width for _, width in refills]
    assert any(width < 2 * before for before, width in zip(widths, widths[1:]))
    # trials beyond one refill's share join the first refill's stragglers
    # in the second, which runs at the first width again
    refills.clear()
    pools.clear()
    counts = classical_search._walk(build_instance(2, [(0, 1)]), 5, POOL + 1000)
    assert POOL == cap // first
    assert refills[:2] == [(POOL, first), (pools[1].size, first)]
    # the start takes one of the first refill's draws, so 7 steps at most
    stragglers = np.flatnonzero(counts[:POOL] > first - 1)
    assert 0 < stragglers.size < 1000
    assert (np.sort(pools[1]) == np.append(stragglers, POOL + np.arange(1000))).all()
    assert all(rows * width <= cap for rows, width in refills)
    for (_, before), (rows, width) in zip(refills[1:], refills[2:]):
        assert width == min(2 * before, cap // rows // 8 * 8)


@pytest.mark.parametrize("n,most", [(2, 3), (3, 4)])
def test_mc_pool_takes_few_refills(monkeypatch, n, most):
    # 10^4 trials on K_3 and K_4: the last 1,808 trials join the first
    # refill's stragglers, so the call takes one short tail of refills
    # (4 and 6 refills when they walked in a batch of their own)
    refills = []

    def recording(seed, keys, counter, blocks, work):
        refills.append(keys.size)
        return _philox(seed, keys, counter, blocks, work)

    monkeypatch.setattr(classical_search, "_philox", recording)
    mc_hitting_time(build_instance(n, [(0, 1)]), 10_000, seed=5)
    assert len(refills) <= most


def test_mc_rule_path_pin_across_admissions():
    # a marked 35-edge path at n = 60, above the step table's size limit:
    # 10^4 trials join the pool over several refills, and the estimate is
    # the one the batched walker gave
    g = build_instance(60, path_edges(35))
    assert classical_search._step_table(*classical_search._cell_rule(g), g.s) is None
    assert mc_hitting_time(g, 10_000, seed=2) == (52.152, 0.5232103061890604)


def test_mc_memory_is_its_buffers():
    # the Philox word planes, allocated once per call, also hold each
    # refill's draws, Lemire's products and step symbols; 2.66 MiB before
    # they did.  Ten times the trials add their 8-byte step counts alone.
    g = build_instance(3, [(0, 1)])
    peaks = []
    for trials, seed in ((10_000, 5), (100_000, 7)):
        tracemalloc.start()
        try:
            mc_hitting_time(g, trials, seed=seed)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 1.6 * 2**20
    assert peaks[1] - peaks[0] <= 8 * 90_000 + 64 * 2**10


def test_step_table_depends_on_the_marked_subgraph_only():
    def step_table(n):
        rule, absorbing = classical_search._cell_rule(build_instance(n, [(0, 1)]))
        return classical_search._step_table(rule, absorbing, 2), absorbing

    small, small_absorbing = step_table(30)
    large, large_absorbing = step_table(400)
    # s = 2: 2 (s+1) + 1 symbols over (s+3)^2 pairs of ends
    assert small.size == 7 * 25
    assert small.nbytes == large.nbytes and (small == large).all()
    assert (small_absorbing == large_absorbing).all()
    assert np.flatnonzero(small_absorbing).tolist() == [1, 5]


def test_mc_step_cap_names_the_trial(monkeypatch):
    monkeypatch.setattr(classical_search, "STEP_CAP", 50)
    g = build_instance(30, [(0, 1)])
    with pytest.raises(StepCapExceeded, match=r"^trial \d+ exceeded 50 steps$"):
        mc_hitting_time(g, 20, seed=1)


def test_mc_draw_range_guard():
    # Lemire's method on uint32 draws bounds at most 2**32 - 1 values.  The
    # guard reads n and the number of marked edges alone (an instance at the
    # bound needs 55,607 marked edges), so stand-ins carry only those two.
    with pytest.raises(TooLarge, match="4294967296 unmarked edges"):
        mc_hitting_time(SimpleNamespace(n=92682, num_marked=55607), 1)
    # 2**32 - 1 unmarked edges pass the guard and reach the walk, whose
    # edge orbits need the stand-in's missing order s of the marked subgraph
    with pytest.raises(AttributeError, match="no attribute 's'"):
        mc_hitting_time(SimpleNamespace(n=92682, num_marked=55608), 1)


@pytest.mark.parametrize(
    "n,walker_guard", [(10**4, None), (10**5, "bounded uint32 draws")]
)
def test_pair_tables_are_refused_before_they_are_built(tmp_path, n, walker_guard):
    # (n+1)^2 = 1e8 or 1e10 vertex pairs: the complement's tables would
    # take 3.5 GB or 350 GB, and it raises TooLarge with nothing built.  The
    # walker builds no pair table; at 1e5 its draw range is out of reach,
    # and ``classical`` exits 2, a configuration error, with no report
    g = build_instance(n, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="pair tables"):
            build_complement(g)
        if walker_guard is not None:
            with pytest.raises(TooLarge, match=walker_guard):
                mc_hitting_time(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    if walker_guard is None:
        return
    argv = ["classical", "--n", str(n), "--subgraph", '{"kind": "path", "k": 1}',
            "--trials", "1", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == cli.EXIT_CONFIG == 2
    assert not (tmp_path / "out").exists()


def _marked_sets(n):
    """Every nonempty set of edges of K_{n+1} that leaves an edge unmarked."""
    host = list(itertools.combinations(range(n + 1), 2))
    for mask in range(1, 2 ** len(host) - 1):
        yield [edge for i, edge in enumerate(host) if mask >> i & 1]


@pytest.mark.parametrize("n,count", [(2, 6), (3, 62), (4, 1022), (5, 32766)])
def test_start_orbits_enumerate_the_unmarked_edges(n, count):
    # every marked set of K_{n+1} (t = 0, t = 1 and t >= 2): start draw i
    # lands on the pair of cells of the complement's i-th edge.  Both sides
    # read the instance through its canonical marked block alone, so each
    # block is checked once.
    instances = {}
    for edges in _marked_sets(n):
        g = build_instance(n, edges)
        instances.setdefault((g.s, g.marked_block.tobytes()), g)
        count -= 1
    assert count == 0
    for g in instances.values():
        num_start, start_pair = classical_search._start_orbits(g)
        complement = build_complement(g).edges
        assert num_start == len(complement)
        cells = np.minimum(complement, g.s)
        expected = cells[:, 0] * (g.s + 3) + cells[:, 1]
        assert (start_pair(np.arange(num_start)) == expected).all(), g


def test_mc_builds_no_pair_table(monkeypatch):
    # One step of one trial at n = 4000 takes the walker's buffers alone;
    # its start table over the vertex pairs took 91.6 MB.  At n = 10^4,
    # where that table was refused, the walk runs too.
    monkeypatch.setattr(classical_search, "STEP_CAP", 1)
    g = build_instance(4000, [(0, 1)])
    tracemalloc.start()
    try:
        with pytest.raises(StepCapExceeded):
            mc_hitting_time(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    with pytest.raises(StepCapExceeded):
        mc_hitting_time(build_instance(10**4, [(0, 1)]), 1)


def test_pair_table_limit_is_4096_vertices():
    assert build_instance(4095, [(0, 1)]).marked_matrix.shape == (4096, 4096)
    with pytest.raises(TooLarge, match="pair tables"):
        build_instance(4096, [(0, 1)]).marked_matrix


def test_mc_empty_complement():
    with pytest.raises(EmptyComplement):
        mc_hitting_time(build_instance(2, [(0, 1), (1, 2), (0, 2)]), 10)


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_numpy_philox_matches_random_raw(seed):
    trials = _key(0, 1, 2**32 - 1, 2**32 + 7, 2**64 - 1)
    words = _words(seed, trials, 1, 5)
    for row, trial in zip(words, trials):
        raw = np.random.Philox(key=_key(seed, trial)).random_raw(20)
        assert (row == raw).all()
    # a later counter continues the same streams
    assert (_words(seed, trials, 3, 3) == words[:, 8:]).all()
    # many rows of several blocks from counter 4 (words 12..23), the keys
    # running across 2**32 and up to 2**64 - 1, where the round keys wrap
    many = np.concatenate(
        (_key(*range(2**32 - 300, 2**32 + 300)), _key(*range(2**64 - 200, 2**64)))
    )
    words = _words(seed, many, 4, 3)
    assert words.shape == (800, 12)
    for row, trial in zip(words, many):
        raw = np.random.Philox(key=_key(seed, trial)).random_raw(24)
        assert (row == raw[12:]).all()
    # a counter past 2**32, so that the counter word has a high half
    # (numpy's stream starts one block past the counter it is given)
    counter = 2**40 + 3
    philox = np.random.Philox(counter=_key(counter - 1, 0, 0, 0), key=_key(seed, 9))
    assert (_words(seed, _key(9), counter, 2)[0] == philox.random_raw(8)).all()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_numpy_philox_takes_a_counter_per_key(seed):
    # keys at different block counters, one value each: every key's words
    # continue its own stream from its block on
    trials = _key(0, 3, 2**32 + 7, 2**64 - 1, 3)
    for counter in (np.array([1, 2, 5, 9, 7], dtype=np.uint32),
                    _key(4, 1, 2**40 + 3, 3, 2)):
        words = _words(seed, trials, counter, 3)
        for row, trial, block in zip(words, trials, counter.tolist()):
            start = _key(block - 1, 0, 0, 0)  # numpy starts one block on
            raw = np.random.Philox(counter=start, key=_key(seed, trial))
            assert (row == raw.random_raw(12)).all()
    # a scalar counter is every key's
    assert (_words(seed, trials, 5, 2) == _words(seed, trials, _key(*[5] * 5), 2)).all()


def test_uint32_draws_take_the_low_half_first():
    # _philox splits each word into two draws, its low half first, as
    # numpy's next_uint32 takes them
    word = int(np.random.Philox(key=_key(11, 2**33)).random_raw(1)[0])
    draws = _draws(11, _key(2**33), 1, 1)[0]
    assert draws[:2].tolist() == [word & 0xFFFFFFFF, word >> 32]
    expected = _generator(11, 2**33).integers(2**32, size=8, dtype=np.uint32)
    assert (draws == expected).all()


@pytest.mark.parametrize("bound", [2, 158, 2**31 + 1])
def test_bounded_draws_match_generator_integers(bound):
    expected = _generator(11, 2**33).integers(0, bound, size=600)
    draws = _draws(11, _key(2**33), 1, 200)
    products = draws.astype(np.uint64) * np.uint64(bound)
    values, accepted = _bounded(draws, bound, np.empty_like(draws, np.uint64))
    assert (values[accepted][:600] == expected).all()
    # the spent draws hold the products' low halves
    assert (draws == products % 2**32).all()
    if bound == 2**31 + 1:
        # about half of the draws fall below the threshold 2**31 - 1
        assert 0.45 <= 1 - accepted.mean() <= 0.55


def test_accepted_sequence_ignores_refill_boundaries():
    # numpy draws every call from one uint32 stream, so refills of any
    # width split the same accepted sequence
    rng = _generator(7, 3)
    bound = 2**31 + 1
    expected = np.concatenate([rng.integers(0, bound, size=k) for k in (3, 40, 1, 40)])
    splits = ((1, 1), (2, 3), (5, 9), (14, 12))
    pieces = [_accepted(7, 3, bound, counter, blocks) for counter, blocks in splits]
    whole = _accepted(7, 3, bound, 1, 25)
    assert (np.concatenate(pieces) == whole).all()
    assert (whole[: expected.size] == expected).all()


def test_single_value_bound_draws_nothing():
    # integers(1) consumes no draw: the next draws are a fresh stream's
    rng, fresh = _generator(9, 4), _generator(9, 4)
    assert rng.integers(1) == 0
    assert (rng.integers(0, 158, size=50) == fresh.integers(0, 158, size=50)).all()


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
