"""Inequality ledger: coverage, gating, determinism, norm inequalities."""

import json
from pathlib import Path

import numpy as np
import pytest

from edgewalk import (
    build_instance,
    build_P,
    build_T,
    cycle_edges,
    line_principal_pair,
    matching_edges,
    operators,
    path_edges,
    star_edges,
    verify_all,
    verify_random_suite,
)
from edgewalk.bounds import (
    _entry,
    _gershgorin_violation,
    _pq_spectra_mismatch,
    random_instance,
)
from edgewalk.spectral import eigh
from pq_oracle import companion_eigendata

BASE_NAMES = {
    "gershgorin",
    "lambda1_bracket",
    "adjacency_max",
    "lambda2_Y",
    "lambda2_Z",
    "gap_T",
    "bipartite_iff",
    "overlap_generic",
    "lmax_upper_Y",
    "lmax_upper_Z",
    "cor_T",
    "norm_l1",
    "pq_spectra",
    "cor_P",
    "ratio",
    "beta_close",
    "norm_l2",
    "beta_minus_close",
    "beta_plus_mass",
    "fp_lower",
    "qtime_order",
    "tc_near_resolvent",
    "tc_bracket",
}


# Every entry in ledger order with its relation; on this instance every
# hypothesis holds, so every entry is judged.
LEDGER_ORDER = [
    ("gershgorin.Y", "<="),
    ("gershgorin.Z", "<="),
    ("lambda1_bracket.Y.upper", "<="),
    ("lambda1_bracket.Y.lower", ">="),
    ("lambda1_bracket.Z.upper", "<="),
    ("lambda1_bracket.Z.lower", ">="),
    ("adjacency_max", "<="),
    ("lambda2_Y", "<="),
    ("lambda2_Z", "<="),
    ("gap_T", ">="),
    ("bipartite_iff", "=="),
    ("overlap_generic.Y", "<="),
    ("overlap_generic.Z", "<="),
    ("lmax_upper_Y", "<="),
    ("lmax_upper_Z", "<="),
    ("cor_T.upper", "<="),
    ("cor_T.lower", ">="),
    ("cor_T.overlap", "<="),
    ("norm_l2", "<="),
    ("norm_l1", "<="),
    ("pq_spectra", "<="),
    ("cor_P.upper", "<="),
    ("cor_P.lower", ">="),
    ("cor_P.overlap", ">="),
    ("tc_near_resolvent", "<="),
    ("tc_bracket.lower", ">="),
    ("tc_bracket.upper", "<="),
    ("ratio", "<="),
    ("beta_close", "<="),
    ("beta_minus_close", "<="),
    ("beta_plus_mass", ">="),
    ("fp_lower", ">="),
    ("qtime_order.lower", ">="),
    ("qtime_order.upper", "<="),
]
LINE_ENTRIES = [
    "norm_l1",
    "pq_spectra",
    "cor_P.upper",
    "cor_P.lower",
    "cor_P.overlap",
    "tc_near_resolvent",
    "tc_bracket.lower",
    "tc_bracket.upper",
]

TRIANGLE_ALL_MARKED = [(0, 1), (1, 2), (0, 2)]


@pytest.fixture(scope="module")
def judged_ledger():
    # 66*2 <= 263 and 64*2 <= 261: every hypothesis holds
    return verify_all(build_instance(260, [(0, 1)]))


def test_checklist_coverage():
    ledger = verify_all(build_instance(20, [(0, 1)]))
    names = {e.name.split(".")[0] for e in ledger.entries}
    assert names == BASE_NAMES


def test_all_pass_at_large_n(judged_ledger):
    assert not judged_ledger.skipped
    assert judged_ledger.all_passed


def test_ledger_order_and_relations(judged_ledger):
    assert [(e.name, e.relation) for e in judged_ledger] == LEDGER_ORDER


@pytest.mark.parametrize(
    "n,edges",
    [(2, path_edges(2)), (2, TRIANGLE_ALL_MARKED), (4, [(0, 1), (1, 2), (2, 3)])],
    ids=["degenerate", "empty-complement", "k5-path"],
)
def test_skipped_entries_keep_relation_and_drop_rhs(n, edges):
    entries = verify_all(build_instance(n, edges)).to_json_entries()
    assert [(e["name"], e["relation"]) for e in entries] == LEDGER_ORDER
    skipped = [e for e in entries if e["passed"] is None]
    assert skipped
    for e in skipped:
        assert not e["hypothesis_holds"]
        assert e["rhs"] is None and e["slack"] is None


def test_empty_complement_skips_line_entries():
    ledger = verify_all(build_instance(2, TRIANGLE_ALL_MARKED))
    for name in LINE_ENTRIES:
        e = ledger.entry(name)
        assert e.passed is None
        assert e.hypothesis_description == "complement nonempty"
        assert np.isnan(e.lhs)
    assert ledger.entry("beta_close").passed  # the triangle is not degenerate
    assert not ledger.failures


def test_spanning_bipartite_skips_quantum_entries():
    ledger = verify_all(build_instance(2, path_edges(2)))
    iff = ledger.entry("bipartite_iff")
    assert iff.passed and iff.lhs == 1.0 and iff.rhs == 1.0
    for name in ("beta_close", "fp_lower", "ratio"):
        for e in ledger.entries_for(name):
            assert e.passed is None
    # ungated spectral entries still pass
    for name in ("gershgorin", "lambda1_bracket", "lambda2_Y", "gap_T"):
        assert all(e.passed for e in ledger.entries_for(name))


@pytest.mark.parametrize(
    "edges", [[(0, 1)], path_edges(3), [(0, 1), (0, 2), (0, 3)], [(0, 1), (2, 3)]]
)
def test_pq_spectra_lift_matches_dense(monkeypatch, edges):
    # the lifted-residual certificate against the full multiset comparison
    g = build_instance(30, edges)
    P = build_P(g)
    lam, _ = line_principal_pair(P)
    values, vectors = companion_eigendata(g)
    dense = _pq_spectra_mismatch(P, lam, values, vectors)
    monkeypatch.setattr(operators, "DENSE_LINE_LIMIT", 0)
    lifted = _pq_spectra_mismatch(P, lam, values, vectors)
    assert dense <= 1e-12 and lifted <= 1e-12


@pytest.mark.parametrize("n", [40, 130, 260, 400])
def test_derived_vertex_eigendata_match_direct_solves(n):
    # verify_all takes Y = n(T - I) and Q = Z/(2(n-1)) + I from the
    # eigendata of T and Z; the direct solves agree to rounding
    eps = np.finfo(float).eps
    order = n + 1
    for edges in ([(0, 1)], path_edges(3), star_edges(3), matching_edges(2), cycle_edges(4)):
        g = build_instance(n, edges)
        y = np.ones((order, order)) - order * np.eye(order) - 2.0 * g.marked_matrix
        t_values, t_vectors = eigh(build_T(g).matrix)
        y_derived = n * (t_values - 1.0)
        assert np.abs(y_derived - eigh(y)[0]).max() <= 64 * eps * order
        assert np.abs(y @ t_vectors - t_vectors * y_derived).max() <= 128 * eps * order
        q_values, _ = companion_eigendata(g)
        assert np.abs(q_values - eigh(build_P(g).q_matrix)[0]).max() <= 32 * eps


def _gershgorin_loop(matrix, values):
    # the per-eigenvalue form the broadcast replaced
    centers = np.diag(matrix)
    radii = np.abs(matrix).sum(axis=1) - np.abs(centers)
    worst = 0.0
    for lam in values:
        nearest = float((np.abs(lam - centers) - radii).min())
        worst = max(worst, max(0.0, nearest))
    return worst


def test_gershgorin_violation_matches_per_eigenvalue_loop():
    rng = np.random.default_rng(17)
    for _ in range(50):
        k = int(rng.integers(1, 40))
        a = rng.normal(size=(k, k))
        a = a + a.T
        # shifted values leave the discs, so the violation is often positive
        values = np.linalg.eigvalsh(a)[::-1] + rng.choice([0.0, 3.0, 50.0])
        assert _gershgorin_violation(a, values) == _gershgorin_loop(a, values)
    assert _gershgorin_violation(np.zeros((2, 2)), np.array([1.0, -2.0])) == 2.0


def test_sweep_verdicts_unchanged():
    # the ledger_sweep benchmark instances: every entry keeps its name,
    # relation, hypothesis and verdict
    fixture = json.loads(
        (Path(__file__).parent / "data" / "ledger_sweep_verdicts.json").read_text()
    )
    rows = [tuple(row) for row in fixture["entries"]]
    code = {True: "P", False: "F", None: "S"}
    assert len(fixture["instances"]) == 32
    for instance in fixture["instances"]:
        g = build_instance(instance["n"], [tuple(e) for e in instance["edges"]])
        ledger = verify_all(g)
        assert [(e.name, e.relation, e.hypothesis_description) for e in ledger] == rows
        assert "".join(code[e.passed] for e in ledger) == instance["verdicts"]


def test_verify_all_solves_two_vertex_matrices(monkeypatch):
    # T and Z, each on its order-(s+1) quotient, plus the order-s adjacency
    # of the marked subgraph
    orders = []
    real_eigh = np.linalg.eigh

    def counting(matrix, *args, **kwargs):
        orders.append(len(matrix))
        return real_eigh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    ledger = verify_all(build_instance(260, path_edges(2)))
    assert ledger.all_passed
    assert sorted(orders) == [3, 4, 4]


def test_k5_gating():
    ledger = verify_all(build_instance(4, [(0, 1), (1, 2), (2, 3)]))
    assert all(e.passed for e in ledger.entries_for("gershgorin"))
    assert all(e.passed for e in ledger.entries_for("lambda1_bracket"))
    # 66*4 > 7: the small-subgraph entries are skipped, not failed
    for name in ("ratio", "beta_plus_mass", "fp_lower", "qtime_order"):
        for e in ledger.entries_for(name):
            assert e.passed is None
    assert not ledger.failures


def test_ledger_json_roundtrip_and_determinism():
    g = build_instance(30, [(0, 1), (2, 3)])
    first = json.dumps(verify_all(g).to_json_entries())
    second = json.dumps(verify_all(g).to_json_entries())
    assert first == second
    entries = json.loads(first)
    assert {
        "name",
        "lhs",
        "rhs",
        "relation",
        "hypothesis_description",
        "hypothesis_holds",
        "passed",
        "slack",
    } == set(entries[0])


def test_ledger_deterministic_on_the_iterative_path():
    # beyond the dense limit (Lanczos, CG): no solver state carries over
    # from one verify_all call to the next
    g = build_instance(260, path_edges(2))
    assert not build_P(g).fits_dense
    first = json.dumps(verify_all(g).to_json_entries())
    verify_all(build_instance(300, star_edges(3)))
    assert json.dumps(verify_all(g).to_json_entries()) == first


def test_entry_slack_conventions():
    e = _entry("x", "<=", 1.0, 3.0)
    assert e.slack == 2.0 and e.passed
    e = _entry("x", ">=", 1.0, 3.0)
    assert e.slack == -2.0 and not e.passed
    e = _entry("x", "==", 1.0, 1.0)
    assert e.passed
    e = _entry("x", "<=", 5.0, 1.0, hypothesis="h", holds=False)
    assert e.passed is None and not e.hypothesis_holds


def test_entry_tolerance_is_relative():
    assert _entry("x", "<=", 1.0 + 1e-10, 1.0).passed
    assert not _entry("x", "<=", 1.0 + 1e-6, 1.0).passed


def test_random_suite_small_unrestricted():
    report = verify_random_suite(
        50, (4, 20), ("random",), seed=77, max_gamma_vertices=4
    )
    assert report.ok
    assert report.instances == 50
    assert report.entries_checked == report.entries_passed + report.entries_skipped


def test_random_suite_deterministic():
    kwargs = dict(n_range=(10, 30), families=("path", "star"), seed=5)
    a = verify_random_suite(3, **kwargs)
    b = verify_random_suite(3, **kwargs)
    assert a == b


def test_random_instance_respects_vertex_cap():
    rng = np.random.default_rng(0)
    for _ in range(100):
        g = random_instance(rng, (10, 40), ("path", "matching", "star", "cycle", "random"))
        assert g.s <= 4


def test_bipartite_iff_agreement_random():
    rng = np.random.default_rng(123)
    for _ in range(60):
        g = random_instance(rng, (4, 9), ("random", "path", "cycle"), max_gamma_vertices=5)
        entry = verify_all(g).entry("bipartite_iff")
        assert entry.passed


def test_norm_l1_inequality_random_vectors():
    # len(h) * ||h||_2^2 >= ||h||_1^2 for arbitrary vectors
    rng = np.random.default_rng(2718)
    for _ in range(10_000):
        m = int(rng.integers(1, 101))
        h = rng.normal(size=m) * rng.choice([0.1, 1.0, 50.0])
        assert m * np.sum(h * h) >= np.sum(np.abs(h)) ** 2 - 1e-9


def test_norm_l2_inequality_random_vectors():
    # ||h||_2^2 <= n ||h||_1 for entries in [0, n]
    rng = np.random.default_rng(3141)
    for _ in range(10_000):
        n = float(rng.integers(1, 101))
        m = int(rng.integers(1, 101))
        h = rng.uniform(0.0, n, size=m)
        assert np.sum(h * h) <= n * np.sum(h) + 1e-9
