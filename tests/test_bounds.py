"""Inequality ledger: coverage, gating, determinism, norm inequalities."""

import json
import tracemalloc
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from edgewalk import (
    bounds,
    build_instance,
    build_P,
    build_P_quotient,
    build_T,
    cycle_edges,
    hitting_time,
    line_principal_pair,
    matching_edges,
    path_edges,
    star_edges,
    verify_all,
    verify_random_suite,
)
from edgewalk import edge_space
from edgewalk.bounds import (
    _entry,
    _gershgorin_violation,
    _pq_spectra_mismatch,
    random_instance,
)
from edgewalk.edge_space import solve_absorption
from edgewalk.errors import LostPrecision, TooSmall
from edgewalk.operators import VertexMatrix, vertex_matrix
from edgewalk.spectral import (
    QuotientSpectrum, companion_spectra, eigh, line_bracket, quotient_spectrum
)
from pq_oracle import companion_eigendata, dense_pq_mismatch

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
def test_pq_spectra_lift_matches_dense(edges):
    # the lifted-residual certificate against the full multiset comparison
    g = build_instance(30, edges)
    P = build_P(g)
    lam, _ = line_principal_pair(P)
    values, _ = companion_eigendata(g)
    dense = dense_pq_mismatch(P, values)
    lifted = _pq_spectra_mismatch(P, lam, companion_spectra(g)[2])
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
        assert np.abs(q_values - eigh(build_P(g).q_matrix.matrix)[0]).max() <= 32 * eps


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
        k, t = int(rng.integers(1, 40)), int(rng.choice([0, 1, 7]))
        a = rng.normal(size=(k, k))
        if t:
            # integer entries, so that every row sum is exact
            a = np.round(4.0 * a)
        a = a + a.T
        off, diagonal = (float(v) for v in rng.integers(-9, 10, size=2))
        matrix = VertexMatrix(k + t, a, off, diagonal)
        # shifted values leave the discs, so the violation is often positive
        values = np.linalg.eigvalsh(matrix.matrix)[::-1] + rng.choice([0.0, 3.0, 50.0])
        expected = _gershgorin_loop(matrix.matrix, values)
        assert _gershgorin_violation(matrix, values) == expected
    zero = VertexMatrix(2, np.zeros((2, 2)), 0.0, 0.0)
    assert _gershgorin_violation(zero, np.array([1.0, -2.0])) == 2.0


def _dense_vertex_matrices(g):
    """T, Y, Z, Q and G from their definitions, densely."""
    n, order = g.n, g.n + 1
    ones, eye = np.ones((order, order)), np.eye(order)
    adj, deg = g.marked_matrix.astype(np.float64), np.diag(g.gamma_degrees)
    gram = ones + (n - 1) * eye - adj - deg  # N N^T
    return {
        "T": (ones - eye - 2.0 * adj) / n,
        "Y": ones - order * eye - 2.0 * adj,
        "Z": ones - order * eye - adj - deg,
        "Q": (gram - 2.0 * eye) / (2.0 * (n - 1)),
        "G": gram,
    }


@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [(0, 1)]),
        (3, [(2, 0)]),
        (3, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # t = 0
        (4, path_edges(3)),
        (9, star_edges(3)),
        (40, [(7, 3), (3, 12), (20, 31), (31, 7)]),
        (130, cycle_edges(5)),
    ],
)
def test_vertex_matrices_match_their_dense_definitions(n, edges):
    g = build_instance(n, edges)
    P = build_P(g)
    structured = {
        # the forms build_T, verify_all and build_P make
        "T": build_T(g),
        "Y": vertex_matrix(g, -1, -n),
        "Z": vertex_matrix(g, 0, -n, degree=-1),
        "Q": P.q_matrix,
        "G": P.gram,
    }
    rng = np.random.default_rng(n)
    for name, dense in _dense_vertex_matrices(g).items():
        matrix = structured[name]
        assert (matrix.order, matrix.s, matrix.t) == (n + 1, g.s, g.t)
        assert np.array_equal(matrix.matrix, dense), name
        assert not matrix.matrix.flags.writeable
        scale = max(1.0, float(np.abs(dense).max()))
        for x in (rng.normal(size=n + 1), rng.normal(size=(n + 1, 3))):
            assert np.abs(matrix @ x - dense @ x).max() <= 1e-13 * scale, name
        values = np.linalg.eigvalsh(dense)[::-1]
        for shift in (0.0, 3.0, 50.0 * np.abs(values).max()):
            expected = _gershgorin_loop(dense, values + shift)
            assert _gershgorin_violation(matrix, values + shift) == expected, name


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


def test_verify_all_takes_no_edge_space_step(monkeypatch):
    # the line rows read the orbit quotient, its Collatz-Wielandt bracket
    # and hitting_time's t_c: with every edge-space builder, product, the
    # Lanczos and the CG solve refused, the ledger keeps its verdicts (all
    # 34 pass here) and agrees with the edge-space solvers it no longer calls
    g = build_instance(300, path_edges(2))
    P = build_P(g)
    lam, f = line_principal_pair(P)
    resolvent_gap = abs(solve_absorption(P)[0].mean() - 1.0 / (1.0 - lam))

    def refuse(*args, **kwargs):
        raise AssertionError("edge-space work in verify_all")

    monkeypatch.setattr(edge_space, "build_complement", refuse)
    monkeypatch.setattr(edge_space, "build_P", refuse)
    monkeypatch.setattr(bounds, "build_P", refuse, raising=False)
    monkeypatch.setattr(edge_space.LineTransitionMatrix, "matvec", refuse)
    monkeypatch.setattr(edge_space, "solve_absorption", refuse)
    monkeypatch.setattr(bounds, "solve_absorption", refuse, raising=False)
    monkeypatch.setattr(edge_space, "line_principal_pair", refuse)
    monkeypatch.setattr(bounds, "line_principal_pair", refuse, raising=False)
    monkeypatch.setattr(spla, "eigsh", refuse)
    ledger = verify_all(g)
    assert [e.passed for e in ledger] == [True] * 34
    lower = ledger.entry("cor_P.lower").lhs
    upper = ledger.entry("cor_P.upper").lhs
    assert abs(lower - lam) <= 1e-13 and abs(upper - lam) <= 1e-13
    assert 0.0 <= upper - lower <= 1e-14
    assert abs(ledger.entry("cor_P.overlap").lhs - (P.uniform @ f) ** 2) <= 1e-12
    # the one t_c of classical and speedup, against the bracket's point value
    value = line_bracket(build_P_quotient(g), companion_spectra(g)[1]).value
    assert lower <= value <= upper
    near = ledger.entry("tc_near_resolvent").lhs
    assert near == abs(hitting_time(g).t_c - 1.0 / (1.0 - value))
    # 1/(1 - lambda) magnifies lambda's rounding by about 5e8 here
    assert abs(near - resolvent_gap) <= 1e-4


def test_sweep_line_rows_agree_with_lanczos(monkeypatch):
    # the 64 ledger_sweep instances (seeds 20240809 and 7): the bracket's
    # ends and overlap, which cor_P reads, against Lanczos on the same orbit
    # quotient, which it read before
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import ledger_specs

    specs = ledger_specs(20240809) + ledger_specs(7)
    assert len(specs) == 64
    for spec in specs:
        g = build_instance(spec["n"], [tuple(e) for e in spec["edges"]])
        entries = {e.name: e.lhs for e in verify_all(g).entries_for("cor_P")}
        Q = build_P_quotient(g)
        lam, f = line_principal_pair(Q)
        assert abs(entries["cor_P.upper"] - lam) <= 1e-14, spec
        assert abs(entries["cor_P.lower"] - lam) <= 1e-14, spec
        assert abs(entries["cor_P.overlap"] - (Q.uniform @ f) ** 2) <= 1e-14, spec


def test_verify_all_at_ten_thousand():
    # one edge at n = 10^4: every entry judged and passed, in O(n) memory;
    # the dense eigenvector matrices of T and Z would take 1.6 GB
    g = build_instance(10**4, [(0, 1)])
    tracemalloc.start()
    try:
        ledger = verify_all(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [e.passed for e in ledger] == [True] * 34
    assert peak <= 2 * 2**20


def test_ledger_memory_is_bounded_by_the_marked_subgraph():
    # nothing of order n + 1 at n = 10^5: the sign counts are taken over
    # the marked subgraph's vertices, where they were a 0.8 MB vector
    g = build_instance(10**5, [(0, 1)])
    tracemalloc.start()
    try:
        verify_all(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 2**10


@pytest.mark.parametrize("n,k", [(2 * 10**8, 1), (10**9, 3)])
def test_verify_all_refuses_a_line_bracket_lost_to_rounding(n, k):
    # each component of the unmarked edges has an edge at a vertex of Gamma,
    # whose row of P sums below 1, so lambda_max(P) < 1; here the bracket
    # reads 1.0 and 1/(1 - lambda) would divide by zero
    g = build_instance(n, path_edges(k))
    with pytest.raises(LostPrecision, match=rf"^n = {n}: the lambda_max\(P\) bracket"):
        verify_all(g)


def test_bipartite_iff_reads_the_summary():
    # one edge at n = 2 * 10^5: 1 - lambda_max(T) = 4/(n(n+1)) = 1.0e-10
    # resolves in float64, so the spectrum is not degenerate (a fixed
    # threshold of 1e-10 read it as lambda_max = 1 here)
    ledger = verify_all(build_instance(200000, [(0, 1)]))
    entry = ledger.entry("bipartite_iff")
    assert entry.passed and entry.lhs == entry.rhs == 0.0
    assert ledger.entry("beta_close").hypothesis_holds
    # K_4 with a 4-cycle marked, a spanning K_{2,2}: degenerate both ways
    ledger = verify_all(build_instance(3, cycle_edges(4)))
    entry = ledger.entry("bipartite_iff")
    assert entry.passed and entry.lhs == entry.rhs == 1.0
    assert not ledger.entry("beta_close").hypothesis_holds


@pytest.mark.parametrize("n", [347, 374, 384, 396])
def test_ratio_against_mpmath(n):
    # ratio's lhs (1 - (f.j)^2) / (1 - lambda_max(T)) against a 50-digit
    # eigensolve of the same float64 quotient of T; the form
    # 1 - (f.j)^2 = d(1 - d/4), d = ||f - j||^2, has no cancellation, where
    # subtracting (f.j)^2 from 1 lost up to 9.0e-9 relative on these hosts
    mpmath = pytest.importorskip("mpmath")
    g = build_instance(n, [(0, 1)])
    quotient = build_T(g).quotient
    with mpmath.workdps(50):
        values, vectors = mpmath.eigsy(mpmath.matrix(quotient.tolist()))
        top = max(range(len(values)), key=lambda i: values[i])
        root = mpmath.sqrt(n + 1)
        uniform = [1 / root] * g.s + [mpmath.sqrt(g.t) / root]
        overlap = mpmath.fsum(vectors[i, top] * uniform[i] for i in range(len(uniform)))
        reference = float((1 - overlap**2) / (1 - values[top]))
    lhs = verify_all(g).entry("ratio").lhs
    assert abs(lhs - reference) <= 1e-10 * reference


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


def test_verify_all_chooses_two_principal_vectors(monkeypatch):
    # T's and Z's, once each, and none on a spectrum mapped from them (Y's
    # and Q's): on hosts with t >= 1, whose complement is connected
    chosen = []
    choose = QuotientSpectrum.__dict__["principal"].func

    def counting(spectrum):
        chosen.append(spectrum)
        return choose(spectrum)

    principal = cached_property(counting)
    principal.__set_name__(QuotientSpectrum, "principal")
    monkeypatch.setattr(QuotientSpectrum, "principal", principal)
    rng = np.random.default_rng(20240809)
    for _ in range(8):
        g = random_instance(rng, (5, 120), ["path", "matching", "star", "cycle"], 6)
        chosen.clear()
        ledger = verify_all(g)
        assert ledger.all_passed
        solved = (quotient_spectrum(build_T(g)), companion_spectra(g)[1])
        assert len(chosen) == 2, g
        for spectrum, expected in zip(chosen, solved):
            assert np.array_equal(spectrum.values, expected.values), g
        # Y's principal vector is T's, so the two distances are one value
        y = ledger.entry("overlap_generic.Y").lhs
        assert y == ledger.entry("cor_T.overlap").lhs, g


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


def test_random_suite_caps_a_family_at_its_host():
    # a family on up to 6 vertices in hosts of 3 to 6 used to die in
    # Generator.choice with "Cannot take a larger sample than population"
    report = verify_random_suite(
        20, (2, 5), ("path", "cycle", "random"), seed=1, max_gamma_vertices=6
    )
    assert report.ok and report.instances == 20
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = random_instance(rng, (2, 5), ("path", "matching", "star", "cycle", "random"), 6)
        assert g.s <= min(6, g.n + 1)


@pytest.mark.parametrize(
    "family,least", [("path", 2), ("matching", 2), ("star", 2), ("random", 2), ("cycle", 3)]
)
def test_random_instance_refuses_too_few_vertices_for_its_family(family, least):
    # below its least order a family used to die in Generator.integers
    # with "low >= high"; the error names the family and the cap
    for cap in (least - 1, 0):
        with pytest.raises(ValueError, match=f"'{family}'.*>= {least}, got {cap}"):
            random_instance(np.random.default_rng(0), (10, 20), [family], cap)
        with pytest.raises(ValueError, match=f"'{family}'"):
            verify_random_suite(1, (10, 20), [family], max_gamma_vertices=cap)
    assert random_instance(np.random.default_rng(0), (10, 20), [family], least).s <= least
    # an edge draws no size
    assert random_instance(np.random.default_rng(0), (10, 20), ["edge"], 1).s == 2


# Inputs the suite used to run on: a seed of True ran as seed 1, a float
# end of the range or a float cap ran, a reversed range died inside
# Generator.integers with "low >= high", and a range from n = 1 died in
# Generator.choice or Generator.integers once it drew n = 1.
REFUSED_SUITE_INPUTS = {
    "seed": ({"seed": True}, TypeError, "'bool' object"),
    "n_low": ({"n_range": (10.5, 20)}, TypeError, "'float' object"),
    "n_high": ({"n_range": (10, 20.0)}, TypeError, "'float' object"),
    "max_gamma_vertices": ({"max_gamma_vertices": 4.5}, TypeError, "'float' object"),
    "reversed_range": ({"n_range": (20, 10)}, ValueError, r"n_range .*\(20, 10\)"),
    "n_below_2": ({"n_range": (1, 20)}, TooSmall, r"n >= 2, got \(1, 20\)"),
}


@pytest.mark.parametrize("where", sorted(REFUSED_SUITE_INPUTS))
def test_random_suite_refuses_an_input_it_used_to_run_on(where):
    inputs, error, match = REFUSED_SUITE_INPUTS[where]
    kwargs = {"n_range": (10, 20), "families": ["path"], **inputs}
    with pytest.raises(error, match=match):
        verify_random_suite(1, **kwargs)
    if where == "seed":
        return
    # random_instance refuses it before anything is drawn
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(error, match=match):
        random_instance(rng, **kwargs)
    assert rng.bit_generator.state == state


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
