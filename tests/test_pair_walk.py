"""The vertex-pair walk behind ``run_series`` and ``asymptotic_diagnostics``
against its oracles: the same pair walk on (n+1)-vectors, the square-layout
kernel ``walk_arc_matrix`` and the gather formula, the latter also in long
double as an accuracy reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgewalk import quantum_search
from edgewalk import (
    arc_matrix,
    asymptotic_diagnostics,
    build_instance,
    build_T,
    complete_bipartite_edges,
    cycle_edges,
    finding_probability,
    initial_state,
    lift_eigenvectors,
    matching_edges,
    path_edges,
    principal_pair,
    quantum_time,
    run_series,
    star_edges,
    walk_arc_matrix,
)
from walk_oracle import (
    gather_walk,
    mp_uniform_series,
    vertex_rotation_gap,
    vertex_uniform_series,
)

TRIANGLE_ALL_MARKED = [(0, 1), (1, 2), (0, 2)]
K4_ALL_MARKED = [(u, v) for u in range(4) for v in range(u + 1, 4)]


def gather_series(g, t_max):
    states = gather_walk(g, initial_state(g), t_max)
    return np.array([finding_probability(g, psi) for psi in states])


def rotation_states(g, summary):
    """The start i beta_- and the target -beta_+ from the complex lifted
    eigenvectors."""
    lifted = lift_eigenvectors(g, summary)
    return (1j * lifted.beta_minus).real, (-lifted.beta_plus).real


def gather_rotation_gap(g, summary):
    """rotation_gap_sq by the gather walk of the start for t_f steps."""
    start, target = rotation_states(g, summary)
    evolved = gather_walk(g, start, quantum_time(summary))[-1]
    return float(np.sum((evolved - target) ** 2))


def gather_diagnostics(g):
    """rotation_gap_sq, start_gap_sq, target_mass and fp_at_tf from the
    complex lifted eigenvectors and the gather walk."""
    summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    start, target = rotation_states(g, summary)
    return (
        gather_rotation_gap(g, summary),
        float(np.sum((start - initial_state(g)) ** 2)),
        finding_probability(g, target),
        float(gather_series(g, t_f)[t_f]),
    )


@pytest.mark.parametrize(
    "n,edges",
    [(2, TRIANGLE_ALL_MARKED), (3, K4_ALL_MARKED)],
    ids=["K3-all-marked", "K4-all-marked"],
)
def test_singular_uniform_system(n, edges):
    # lambda_min(T) = -1, the eigenvalue the (-1)^t forcing of the uniform
    # walk could resonate with; d j has no component along it, so the
    # series stays exact over many steps and fp_at_tf is finite
    g = build_instance(n, edges)
    assert np.linalg.eigvalsh(build_T(g).matrix).min() == pytest.approx(-1.0)
    d = asymptotic_diagnostics(g)
    assert np.isfinite(d.fp_at_tf)
    expected = gather_diagnostics(g)
    got = (d.rotation_gap_sq, d.start_gap_sq, d.target_mass, d.fp_at_tf)
    assert np.abs(np.subtract(got, expected)).max() <= 1e-12
    assert np.abs(run_series(g, 12).fp - gather_series(g, 12)).max() <= 1e-12
    t_max = 10**4
    assert np.abs(run_series(g, t_max).fp - gather_series(g, t_max)).max() <= 1e-11


@pytest.mark.parametrize(
    "n,edges",
    [(3, complete_bipartite_edges(2, 2)), (5, complete_bipartite_edges(3, 3))],
    ids=["K22-spanning", "K33-spanning"],
)
def test_degenerate_series(n, edges):
    g = build_instance(n, edges)
    series = run_series(g, 20)
    assert series.degenerate
    assert np.abs(series.fp - gather_series(g, 20)).max() <= 1e-12


@pytest.mark.parametrize("n", [12, 99])
def test_reversed_star_shares_a_terminus(n):
    # every negative arc of a reversed star ends at its centre
    g = build_instance(n, star_edges(4), orientation="reversed")
    assert len({t for _, t in g.sigma_negative_arcs}) == 1
    d = asymptotic_diagnostics(g)
    expected = gather_diagnostics(g)
    got = (d.rotation_gap_sq, d.start_gap_sq, d.target_mass, d.fp_at_tf)
    assert np.isfinite(d.fp_at_tf)
    assert np.abs(np.subtract(got, expected)).max() <= 1e-12
    t_max = 2 * d.t_f
    assert np.abs(run_series(g, t_max).fp - gather_series(g, t_max)).max() <= 1e-12


FAMILIES = {
    "edge": lambda k: [(0, 1)],
    "path": path_edges,
    "matching": matching_edges,
    "star": star_edges,
    "cycle": lambda k: cycle_edges(k + 2),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_series_matches_arc_walk(data):
    # up to twice the searching time; the arc walk's own rounding dominates
    # the difference (measured <= 3.7e-13 over 150 random instances)
    family = data.draw(st.sampled_from(sorted(FAMILIES)), label="family")
    k = data.draw(st.integers(1, 4), label="k")
    n = data.draw(st.integers(12, 400), label="n")
    orientation = data.draw(st.sampled_from(["canonical", "reversed"]))
    seed = data.draw(st.integers(0, 2**32 - 1), label="placement")
    labels = np.random.default_rng(seed).permutation(n + 1)
    edges = [(int(labels[u]), int(labels[v])) for u, v in FAMILIES[family](k)]
    g = build_instance(n, edges, orientation=orientation)
    summary = principal_pair(build_T(g))
    t_max = 2 * quantum_time(summary)
    expected = np.empty(t_max + 1)
    walk_arc_matrix(g, arc_matrix(g, initial_state(g)), t_max, fp=expected)
    assert np.abs(run_series(g, t_max, summary).fp - expected).max() <= 5e-12
    gap_sq = asymptotic_diagnostics(g, summary).rotation_gap_sq
    assert abs(gap_sq - gather_rotation_gap(g, summary)) <= 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_quotient_walks_match_vertex_walks(data):
    # the walks on the order-(s+1) quotient against the same walks on
    # (n+1)-vectors: they differ in how <1, b> is summed and, where the step
    # is one product with the dense step matrix, in the order of the sums
    # inside the step
    family = data.draw(st.sampled_from(sorted(FAMILIES)), label="family")
    k = data.draw(st.integers(1, 4), label="k")
    pattern = FAMILIES[family](k)
    used = 1 + max(max(e) for e in pattern)
    # small hosts leave t = 0 or 1 vertices outside the marked subgraph
    n = data.draw(st.integers(max(2, used - 1), 400), label="n")
    orientation = data.draw(st.sampled_from(["canonical", "reversed"]))
    seed = data.draw(st.integers(0, 2**32 - 1), label="placement")
    labels = np.random.default_rng(seed).permutation(n + 1)
    edges = [(int(labels[u]), int(labels[v])) for u, v in pattern]
    g = build_instance(n, edges, orientation=orientation)
    assume(not g.is_spanning_complete_bipartite())
    summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    expected = vertex_uniform_series(g, 2 * t_f)
    series = run_series(g, 2 * t_f, summary)
    assert np.abs(series.fp - expected).max() <= 1e-14
    d = asymptotic_diagnostics(g, summary)
    reference = vertex_rotation_gap(g, summary, t_f)
    assert abs(d.rotation_gap_sq - reference) <= 1e-12 * reference
    assert abs(d.fp_at_tf - expected[t_f]) <= 1e-14


@pytest.mark.parametrize(
    "n,edges",
    [
        (5, cycle_edges(6)),
        (4, path_edges(4)),
        (5, path_edges(4)),
        (2, TRIANGLE_ALL_MARKED),
    ],
    ids=["cycle6-t0", "path4-t0", "path4-t1", "K3-all-marked"],
)
def test_quotient_walks_without_a_rest_cell(n, edges):
    # t = 0 leaves the quotient no rest coordinate, t = 1 a rest cell of one
    # vertex
    g = build_instance(n, edges)
    summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    t_max = max(2 * t_f, 40)
    series = run_series(g, t_max, summary)
    assert np.abs(series.fp - vertex_uniform_series(g, t_max)).max() <= 1e-14
    reference = vertex_rotation_gap(g, summary, t_f)
    gap_sq = asymptotic_diagnostics(g, summary).rotation_gap_sq
    assert abs(gap_sq - reference) <= 1e-12 * reference


def test_series_memory_at_ten_thousand():
    # one edge at n = 10^4 to twice the searching time (11,108 steps): a
    # single (n+1)^2 state would take 800 MB, and the vertex-vector walk's
    # readout blocks about 6 MB
    g = build_instance(10**4, [(0, 1)])
    summary = principal_pair(build_T(g))
    t_max = 2 * quantum_time(summary)
    tracemalloc.start()
    try:
        series = run_series(g, t_max, summary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert series.fp[0] == pytest.approx(2 / (10**4 * 10001), rel=1e-14)
    assert series.fp_at_tf >= 0.9998


@pytest.mark.parametrize(
    "n,edges",
    [
        (150, path_edges(150)),
        (60, complete_bipartite_edges(20, 20)),
        (60, complete_bipartite_edges(8, 8)),
    ],
    ids=["spanning-path", "K20,20", "K8,8"],
)
def test_series_across_readout_blocks(n, edges):
    # a large s (151) or m (400) cuts 600 steps into 6 or 8 readout blocks
    # of the structured step; m = 64 on a quotient of order 17 cuts them
    # into 2 blocks of the dense step
    g = build_instance(n, edges)
    t_max = 600
    expected = np.empty(t_max + 1)
    walk_arc_matrix(g, arc_matrix(g, initial_state(g)), t_max, fp=expected)
    assert np.abs(run_series(g, t_max).fp - expected).max() <= 5e-12


@pytest.mark.parametrize(
    "n,edges", [(300, [(0, 1)]), (60, path_edges(60))], ids=["edge", "spanning-path"]
)
def test_series_needs_no_linear_solve(monkeypatch, n, edges):
    # the uniform state is walked as a forced pair, with no split to solve for
    g = build_instance(n, edges)
    summary = principal_pair(build_T(g))
    t_max = 2 * quantum_time(summary)
    expected = np.empty(t_max + 1)
    walk_arc_matrix(g, arc_matrix(g, initial_state(g)), t_max, fp=expected)

    def refuse(*args, **kwargs):
        raise AssertionError("run_series solved a linear system")

    for name in ("lstsq", "solve", "svd", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    series = run_series(g, t_max, summary)
    assert np.abs(series.fp - expected).max() <= 5e-12


def test_series_memory_on_a_small_quotient():
    # one edge at n = 10^4 (k = 3) to 10^5 steps: the fp array takes 0.8 MB,
    # every augmented state of the walk would take 11 MB
    g = build_instance(10**4, [(0, 1)])
    summary = principal_pair(build_T(g))
    tracemalloc.start()
    try:
        series = run_series(g, 10**5, summary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert series.fp[0] == pytest.approx(2 / (10**4 * 10001), rel=1e-14)
    assert np.all((series.fp >= 0.0) & (series.fp <= 1.0 + 1e-12))


def test_series_memory_does_not_grow_with_t_max():
    # a spanning path at n = 400 (s = 401, m = 400): a history of all 4000
    # steps would take 13 MB in float64, and each readout temporary as much
    g = build_instance(400, path_edges(400))
    summary = principal_pair(build_T(g))
    tracemalloc.start()
    try:
        series = run_series(g, 4000, summary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20
    assert series.fp[0] == pytest.approx(2 * 400 / (400 * 401), rel=1e-14)
    assert np.all((series.fp >= 0.0) & (series.fp <= 1.0 + 1e-12))


def test_diagnostics_memory_is_linear_in_n():
    # n = 1000 with one edge: a single (n+1)^2 float64 state takes 8 MB
    g = build_instance(1000, [(0, 1)])
    summary = principal_pair(build_T(g))
    tracemalloc.start()
    try:
        d = asymptotic_diagnostics(g, summary)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
    assert 0.0 < d.rotation_gap_sq <= 16 / (1000 * 1001)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform, so the "
    "long-double oracle is not a higher-precision reference",
)
@pytest.mark.parametrize(
    "n,edges,orientation",
    [
        (100, path_edges(2), "canonical"),
        (200, star_edges(3), "reversed"),
        (294, [(0, 1)], "canonical"),
    ],
)
def test_rotation_gap_against_long_double_reference(n, edges, orientation):
    # the gather walk of i beta_- in long double, from the same float64 f
    g = build_instance(n, edges, orientation=orientation)
    summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    f = summary.f.astype(np.longdouble)
    theta = np.longdouble(summary.theta_max)
    d_star = g.sigma_arcs * f[g.arcs.termini] / np.sqrt(np.longdouble(n))
    start = d_star[g.arcs.inverse_index]
    target = (np.cos(theta) * start - d_star) / np.sin(theta)
    evolved = gather_walk(g, start, t_f)[-1]
    reference = float(np.sum((evolved - target) ** 2))
    got = asymptotic_diagnostics(g, summary).rotation_gap_sq
    assert abs(got - reference) <= 2e-11 * reference


# the rule's constant, set so that every quotient takes one kernel
KERNELS = {"dense": 10**9, "structured": 0}

# where long double is float64 every walk takes the structured step (see
# _DENSE_STEP_ORDER), and both kernels, forced, drift to about 5e-12 from the
# 50-digit series, within what test_series_matches_arc_walk allows
long_double_walk = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 on this platform, so no "
    "walk takes the dense step and the 1e-14 bounds hold for long double only",
)


@long_double_walk
@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize(
    "n,edges",
    [
        (300, [(0, 1)]),
        (400, [(0, 1)]),
        (331, path_edges(2)),
        (390, matching_edges(2)),
        (280, star_edges(3)),
    ],
    ids=["edge-300", "edge-400", "path2-331", "matching2-390", "star3-280"],
)
def test_series_against_a_50_digit_recurrence(monkeypatch, kernel, n, edges):
    g = build_instance(n, edges)
    monkeypatch.setattr(quantum_search, "_DENSE_STEP_ORDER", KERNELS[kernel])
    expected = mp_uniform_series(g, 2 * n)
    assert np.abs(run_series(g, 2 * n).fp - expected).max() <= 1e-14


@long_double_walk
@pytest.mark.parametrize(
    "n,edges",
    [
        (300, path_edges(3)),
        (200, matching_edges(10)),
        (150, star_edges(25)),
        (60, path_edges(60)),
    ],
    ids=["path3-k5", "matching10-k21", "star25-k27", "spanning-path-k61"],
)
def test_dense_step_matches_structured_step(monkeypatch, n, edges):
    # quotients of order k on both sides of _DENSE_STEP_ORDER, each walked
    # by both kernels
    g = build_instance(n, edges)
    summary = principal_pair(build_T(g))
    t_max = 2 * quantum_time(summary)
    results = {}
    for kernel, order in KERNELS.items():
        monkeypatch.setattr(quantum_search, "_DENSE_STEP_ORDER", order)
        results[kernel] = (
            run_series(g, t_max, summary).fp,
            asymptotic_diagnostics(g, summary),
        )
    (dense, d_dense), (structured, d_structured) = results["dense"], results["structured"]
    assert np.abs(dense - structured).max() <= 1e-14
    assert abs(d_dense.fp_at_tf - d_structured.fp_at_tf) <= 1e-14
    gap = d_structured.rotation_gap_sq
    assert abs(d_dense.rotation_gap_sq - gap) <= 1e-12 * gap


@long_double_walk
@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [(0, 1)]),
        (2, path_edges(2)),
        (5, cycle_edges(6)),
        (300, [(0, 1)]),
        (99, path_edges(3)),
        (331, path_edges(6)),
        (390, matching_edges(5)),
        (280, star_edges(14)),
        (200, path_edges(18)),
    ],
    ids=["K3-edge-k3", "K3-path2-k3", "cycle6-t0-k6", "edge-k3", "path3-k5",
         "path6-k8", "matching5-k11", "star14-k16", "path18-k20"],
)
def test_dense_step_matches_matmul(monkeypatch, n, edges):
    # the dense step against np.matmul with the same matrix, read back from
    # the step's images of the unit vectors: both sum each entry in long
    # double from index 0, so every state of the walk agrees bit for bit
    g = build_instance(n, edges)
    k = quantum_search.cell_sizes(g.s, g.t).size
    assert k <= quantum_search._DENSE_STEP_ORDER
    size = 2 * k + 1
    step = quantum_search._pair_step(g)
    matrix = np.empty((size, size), dtype=np.longdouble)
    step(np.eye(size, dtype=np.longdouble), out=matrix)
    # the matrix is the structured step's image of the identity, entry for
    # entry
    monkeypatch.setattr(quantum_search, "_DENSE_STEP_ORDER", 0)
    structured = quantum_search._pair_step(g)
    image = np.empty_like(matrix)
    structured(np.eye(size, dtype=np.longdouble), out=image)
    assert np.array_equal(matrix, image)
    # the uniform state's forced pair alone, then an unforced one beside it
    pairs = np.zeros((size, 2), dtype=np.longdouble)
    pairs[-1, 0] = 1.0
    pairs[: size // 2, 1] = np.random.default_rng(size).standard_normal(size // 2)
    for x in (pairs[:, 0].copy(), pairs):
        y, expected = np.empty_like(x), x.copy()
        for _ in range(600):
            step(x, out=y)
            expected = np.matmul(matrix, expected)
            assert np.array_equal(y, expected)
            x, y = y, x
