"""Instance construction: arcs, signs, canonical order, complement."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import (
    arc_matrix,
    build_arc_table,
    build_complement,
    build_instance,
    build_T,
    complete_bipartite_edges,
    cycle_edges,
    edges_from_descriptor,
    evolve_state,
    hitting_time,
    initial_state,
    matching_edges,
    mc_hitting_time,
    path_edges,
    run_series,
    signed_graph,
    star_edges,
    verify_all,
    verify_random_suite,
    walk_arc_matrix,
)
from edgewalk.errors import (
    EmptySubgraph,
    InvalidArc,
    InvalidEdge,
    InvalidVertex,
    LoopEdge,
    TooSmall,
)
from edgewalk.spectral import quotient_spectrum

K5_EDGES = [(0, 1), (1, 2), (2, 3)]


def k5():
    return build_instance(4, K5_EDGES)


def test_k5_instance_shape():
    g = k5()
    assert g.s == 4 and g.t == 1
    assert g.gamma_vertices == (0, 1, 2, 3)
    assert g.canonical_order == (0, 1, 2, 3, 4)
    assert g.sigma_negative_arcs == ((0, 1), (1, 2), (2, 3))


def test_smallest_instance():
    g = build_instance(2, [(0, 1)])
    assert g.s == 2 and g.t == 1
    assert g.num_marked == 1


def test_construction_errors():
    with pytest.raises(EmptySubgraph):
        build_instance(4, [])
    with pytest.raises(TooSmall):
        build_instance(1, [(0, 1)])
    with pytest.raises(InvalidVertex):
        build_instance(3, [(0, 5)])
    with pytest.raises(LoopEdge):
        build_instance(3, [(2, 2)])


def test_duplicate_edges_collapse():
    g = build_instance(3, [(0, 1), (1, 0), (0, 1)])
    assert g.marked_edges == ((0, 1),)


def test_sigma_k5_values():
    g = k5()
    assert g.sigma((0, 1)) == -1
    assert g.sigma((1, 0)) == 1
    assert g.sigma((1, 2)) == -1
    assert g.sigma((3, 4)) == 1
    assert g.sigma((4, 3)) == 1
    with pytest.raises(InvalidArc):
        g.sigma((2, 2))
    with pytest.raises(InvalidArc):
        g.sigma((0, 9))


@pytest.mark.parametrize("orientation", ["canonical", "reversed"])
@pytest.mark.parametrize(
    "n,edges",
    [
        (2, [(0, 1)]),
        (4, K5_EDGES),
        (5, [(5, 2), (2, 0)]),
        (7, [(6, 1), (1, 3), (3, 6)]),
        (8, [(8, 0), (8, 4), (8, 7), (2, 5)]),
    ],
)
def test_sigma_matches_sigma_arcs(n, edges, orientation):
    g = build_instance(n, edges, orientation=orientation)
    for a in range(g.num_arcs):
        i, j = g.arcs.pair(a)
        u, v = g.to_external(i), g.to_external(j)
        assert g.sigma((u, v)) == g.sigma_arcs[a]
    assert np.sum(g.sigma_arcs == -1.0) == g.num_marked
    marked = g.marked_matrix[g.arcs.origins, g.arcs.termini]
    assert np.array_equal(g.marked_arcs, marked)


def test_hot_paths_build_no_arc_table(monkeypatch):
    def refuse(n):
        raise AssertionError(f"arc table of K_{n + 1} built on a hot path")

    monkeypatch.setattr(signed_graph, "build_arc_table", refuse)
    g = build_instance(300, path_edges(2))
    assert not verify_all(g).failures
    assert g.num_arcs == 300 * 301
    assert len(run_series(g, 40).fp) == 41
    k4 = build_instance(3, [(0, 1)])
    assert hitting_time(k4).t_c == pytest.approx(5.2, rel=1e-12)
    mean, _ = mc_hitting_time(k4, 20, seed=1)
    assert mean > 0
    # the marked arcs come from their closed-form indices, not the table
    assert np.flatnonzero(g.marked_arcs).tolist() == g.marked_arc_indices.tolist()
    assert g.marked_arc_indices.size == 2 * g.num_marked
    # the patch is live: the per-arc members that need the table build it
    with pytest.raises(AssertionError, match="arc table"):
        g.arcs


def test_instance_holds_no_per_arc_array():
    # K_2001 has 4.0M arcs: one float64 per arc would be 32 MB, and even the
    # (n+1)^2 bool marked_matrix, built on first use, is 4.0 MB.
    tracemalloc.start()
    try:
        build_instance(2000, [(0, 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


def test_vertex_space_work_reads_only_the_marked_subgraph():
    # hitting_time, the quotient of T and the signs need the s x s block
    # alone; the (n+1)^2 marked_matrix would take 4.0 MB here
    warm = build_instance(5, path_edges(2))
    hitting_time(warm)
    quotient_spectrum(build_T(warm)).lambda_max
    tracemalloc.start()
    try:
        g = build_instance(2000, path_edges(2))
        hitting_time(g)
        quotient_spectrum(build_T(g)).lambda_max
        assert g.tau((0, 1)) == g.sigma((1, 2)) == -1 and g.tau((0, 2)) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert not {"marked_matrix", "gamma_degrees", "canonical_order"} & set(vars(g))


def test_derived_members_follow_the_block():
    g = build_instance(5, [(5, 2), (2, 0)], orientation="reversed")
    assert g.marked_block.tolist() == [
        [False, True, False], [True, False, True], [False, True, False]
    ]
    assert g.negative_arcs.tolist() == [[1, 2], [0, 1]]
    assert g.sigma_negative_arcs == ((1, 0), (2, 1))
    padded = np.zeros((6, 6), dtype=bool)
    padded[:3, :3] = g.marked_block
    assert np.array_equal(g.marked_matrix, padded)
    assert g.degrees.tolist() == [1, 2, 1]
    assert g.gamma_degrees.tolist() == [1, 2, 1, 0, 0, 0]
    assert [g.to_canonical(w) for w in range(6)] == [2, 3, 1, 4, 5, 0]
    for member in (
        "marked_block", "negative_arcs", "degrees", "marked_matrix", "gamma_degrees"
    ):
        assert not getattr(g, member).flags.writeable, member
        assert getattr(g, member).dtype == (bool if "marked" in member else np.int64)


def test_construction_builds_no_block():
    # a 5,000-edge matching at n = 9,999: the s x s block would be 100 MB,
    # and the members below read the arcs alone
    tracemalloc.start()
    try:
        g = build_instance(9999, matching_edges(5000))
        assert g.degrees.tolist() == [1] * 10_000 and g.t == 0
        assert g.negative_arcs.shape == (2, 5000)
        assert g.gamma_degrees.sum() == 10_000
        assert g.sigma((0, 1)) == -1 and g.sigma((1, 0)) == 1
        assert g.tau((9998, 9999)) == -1 and g.tau((1, 2)) == 1
        assert not g.is_spanning_complete_bipartite()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert "marked_block" not in vars(g)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_members_match_the_marked_edges(data):
    # repeated edges in either orientation collapse to the first; labels are
    # relabelled so that the subgraph's vertices need not come first
    n = data.draw(st.integers(2, 12), label="n")
    pairs = st.tuples(st.integers(0, n), st.integers(0, n)).filter(lambda e: e[0] != e[1])
    edges = data.draw(st.lists(pairs, min_size=1, max_size=20), label="edges")
    if data.draw(st.booleans(), label="spanning K_{a,b}"):
        a = data.draw(st.integers(1, n), label="a")
        edges = complete_bipartite_edges(a, n + 1 - a) + edges[:1]
    repeats = data.draw(st.lists(st.sampled_from(edges), max_size=5), label="repeats")
    edges += [(v, u) for u, v in repeats]
    labels = data.draw(st.permutations(range(n + 1)), label="labels")
    edges = [(labels[u], labels[v]) for u, v in edges]
    orientation = data.draw(st.sampled_from(["canonical", "reversed"]))
    g = build_instance(n, edges, orientation=orientation)

    first = {}
    for u, v in edges:
        first.setdefault(frozenset((u, v)), (u, v))
    assert g.marked_edges == tuple(first.values())
    vertices = tuple(dict.fromkeys(w for edge in g.marked_edges for w in edge))
    assert g.gamma_vertices == vertices
    position = {w: i for i, w in enumerate(vertices)}
    block = np.zeros((g.s, g.s), dtype=bool)
    arcs = []
    for u, v in g.marked_edges:
        lo, hi = sorted((position[u], position[v]))
        block[lo, hi] = block[hi, lo] = True
        arcs.append((lo, hi) if orientation == "canonical" else (hi, lo))
    assert np.array_equal(g.marked_block, block)
    assert np.array_equal(g.degrees, block.sum(axis=1))
    assert g.sigma_negative_arcs == tuple(arcs)
    assert g.negative_arcs.tolist() == [list(end) for end in zip(*arcs)]
    # the signs and the degeneracy test, which read the arcs alone
    order = g.canonical_order
    for i, j in ((i, j) for i in range(n + 1) for j in range(n + 1) if i != j):
        marked = max(i, j) < g.s and block[i, j]
        assert g.tau((order[i], order[j])) == (-1 if marked else 1)
        assert g.sigma((order[i], order[j])) == (-1 if (i, j) in arcs else 1)
    side = block[0]
    spanning = g.t == 0 and all(
        block[i, j] == (side[i] != side[j]) for i in range(g.s) for j in range(i)
    )
    assert g.is_spanning_complete_bipartite() == spanning


def test_sigma_product_detects_marked_edges():
    g = k5()
    for u in range(5):
        for v in range(5):
            if u == v:
                continue
            product = g.sigma((u, v)) * g.sigma((v, u))
            assert product == (-1 if frozenset((u, v)) in map(frozenset, K5_EDGES) else 1)


def test_tau_values():
    g = k5()
    assert g.tau((1, 2)) == -1
    assert g.tau((3, 4)) == 1
    with pytest.raises(InvalidEdge):
        g.tau((0, 0))
    with pytest.raises(InvalidEdge):
        g.tau((0, 7))


@pytest.mark.parametrize("n,edges", [(4, K5_EDGES), (5, [(0, 3), (2, 5)]), (6, [(1, 2)])])
def test_tau_sign_count(n, edges):
    g = build_instance(n, edges)
    negatives = sum(
        1
        for u in range(n + 1)
        for v in range(u + 1, n + 1)
        if g.tau((u, v)) == -1
    )
    assert negatives == g.num_marked


@pytest.mark.parametrize("n,expected", [(2, 6), (4, 20), (99, 9900)])
def test_arc_counts(n, expected):
    assert build_arc_table(n).num_arcs == expected


def test_arc_table_involution_and_order():
    table = build_arc_table(5)
    inv = table.inverse_index
    assert np.array_equal(inv[inv], np.arange(table.num_arcs))
    assert np.all(inv != np.arange(table.num_arcs))
    assert np.array_equal(table.origins[inv], table.termini)
    assert np.array_equal(table.termini[inv], table.origins)
    # lexicographic ordering and index round trip
    keys = table.origins * (table.n + 1) + table.termini
    assert np.all(np.diff(keys) > 0)
    for i in range(table.num_arcs):
        u, v = table.pair(i)
        assert table.index(u, v) == i


@pytest.mark.parametrize("index", [-1, -30, 30, 10**9, 1.0, 2.5, True, "3", None], ids=repr)
def test_arc_index_from_outside_is_checked(index):
    # -1 used to read the last arc, (5, 4), through numpy's negative indexing
    table = build_arc_table(5)
    with pytest.raises(InvalidArc):
        table.pair(index)
    assert table.pair(np.int64(29)) == table.pair(29) == (5, 4)


@pytest.mark.parametrize(
    "arc",
    [(0, 1, 2), (0,), (), {0, 1}, 5, None, np.array([[0, 1], [2, 3]])],
    ids=["triple", "single", "empty", "set", "int", "none", "matrix"],
)
def test_sigma_takes_a_pair(arc):
    # (0, 1, 2) used to read as (0, 1)
    g = build_instance(5, [(0, 1)])
    with pytest.raises(InvalidArc):
        g.sigma(arc)
    assert g.sigma([0, 1]) == g.sigma(np.array([0, 1])) == g.sigma((0, 1)) == -1


def test_arc_table_too_small():
    with pytest.raises(TooSmall):
        build_arc_table(1)


@pytest.mark.parametrize("n", [5.5, 5.0, True, "5"], ids=repr)
def test_host_size_is_an_integer(n):
    # a float, even an integral one, a bool or a string is no host size:
    # 5.5 built K_6 with t = 4.5 and a wrong t_c
    with pytest.raises(TypeError):
        build_instance(n, [(0, 1)])
    with pytest.raises(TypeError):
        build_arc_table(n)


@pytest.mark.parametrize(
    "where",
    ["n", "trials", "seed", "t_max", "evolve_steps", "walk_steps", "suite_count"],
)
def test_bool_integer_is_refused_by_name(where):
    # the message names the type the caller passed, not NoneType; a count
    # of True used to run as 1 (two rows of series, one step of walk, a
    # suite reporting instances=True)
    g = build_instance(3, [(0, 1)])
    calls = {
        "n": lambda: build_instance(True, [(0, 1)]),
        "trials": lambda: mc_hitting_time(g, True),
        "seed": lambda: mc_hitting_time(g, 50, seed=True),
        "t_max": lambda: run_series(g, True),
        "evolve_steps": lambda: evolve_state(g, initial_state(g), True),
        "walk_steps": lambda: walk_arc_matrix(g, arc_matrix(g, initial_state(g)), True),
        "suite_count": lambda: verify_random_suite(True, (10, 20), ["edge"]),
    }
    with pytest.raises(TypeError) as exc:
        calls[where]()
    assert str(exc.value) == "'bool' object cannot be interpreted as an integer"


def test_host_size_of_any_integer_kind():
    g = build_instance(np.int64(5), [(0, 1)])
    assert type(g.n) is int and type(g.t) is int
    assert hitting_time(g).t_c == hitting_time(build_instance(5, [(0, 1)])).t_c
    assert build_arc_table(np.int64(5)).num_arcs == 30


def test_complement_triangle():
    g = build_instance(2, [(0, 1)])
    delta = build_complement(g)
    assert delta.num_edges == 2
    assert sorted(map(tuple, delta.edges)) == [(0, 2), (1, 2)]


def test_complement_k5():
    delta = build_complement(k5())
    assert delta.num_edges == 10 - 3
    assert np.array_equal(delta.degrees, 4 - np.array([1, 2, 2, 1, 0]))


def test_incidence_identity_exact():
    # N N^T = A + D in integer arithmetic
    for n, edges in [(2, [(0, 1)]), (4, K5_EDGES), (6, [(0, 5), (1, 2), (2, 3)])]:
        delta = build_complement(build_instance(n, edges))
        inc = delta.incidence().toarray().astype(np.int64)
        adjacency = np.zeros((n + 1, n + 1), dtype=np.int64)
        for u, v in delta.edges:
            adjacency[u, v] = adjacency[v, u] = 1
        expected = adjacency + np.diag(delta.degrees)
        assert np.array_equal(inc @ inc.T, expected)


def test_orientation_invariance():
    for n, edges in [(4, K5_EDGES), (6, [(2, 5), (0, 3), (3, 5)])]:
        forward = build_instance(n, edges)
        flipped = build_instance(n, edges, orientation="reversed")
        assert np.array_equal(build_T(forward).matrix, build_T(flipped).matrix)
        for u, v in edges:
            assert forward.tau((u, v)) == flipped.tau((u, v)) == -1
        assert np.array_equal(
            forward.sigma_arcs, flipped.sigma_arcs[forward.arcs.inverse_index]
        )


def test_canonical_order_arbitrary_labels():
    g = build_instance(5, [(5, 2), (2, 0)])
    assert g.gamma_vertices == (5, 2, 0)
    assert g.canonical_order == (5, 2, 0, 1, 3, 4)
    assert g.to_canonical(5) == 0
    assert g.to_external(0) == 5
    assert g.tau((2, 5)) == -1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_to_external_matches_canonical_order(data):
    n = data.draw(st.integers(2, 60), label="n")
    gamma = data.draw(
        st.lists(st.integers(0, n), min_size=2, max_size=min(n + 1, 8), unique=True),
        label="gamma",
    )
    g = build_instance(n, list(zip(gamma, gamma[1:])))
    external = [g.to_external(i) for i in range(n + 1)]
    assert "canonical_order" not in vars(g)  # O(log s) each, no (n+1)-tuple
    assert external == list(g.canonical_order)
    assert all(g.to_canonical(g.to_external(i)) == i for i in range(n + 1))


def test_to_canonical_reads_a_label_map_on_a_perfect_matching():
    # O(log s) a label, with no O(n) canonical order built: the marked
    # subgraph spans all 200000 vertices, labels in ascending order, and a
    # second matching on the odd labels leaves the even ones to the rest
    n = 199_999
    labels = [0, 1, 2, 99_999, 150_000, 199_998, n]
    spanning = build_instance(n, matching_edges(100_000))
    positions = [spanning.to_canonical(w) for w in labels]
    assert "canonical_order" not in vars(spanning)
    assert positions == [spanning.canonical_order.index(w) for w in labels] == labels
    odd = build_instance(n, [(w, w + 2) for w in range(n - 2, 0, -4)])
    positions = [odd.to_canonical(w) for w in labels]
    assert "canonical_order" not in vars(odd)
    order = {w: i for i, w in enumerate(odd.canonical_order)}
    assert positions == [order[w] for w in labels]
    assert [odd.to_external(i) for i in positions] == labels


@pytest.mark.parametrize("position", [-1, -7, 6, 10**9])
def test_to_external_rejects_a_position_outside_the_host(position):
    # a negative index used to wrap around to the last labels
    g = build_instance(5, [(5, 2), (2, 0)])
    with pytest.raises(InvalidVertex):
        g.to_external(position)


# Each entry point that takes a vertex label from outside, with the error it
# documents; the other end of an arc is vertex 3.
LABEL_ENTRY_POINTS = {
    "ArcTable.index": (lambda g, w: g.arcs.index(w, 3), InvalidArc),
    "to_canonical": (lambda g, w: g.to_canonical(w), InvalidVertex),
    "to_external": (lambda g, w: g.to_external(w), InvalidVertex),
    "sigma": (lambda g, w: g.sigma((w, 3)), InvalidArc),
}


@pytest.mark.parametrize("label", [0.9, 1.0, True, "1", -1, 6], ids=repr)
@pytest.mark.parametrize("entry", sorted(LABEL_ENTRY_POINTS))
def test_vertex_labels_from_outside_are_checked_once(entry, label):
    # a float, a bool or a string is no vertex label, even when it equals
    # one, and neither is a label outside 0..n
    g = build_instance(5, [(5, 2), (2, 0)])
    call, error = LABEL_ENTRY_POINTS[entry]
    with pytest.raises(error):
        call(g, label)
    assert call(g, np.int64(1)) == call(g, 1)  # integers of any kind pass


def test_generators():
    assert path_edges(3) == [(0, 1), (1, 2), (2, 3)]
    assert matching_edges(2) == [(0, 1), (2, 3)]
    assert star_edges(3) == [(0, 1), (0, 2), (0, 3)]
    assert cycle_edges(4) == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert complete_bipartite_edges(1, 2) == [(0, 1), (0, 2)]
    with pytest.raises(ValueError):
        path_edges(0)
    with pytest.raises(ValueError):
        cycle_edges(2)


def test_descriptor_parsing():
    assert edges_from_descriptor({"kind": "path", "k": 2}) == [(0, 1), (1, 2)]
    assert edges_from_descriptor({"kind": "complete_bipartite", "a": 1, "b": 2}) == [
        (0, 1),
        (0, 2),
    ]
    assert edges_from_descriptor({"kind": "edges", "edges": [[0, 3], [1, 2]]}) == [
        (0, 3),
        (1, 2),
    ]
    with pytest.raises(ValueError):
        edges_from_descriptor({"kind": "blob"})
    with pytest.raises(ValueError):
        edges_from_descriptor({"kind": "path"})
    with pytest.raises(ValueError):
        edges_from_descriptor({"kind": "edges", "edges": []})
    # numpy integers are labels; non-integers are rejected, not truncated
    assert edges_from_descriptor(
        {"kind": "edges", "edges": [(np.int64(0), np.int32(3))]}
    ) == [(0, 3)]
    # JSON booleans are not integers, although Python's bool subclasses int
    for bad in ({"kind": "path", "k": None}, {"kind": "path", "k": 1.7},
                {"kind": "star", "k": "2"}, {"kind": "complete_bipartite", "a": 1},
                {"kind": "path", "k": True},
                {"kind": "complete_bipartite", "a": 1, "b": False}):
        with pytest.raises(ValueError):
            edges_from_descriptor(bad)
    for bad_edges in ([[0]], [5], [[0.5, 1]], [[0, 1, 2]], ["01"], [[True, 2]],
                      [[0, np.bool_(True)]]):
        with pytest.raises(InvalidEdge):
            edges_from_descriptor({"kind": "edges", "edges": bad_edges})
    with pytest.raises(InvalidEdge):
        build_instance(5, [(True, 2)])
    # the host size bounds a generated subgraph before any edge is made
    for too_large in ({"kind": "path", "k": 10**9}, {"kind": "matching", "k": 4},
                      {"kind": "star", "k": 6}, {"kind": "cycle", "k": 7},
                      {"kind": "complete_bipartite", "a": 3, "b": 4}):
        with pytest.raises(InvalidVertex):
            edges_from_descriptor(too_large, n=5)
    assert edges_from_descriptor({"kind": "path", "k": 5}, n=5) == path_edges(5)
    assert edges_from_descriptor({"kind": "cycle", "k": 6}, n=5) == cycle_edges(6)
    # and the labels of an explicit edge list
    for outside in ([[0, 6]], [[-1, 2]]):
        with pytest.raises(InvalidVertex):
            edges_from_descriptor({"kind": "edges", "edges": outside}, n=5)
    assert edges_from_descriptor({"kind": "edges", "edges": [[0, 5]]}, n=5) == [(0, 5)]


@pytest.mark.parametrize(
    "n,edges,expected",
    [
        (2, path_edges(2), True),  # spanning star on 3 vertices
        (2, [(0, 1)], False),
        (3, star_edges(3), True),
        (3, cycle_edges(4), True),  # 4-cycle is complete bipartite on 2+2
        (4, cycle_edges(5), False),  # odd cycle is not bipartite
        (4, K5_EDGES, False),  # not spanning
        (3, [(0, 1), (1, 2), (2, 3)], False),  # spanning path, not complete bipartite
    ],
)
def test_spanning_complete_bipartite_detection(n, edges, expected):
    assert build_instance(n, edges).is_spanning_complete_bipartite() is expected


def _bfs_spanning_complete_bipartite(n, edges):
    """Oracle: 2-colour the marked subgraph by search from one of its
    vertices; it is spanning complete bipartite when it covers all n+1
    vertices, the search reaches them all with no edge inside a colour, and
    every pair across the colours is an edge."""
    neighbours = {}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    if len(neighbours) != n + 1:
        return False
    start = next(iter(neighbours))
    colour, queue = {start: 0}, [start]
    while queue:
        u = queue.pop()
        for v in neighbours[u]:
            if v not in colour:
                colour[v] = 1 - colour[u]
                queue.append(v)
            elif colour[v] == colour[u]:
                return False
    left = sum(1 for c in colour.values() if c == 0)
    return len(colour) == n + 1 and len(edges) == left * (n + 1 - left)


def _assert_decision_matches_search(n, edges):
    expected = _bfs_spanning_complete_bipartite(n, edges)
    for orientation in ("canonical", "reversed"):
        g = build_instance(n, edges, orientation=orientation)
        assert g.is_spanning_complete_bipartite() is expected, (n, edges, orientation)
    return expected


@st.composite
def _labelled_graphs(draw):
    """A graph on at most 8 vertices in K_{n+1}, n in {s - 1, s, s + 3},
    on random labels, each edge given in a random direction."""
    k = draw(st.integers(2, 8), label="k")
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True), label="edges")
    touched = sorted({w for edge in edges for w in edge})
    s = len(touched)
    n = draw(st.sampled_from([h for h in (s - 1, s, s + 3) if h >= 2]), label="n")
    labels = draw(st.permutations(range(n + 1)), label="labels")
    relabel = {w: labels[i] for i, w in enumerate(touched)}
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return n, [
        (relabel[v], relabel[u]) if flip else (relabel[u], relabel[v])
        for (u, v), flip in zip(edges, flips)
    ]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graph=_labelled_graphs())
def test_spanning_complete_bipartite_matches_search(graph):
    _assert_decision_matches_search(*graph)


def test_every_small_complete_bipartite_graph_and_one_edge_less():
    for a in range(1, 8):
        for b in range(max(1, 3 - a), 9 - a):
            edges = complete_bipartite_edges(a, b)
            assert _assert_decision_matches_search(a + b - 1, edges)
            for i in range(len(edges)):
                fewer = edges[:i] + edges[i + 1 :]
                assert not _assert_decision_matches_search(a + b - 1, fewer)
