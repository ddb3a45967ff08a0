"""The square-layout walk kernel against its oracles: the dense walk
operator for n <= 40 and the gather formula on the arc vector beyond."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgewalk import (
    arc_matrix,
    arc_vector,
    build_instance,
    build_T,
    build_U_dense,
    cycle_edges,
    evolve_state,
    finding_probability,
    initial_state,
    matching_edges,
    path_edges,
    principal_pair,
    quantum_time,
    run_series,
    star_edges,
    walk_arc_matrix,
)
from edgewalk.errors import DimensionMismatch
from walk_oracle import gather_walk

FAMILIES = {
    "path": path_edges(3),
    "star": star_edges(4),
    "matching": matching_edges(3),
    "cycle": cycle_edges(5),
}


def random_state(g, seed, complex_state):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=g.num_arcs)
    if complex_state:
        psi = psi + 1j * rng.normal(size=g.num_arcs)
    return psi / np.linalg.norm(psi)


def test_arc_matrix_layout():
    g = build_instance(6, [(0, 1), (1, 2)])
    psi = np.arange(1.0, g.num_arcs + 1.0)
    x = arc_matrix(g, psi)
    for a in range(g.num_arcs):
        u, v = g.arcs.pair(a)
        assert x[u, v] == psi[a]
    assert np.all(np.diag(x) == 0.0)
    assert np.array_equal(arc_vector(x), psi)
    # the transposed view reads every arc's reversal
    assert np.array_equal(arc_vector(x.T), psi[g.arcs.inverse_index])


@pytest.mark.parametrize("shape", [(9, 9), (6, 6), (7, 6), (49,), (7, 7, 1)], ids=repr)
def test_walk_refuses_a_state_of_another_order(shape):
    # a 9 x 9 state on n = 6 used to be walked as a host of 9 vertices
    g = build_instance(6, [(0, 1), (1, 2)])
    with pytest.raises(DimensionMismatch):
        walk_arc_matrix(g, np.zeros(shape), 1)
    x = arc_matrix(g, random_state(g, 1, False))
    assert walk_arc_matrix(g, x, 0) is x


@pytest.mark.parametrize("n", [7, 40])
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("orientation", ["canonical", "reversed"])
def test_kernel_matches_dense_U(n, family, orientation):
    # odd step counts return the transposed buffer, even ones the buffer
    g = build_instance(n, FAMILIES[family], orientation=orientation)
    U = build_U_dense(g)
    for complex_state in (False, True):
        psi = random_state(g, n, complex_state)
        expected = psi
        for steps in range(6):
            got = evolve_state(g, psi, steps)
            assert got.dtype == psi.dtype
            assert np.abs(got - expected).max() <= 1e-12
            expected = U @ expected


@pytest.mark.parametrize("n", [99, 300])
@pytest.mark.parametrize(
    "edges,orientation",
    [
        (path_edges(2), "canonical"),
        # every negative arc of a reversed star ends at its centre
        (star_edges(4), "reversed"),
    ],
)
def test_kernel_matches_gather_oracle(n, edges, orientation):
    g = build_instance(n, edges, orientation=orientation)
    psi = random_state(g, n, complex_state=True)
    states = gather_walk(g, psi, 7)
    for steps in (6, 7):
        assert np.abs(evolve_state(g, psi, steps) - states[steps]).max() <= 1e-12


@pytest.mark.parametrize(
    "n,edges,t_max", [(99, path_edges(3), 100), (300, [(0, 1)], 60)]
)
def test_series_matches_gather_walk(n, edges, t_max):
    g = build_instance(n, edges)
    states = gather_walk(g, initial_state(g), t_max)
    expected = [finding_probability(g, psi) for psi in states]
    assert np.abs(run_series(g, t_max).fp - expected).max() <= 1e-12


def test_norm_drift_after_two_searching_times():
    g = build_instance(400, [(0, 1)])
    t_f = quantum_time(principal_pair(build_T(g)))
    psi = evolve_state(g, initial_state(g), 2 * t_f)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-12


@pytest.mark.parametrize("orientation", ["canonical", "reversed"])
def test_marked_mass_reads_the_buffer_in_row_major_order(orientation):
    # fp[t] sums the marked entries of the buffer in row-major order, bit
    # for bit, whichever of X and X^T the buffer holds
    g = build_instance(9, [(3, 7), (7, 1), (0, 5), (5, 2)], orientation=orientation)
    psi = random_state(g, 4, True)
    steps = 5
    fp = np.empty(steps + 1)
    walk_arc_matrix(g, arc_matrix(g, psi), steps, fp=fp)
    rows, cols = np.nonzero(g.marked_matrix)
    for t in range(steps + 1):
        x = walk_arc_matrix(g, arc_matrix(g, psi), t)
        amp = (x.T if t % 2 else x)[rows, cols]
        assert fp[t] == float(np.vdot(amp, amp).real)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_property_random_instances(data):
    n = data.draw(st.integers(2, 60), label="n")
    edge = st.tuples(st.integers(0, n), st.integers(0, n)).filter(
        lambda e: e[0] != e[1]
    )
    edges = data.draw(st.lists(edge, min_size=1, max_size=8), label="edges")
    orientation = data.draw(st.sampled_from(["canonical", "reversed"]))
    steps = data.draw(st.integers(0, 9), label="steps")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    complex_state = data.draw(st.booleans(), label="complex")
    g = build_instance(n, edges, orientation=orientation)
    psi = random_state(g, seed, complex_state)
    states = gather_walk(g, psi, steps)
    fp = np.empty(steps + 1)
    x = walk_arc_matrix(g, arc_matrix(g, psi), steps, fp=fp)
    assert np.abs(arc_vector(x) - states[-1]).max() <= 1e-12
    expected_fp = [finding_probability(g, state) for state in states]
    assert np.abs(fp - expected_fp).max() <= 1e-12
