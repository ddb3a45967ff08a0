"""Reference Monte-Carlo walker for the classical-search tests: one
``Generator(Philox(key=[seed, trial]))`` constructed per trial, stepped one
draw at a time.

``edgewalk.classical_search.mc_hitting_time`` generates the same Philox
streams in numpy and steps all trials in lockstep instead; the per-trial
streams, and so the returned (mean, standard error), must be identical.
"""

import numpy as np

from edgewalk.edge_space import build_complement

CHUNK = 64


def per_trial_generator_mc(g, trials, seed):
    """(mean, standard error) of the edge walk's absorption step counts."""
    start_edges = build_complement(g).edges
    marked = g.marked_matrix
    n = g.n
    moves = 2 * (n - 1)
    counts = np.empty(trials, dtype=np.float64)
    for trial in range(trials):
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed, trial], dtype=np.uint64))
        )
        u, v = (int(x) for x in start_edges[int(rng.integers(len(start_edges)))])
        steps = 0
        absorbed = False
        while not absorbed:
            for r in rng.integers(0, moves, size=CHUNK):
                steps += 1
                if r < n - 1:
                    keep, w = u, int(r)
                else:
                    keep, w = v, int(r) - (n - 1)
                lo, hi = (u, v) if u < v else (v, u)
                if w >= lo:
                    w += 1
                if w >= hi:
                    w += 1
                u, v = keep, w
                if marked[u, v]:
                    absorbed = True
                    break
        counts[trial] = steps
    mean = float(counts.mean())
    if trials == 1:
        return mean, 0.0
    return mean, float(counts.std(ddof=1) / np.sqrt(trials))
