"""Classical search: expected hitting time of a marked edge.

The classical walker lives on the edges of the host graph (the vertices of
its line graph) and moves to one of the 2(n-1) edges sharing an endpoint,
uniformly.  Starting uniformly on the unmarked edges, the expected number
of steps until it stands on a marked edge is

    t_c = j^T (I - P)^{-1} j

with P the substochastic kernel on unmarked edges and j the normalized
all-ones vector, i.e. the mean of the absorption-time solve (I - P) x = 1,
which conjugate gradients run matrix-free at every size.
A seeded Monte-Carlo walker provides an independent estimate of the same
quantity.  This module returns raw quantities only; the ledger in
``bounds`` judges them against the spectral brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .errors import SolverFailure, StepCapExceeded, ZeroTrials
from .operators import LineTransitionMatrix, build_P
from .signed_graph import SignedCompleteGraph, build_complement
from .spectral import line_principal_pair

__all__ = [
    "solve_absorption",
    "HittingTimeResult",
    "hitting_time",
    "mc_hitting_time",
    "STEP_CAP",
]

RESIDUAL_TOL = 1e-10
STEP_CAP = 10**8
_MC_CHUNK = 64


@dataclass(frozen=True)
class HittingTimeResult:
    """Exact classical searching time with solver diagnostics.

    ``t_c`` is the expected absorption step count from the uniform start on
    unmarked edges; ``solver_residual`` is the relative residual of the
    linear solve (guaranteed <= 1e-10).
    """

    t_c: float
    lambda_max_P: float
    solver_residual: float


def solve_absorption(P: LineTransitionMatrix) -> tuple[np.ndarray, float]:
    """Solve (I - P) x = 1 and return (x, relative residual).

    Conjugate gradients at every size: the kernel has a single eigenvalue
    near 1 and the rest below ~1/2, which CG deflates in a handful of
    iterations.
    """
    edges = P.num_edges
    ones = np.ones(edges)
    # scipy checks the residual at the top of an iteration only, so an
    # exact step (one edge, or P = 0) needs one more iteration to report it.
    maxiter = min(edges, 20000) + 1

    # Residuals are evaluated with the mean of x split off: the constant
    # part of (I - P)x follows exactly from integer degree sums, and the
    # remainder has O(1) spread, so the summation error no longer scales
    # with the (large) magnitude of the absorption times.
    eu, ev = P.complement.edges.T
    deg = P.complement.degrees.astype(np.float64)
    ones_response = 1.0 - P.rate * (deg[eu] + deg[ev] - 2.0)

    def shortfall_of(x: np.ndarray) -> np.ndarray:
        center = x.mean()
        spread = x - center
        return ones - center * ones_response - (spread - P.matvec(spread))

    def true_residual(x: np.ndarray) -> float:
        return float(np.linalg.norm(shortfall_of(x)) / np.sqrt(edges))

    op = LinearOperator(
        (edges, edges),
        matvec=lambda v: v - P.matvec(v),
        dtype=np.float64,
    )
    x, info = cg(op, ones, rtol=1e-13, atol=0.0, maxiter=maxiter)
    if info != 0:
        raise SolverFailure(f"conjugate gradients stopped with info={info}")
    # The recursive CG residual drifts from the true one on this
    # ill-conditioned system; iterative refinement restores it.  Keep the
    # best iterate, since updates near the attainable floor can oscillate.
    best, best_residual = x, true_residual(x)
    for _ in range(5):
        if best_residual <= 0.5 * RESIDUAL_TOL:
            break
        delta, info = cg(op, shortfall_of(best), rtol=1e-8, atol=0.0, maxiter=maxiter)
        if info != 0:
            break
        candidate = best + delta
        candidate_residual = true_residual(candidate)
        if candidate_residual >= best_residual:
            break
        best, best_residual = candidate, candidate_residual
    if best_residual > RESIDUAL_TOL:
        raise SolverFailure(f"residual {best_residual:.3e} above {RESIDUAL_TOL:.0e}")
    return best, best_residual


def hitting_time(g: SignedCompleteGraph) -> HittingTimeResult:
    """Classical searching time via the absorption-time linear solve."""
    P = build_P(g)
    x, residual = solve_absorption(P)
    lam, _ = line_principal_pair(P)
    return HittingTimeResult(
        t_c=float(x.mean()), lambda_max_P=lam, solver_residual=residual
    )


def mc_hitting_time(
    g: SignedCompleteGraph, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of the classical searching time.

    Each trial walks edge-to-edge on the host graph, starting uniformly on
    the unmarked edges and stopping when the current edge is marked; trial i
    draws from its own counter-derived stream keyed by (seed, i), so the
    estimate is independent of execution order.  Returns (mean, standard
    error).  Raises ZeroTrials for fewer than one trial and ValueError
    unless 0 <= seed < 2**64.
    """
    if trials < 1:
        raise ZeroTrials(f"need at least one trial, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    delta = build_complement(g)
    start_edges = delta.edges
    marked = g.marked_matrix
    n = g.n
    moves = 2 * (n - 1)
    counts = np.empty(trials, dtype=np.float64)
    # One bit generator, restarted for each trial at key (seed, trial) from
    # its fresh state (counter 0, empty buffer): the stream of
    # Philox(key=[seed, trial]) without constructing one per trial, which
    # would also seed a SeedSequence from OS entropy that the key overrides.
    bit_generator = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    key = fresh["state"]["key"]
    for trial in range(trials):
        key[1] = trial
        bit_generator.state = fresh
        u, v = start_edges[int(rng.integers(len(start_edges)))]
        u, v = int(u), int(v)
        steps = 0
        absorbed = False
        while not absorbed:
            if steps > STEP_CAP:
                raise StepCapExceeded(
                    f"trial {trial} exceeded {STEP_CAP} steps"
                )
            for r in rng.integers(0, moves, size=_MC_CHUNK):
                steps += 1
                if r < n - 1:
                    keep, w = u, int(r)
                else:
                    keep, w = v, int(r) - (n - 1)
                # w indexes the sorted vertices excluding u and v
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
