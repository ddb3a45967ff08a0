"""Classical search: expected hitting time of a marked edge.

The classical walker lives on the edges of the host graph (the vertices of
its line graph) and moves to one of the 2(n-1) edges sharing an endpoint,
uniformly.  Starting uniformly on the unmarked edges, the expected number
of steps until it stands on a marked edge is

    t_c = j^T (I - P)^{-1} j

with P the substochastic kernel on unmarked edges and j the normalized
all-ones vector.  With N the vertex-edge incidence of the unmarked edges,
I - P = (2nI - N^T N)/(2(n-1)), and the push-through identity gives

    t_c = (n-1)/n * [1 + h^T (M - 1 1^T)^{-1} h],   h = N j,

with M = (n+1)I + A + D, A and D the marked adjacency and its degrees.
``hitting_time`` evaluates that in vertex space, from one s x s solve; it
is the one t_c that ``classical``, ``speedup`` and the ledger report.  The
edge-space absorption solve (I - P) x = 1, whose mean is t_c, runs
matrix-free by conjugate gradients (``solve_absorption``), and the tests use
it as the oracle of the vertex path.
A seeded Monte-Carlo walker provides an independent estimate of the same
quantity.  Trial i draws from the stream of
``Generator(Philox(key=[seed, i]))``; the walker evaluates Philox4x64-10
(a pure function of key and counter) in numpy for every trial at once, turns
the draws into bounded integers with numpy's own method (Lemire's), and
steps all trials in lockstep, so its estimate equals, bit for bit, that of
a walk driven by per-trial numpy generators.  This module returns raw
quantities only; the ledger in ``bounds`` judges them against the spectral
brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.sparse.linalg import LinearOperator, cg

from .errors import (
    EmptyComplement,
    SolverFailure,
    StepCapExceeded,
    TooLarge,
    ZeroTrials,
)
from .operators import LineTransitionMatrix, build_Q
from .signed_graph import SignedCompleteGraph
from .spectral import quotient_lambda_max

__all__ = [
    "solve_absorption",
    "HittingTimeResult",
    "hitting_time",
    "mc_hitting_time",
    "STEP_CAP",
]

RESIDUAL_TOL = 1e-10
STEP_CAP = 10**8
# A refill of the Monte-Carlo streams holds at most _REFILL_DRAWS draws and
# starts at _FIRST_WIDTH per trial, which covers most K_3 and K_4 walks.
_REFILL_DRAWS = 2**16
_FIRST_WIDTH = 16
# Lemire's method on uint32 draws bounds at most 2**32 - 1 values; numpy
# switches to 64-bit draws above that.
_MAX_BOUND = 2**32 - 1
_LOW32 = np.uint64(0xFFFFFFFF)
# Philox4x64-10: the multipliers of counter words 0 and 2, and the key
# added in round r, r = 0..9, to the trial's key: r times the Weyl
# increments, modulo 2**64.
_PHILOX_MULT = np.array(
    [0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64
)[:, None, None]
_PHILOX_MULT_LO = _PHILOX_MULT & _LOW32
_PHILOX_MULT_HI = _PHILOX_MULT >> 32
_PHILOX_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_KEY_BUMPS = np.array(
    [[r * w % 2**64 for w in _PHILOX_WEYL] for r in range(10)], dtype=np.uint64
)[:, :, None, None]


@dataclass(frozen=True)
class HittingTimeResult:
    """Exact classical searching time with solver diagnostics.

    ``t_c`` is the expected absorption step count from the uniform start on
    unmarked edges and ``lambda_max_P`` the top eigenvalue of the line-graph
    kernel, with about 1e-16 absolute error (it can exceed 1 at n ~ 1e9);
    ``solver_residual`` is the relative residual (Frobenius norm) of the
    s x s vertex-space solve behind ``t_c`` (guaranteed <= 1e-10).
    """

    t_c: float
    lambda_max_P: float
    solver_residual: float


def solve_absorption(P: LineTransitionMatrix) -> tuple[np.ndarray, float]:
    """Solve (I - P) x = 1 on the edges and return (x, relative residual);
    the mean of x is t_c.

    Conjugate gradients at every size: the kernel has a single eigenvalue
    near 1 and the rest below ~1/2, which CG deflates in a handful of
    iterations.  This edge-space solve is the tests' oracle for
    ``hitting_time``.
    """
    edges = P.num_edges
    ones = np.ones(edges)
    # scipy checks the residual at the top of an iteration only, so an
    # exact step (one edge, or P = 0) needs one more iteration to report it.
    maxiter = min(edges, 20000) + 1

    # Residuals are evaluated with the mean of x split off: the constant
    # part of (I - P)x, (2n - d_u - d_v)/(2(n-1)) at the edge uv with d the
    # unmarked degrees, follows exactly from integer degree sums, and the
    # remainder has O(1) spread, so the summation error no longer scales
    # with the (large) magnitude of the absorption times.
    eu, ev = P.complement.edges.T
    deg = P.complement.degrees.astype(np.float64)
    ones_response = (2.0 * P.n - deg[eu] - deg[ev]) / P.moves

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
    """Classical searching time and lambda_max(P), in vertex space.

    M is (n+1)I outside the marked block, so Sherman-Morrison reduces
    h^T (M - 1 1^T)^{-1} h to three numbers.  With K = ((n+1)I + A + D)^{-1}
    on the block (eigenvalues in [n+1, n+1+2 max D], condition number at
    most 3), t = n+1-s, E the number of unmarked edges and h = N j scaled
    by sqrt(E) (n - D on the block, n on the rest),

        h^T M^{-1} h = h^T K h + t n^2/(n+1),
        h^T M^{-1} 1 = h^T K 1 + t n/(n+1),
        1 - 1^T M^{-1} 1 = 2 d^T K 1/(n+1),

    the last from (n+1) K 1 = 1 - 2 K d (d the degrees), so no difference
    of nearly equal terms is formed.  One Cholesky solve with the two
    right-hand sides (h, 1) on the block gives all three, in O(s^3) whatever
    n is.  lambda_max(P) = lambda_max(Q), since N^T N and N N^T share their
    nonzero spectrum, and comes from Q's equitable quotient.  Raises
    EmptyComplement when every edge is marked and SolverFailure when the
    solve's relative residual exceeds 1e-10.
    """
    t_c, residual = _searching_time(g)
    return HittingTimeResult(
        t_c=t_c,
        lambda_max_P=quotient_lambda_max(build_Q(g)),
        solver_residual=residual,
    )


def _searching_time(g: SignedCompleteGraph) -> tuple[float, float]:
    """``hitting_time``'s t_c and the relative residual of its order-s
    solve, without lambda_max(P): what the ledger reads."""
    n, s, t = g.n, g.s, g.t
    edges = n * (n + 1) // 2 - g.num_marked
    if edges == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    degrees = g.marked_block.sum(axis=1).astype(np.float64)
    block = g.marked_block.astype(np.float64)
    block[np.diag_indices(s)] = n + 1 + degrees
    h = n - degrees
    rhs = np.column_stack((h, np.ones(s)))
    try:
        solution = sla.cho_solve(sla.cho_factor(block), rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"Cholesky factorization failed: {exc}") from exc
    residual = float(np.linalg.norm(rhs - block @ solution) / np.linalg.norm(rhs))
    if not residual <= RESIDUAL_TOL:
        raise SolverFailure(f"residual {residual:.3e} above {RESIDUAL_TOL:.0e}")
    h_k, ones_k = solution.T
    quadratic = h @ h_k + t * n**2 / (n + 1)
    cross = h @ ones_k + t * n / (n + 1)
    denominator = 2.0 * (degrees @ ones_k) / (n + 1)
    t_c = (n - 1) / n * (1.0 + (quadratic + cross**2 / denominator) / edges)
    return float(t_c), residual


def mc_hitting_time(
    g: SignedCompleteGraph, trials: int, seed: int = 0
) -> tuple[float, float]:
    """Monte-Carlo estimate of the classical searching time.

    Each trial walks edge-to-edge on the host graph, starting uniformly on
    the unmarked edges and stopping when the current edge is marked.  Trial
    i takes its draws from the stream of ``Generator(Philox(key=[seed, i]))``
    exactly as ``integers(E)`` for the start edge (E unmarked edges; none is
    drawn when E = 1) and then ``integers(0, 2(n-1))`` for each step, so the
    estimate is independent of execution order.  The streams are generated
    here in numpy, every trial of a batch at once, and the trials step in
    lockstep; a refill holds at most 2**16 draws, 16 per trial at first,
    doubling as trials are absorbed.

    Returns (mean, standard error).  Raises ZeroTrials for fewer than one
    trial, ValueError unless 0 <= seed < 2**64, TooLarge when E or 2(n-1)
    exceeds the 2**32 - 1 values a uint32 draw can bound, EmptyComplement
    when every edge is marked, and StepCapExceeded when a trial is still
    walking after STEP_CAP steps (checked between refills).
    """
    if trials < 1:
        raise ZeroTrials(f"need at least one trial, got {trials}")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    n = g.n
    num_start = n * (n + 1) // 2 - g.num_marked
    if max(num_start, 2 * (n - 1)) > _MAX_BOUND:
        raise TooLarge(
            f"{num_start} unmarked edges and {2 * (n - 1)} moves: bounded uint32 "
            f"draws serve at most {_MAX_BOUND} values"
        )
    if num_start == 0:
        raise EmptyComplement("every edge of the host graph is marked")
    counts = np.empty(trials, dtype=np.float64)
    batch = _REFILL_DRAWS // _FIRST_WIDTH
    for first in range(0, trials, batch):
        _walk(g, seed, np.arange(first, min(first + batch, trials)), counts)
    mean = float(counts.mean())
    if trials == 1:
        return mean, 0.0
    return mean, float(counts.std(ddof=1) / np.sqrt(trials))


def _walk(
    g: SignedCompleteGraph, seed: int, trials: np.ndarray, counts: np.ndarray
) -> None:
    """Walk ``trials`` in lockstep and write their absorption step counts
    into ``counts``.

    A trial on the ordered pair (u, v) is held at its flat index u (n+1) + v.
    A step keeps u or v and moves the other end to the o-th of the n - 1
    other vertices in ascending order, o + [o >= min(u, v)] +
    [o >= max(u, v) - 1]; ``kept``, ``low`` and ``high`` hold those terms
    for every pair.
    """
    n = g.n
    stride = n + 1
    marked = g.marked_matrix.ravel()
    first, second = np.divmod(np.arange(stride * stride), stride)
    kept = np.concatenate((first, second)) * stride  # keeping v adds stride**2
    low = np.minimum(first, second)
    high = np.maximum(first, second) - 1
    # the unmarked edges (u, v), u < v, in the lexicographic order of
    # build_complement(g).edges
    start_pairs = np.flatnonzero((first < second) & ~marked)
    # A trial waiting for its start draw sits on the pair (0, 0), which is
    # never marked, and waits out every step.
    at = np.zeros(trials.size, dtype=np.int64)
    pending = np.ones(trials.size, dtype=bool)
    taken = np.zeros(trials.size, dtype=np.int64)  # steps before this refill
    counter, width = 1, _FIRST_WIDTH
    while trials.size:
        blocks = width // 8
        draws = _uint32_draws(_philox(seed, trials, counter, blocks))
        counter += blocks
        values, usable = _bounded(draws, 2 * (n - 1))
        lead = np.zeros(trials.size, dtype=np.int64)  # draws the start took
        if pending.any():
            rows = np.flatnonzero(pending)
            if start_pairs.size > 1:
                index, ok = _bounded(draws[rows], start_pairs.size)
                found, first_ok = ok.any(axis=1), ok.argmax(axis=1)
                lead[rows] = np.where(found, first_ok + 1, width)
                rows, index = rows[found], index[found, first_ok[found]]
            else:  # integers(1) draws nothing
                index = np.zeros(rows.size, dtype=np.int64)
            at[rows] = start_pairs[index]
            pending[rows] = False
        # every row's steps start at one column unless a start draw was rejected
        if lead.min() == lead.max():
            values, usable = values[:, lead[0] :], usable[:, lead[0] :]
        else:
            usable &= np.arange(width) >= lead[:, None]
        # A rejected draw (probability below k / 2**32) leaves its row fewer
        # steps: the accepted draws move to the front, and past ``have`` the
        # row waits for the next refill.
        have = np.full(trials.size, usable.shape[1])
        if not usable.all():
            order = np.argsort(~usable, axis=1, kind="stable")
            values = np.take_along_axis(values, order, axis=1)
            have = usable.sum(axis=1)
        short = int(have.min())
        # column j holds every row's (j+1)-th step: the kept end and offset o
        side, offset = np.divmod(values.T.astype(np.int64), n - 1)
        side *= stride * stride
        done = start = 0  # columns stepped; columns sliced off side and offset
        while side.size:
            for keep_v, o in zip(side, offset):
                step = kept[keep_v + at] + o + (o >= low[at]) + (o >= high[at])
                if done >= short:
                    step = np.where(have <= done, at, step)
                at = step
                done += 1
                hit = marked[at]
                if np.count_nonzero(hit):
                    break
            else:
                break
            counts[trials[hit]] = taken[hit] + done
            alive = ~hit
            trials, at, taken = trials[alive], at[alive], taken[alive]
            have, pending = have[alive], pending[alive]
            side, offset = side[done - start :, alive], offset[done - start :, alive]
            start = done
        if trials.size:
            taken += have
            if taken.max() >= STEP_CAP:
                raise StepCapExceeded(
                    f"trial {trials[taken.argmax()]} exceeded {STEP_CAP} steps"
                )
            width = min(2 * width, _REFILL_DRAWS // trials.size // 8 * 8)


def _philox(seed: int, keys: np.ndarray, counter: int, blocks: int) -> np.ndarray:
    """Philox4x64-10 (Salmon et al., SC 2011) under key (seed, k) for each
    k in ``keys``, at block counters counter, ..., counter + blocks - 1.

    Returns uint64 words of shape (keys.size, 4 * blocks) in stream order:
    ``Philox(key=[seed, k]).random_raw`` starts at counter 1.
    """
    key = np.empty((2, keys.size, 1), dtype=np.uint64)
    key[0] = seed
    key[1, :, 0] = keys
    # A round multiplies words 0 and 2 of the counter block ("even") and
    # folds the high halves into words 1 and 3 ("odd") under the round key.
    even = np.zeros((2, keys.size, blocks), dtype=np.uint64)
    even[0] = np.arange(counter, counter + blocks, dtype=np.uint64)
    odd = np.zeros_like(even)
    for round_key in key + _PHILOX_KEY_BUMPS:
        low = even * _PHILOX_MULT
        # high 64 bits of the 128-bit product, from 32-bit halves
        e_lo, e_hi = even & _LOW32, even >> 32
        lo_lo = e_lo * _PHILOX_MULT_LO
        t = e_hi * _PHILOX_MULT_LO + (lo_lo >> 32)
        s = e_lo * _PHILOX_MULT_HI + (t & _LOW32)
        high = e_hi * _PHILOX_MULT_HI + (t >> 32) + (s >> 32)
        even, odd = high[::-1] ^ odd ^ round_key, low[::-1]
    return np.stack((even[0], odd[0], even[1], odd[1]), axis=-1).reshape(keys.size, -1)


def _uint32_draws(words: np.ndarray) -> np.ndarray:
    """Split each uint64 word into two uint32 draws, low half first, as
    numpy's ``next_uint32`` does; the draws are held as uint64."""
    draws = np.empty(words.shape + (2,), dtype=np.uint64)
    draws[..., 0] = words & _LOW32
    draws[..., 1] = words >> 32
    return draws.reshape(words.shape[0], -1)


def _bounded(draws: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's method (ACM TOMACS 2019) for ``integers(0, bound)``, 1 <
    bound < 2**32: the values of ``draws`` below ``bound`` and whether
    each draw is accepted.  numpy rejects a draw whose low product half lies
    below (2**32 - bound) mod bound and takes the next one."""
    product = draws * np.uint64(bound)
    return product >> 32, (product & _LOW32) >= (2**32 - bound) % bound
