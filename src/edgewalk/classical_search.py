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
matrix-free by conjugate gradients (``edge_space.solve_absorption``), and
the tests use it as the oracle of the vertex path.  This module needs numpy
only: scipy's CG runs in ``edge_space`` alone.
A seeded Monte-Carlo walker provides an independent estimate of the same
quantity.  Trial i draws from the stream of
``Generator(Philox(key=[seed, i]))``; the walker evaluates Philox4x64-10
(a pure function of key and counter) in numpy for a pool of trials at once
and lays the draws out column-major, draw j of every live trial contiguous.
It turns them into bounded integers with numpy's own method (Lemire's) and
into step symbols inside the one work block of Philox's word planes, and
steps all trials in lockstep, one step of every trial on one contiguous
row, so its estimate equals, bit for bit, that of a walk driven by
per-trial numpy generators.  It does not walk pairs of vertices: in
canonical order the marked subgraph is 0..s-1, and whether a step lands on
one of its vertices or in the rest depends only on which of those s + 1
cells the edge's ends lie in and on min(o, s), o the step's offset.  So
the walker's state and its step rule take O(s^2) entries whatever n is,
and up to s = 29 a table of the rule over all 2(s+1) + 1 step symbols
makes a step of every trial one gather.  The start edge is drawn on the
edge orbits of ``operators.build_P_quotient``, with no table over the
host's vertex pairs.  This module returns raw quantities only; the ledger
in ``bounds`` judges them against the spectral brackets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverFailure, StepCapExceeded, TooLarge, ZeroTrials
from .operators import _unmarked_edges, build_P_quotient
from .signed_graph import SignedCompleteGraph, _index
from .spectral import companion_spectra

__all__ = [
    "HittingTimeResult",
    "hitting_time",
    "mc_hitting_time",
    "STEP_CAP",
]

RESIDUAL_TOL = 1e-10
STEP_CAP = 10**8
# A refill of the Monte-Carlo streams holds at most _REFILL_DRAWS draws and
# starts at _FIRST_WIDTH per trial, one Philox block, which covers most K_3
# and K_4 walks.
_REFILL_DRAWS = 2**16
_FIRST_WIDTH = 8
# The walker's step table has 2(s+1) + 1 symbols x (s+3)^2 pairs of ends,
# about 2 s^3 entries.  Above this many (s > 29) it is not built, and each
# column of steps applies the rule instead.  Near the limit the table's
# build (0.5 ms at s = 29, 2.5 ms at s = 41) and its faster columns about
# even out for a few hundred trials of a path on 60 vertices.
_STEP_TABLE_LIMIT = 2**16
# Lemire's method on uint32 draws bounds at most 2**32 - 1 values; numpy
# switches to 64-bit draws above that.
_MAX_BOUND = 2**32 - 1
_LOW32 = np.uint64(0xFFFFFFFF)
# Philox4x64-10: the multipliers of counter words 0 and 2, and the Weyl
# increments added to the key after each round, modulo 2**64.
_PHILOX_MULT = np.array(
    [0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64
)[:, None, None]
_PHILOX_MULT_LO = _PHILOX_MULT & _LOW32
_PHILOX_MULT_HI = _PHILOX_MULT >> 32
_PHILOX_WEYL = np.array(
    [0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64
)[:, None, None]


@dataclass(frozen=True)
class HittingTimeResult:
    """Exact classical searching time with solver diagnostics.

    ``t_c`` is the expected absorption step count from the uniform start on
    unmarked edges and ``lambda_max_P`` the top eigenvalue of the line-graph
    kernel, within 2.4 ulp of a 40-digit solve on 64 random ledger instances
    (it reads 1 + 2^-52 at n = 1e9); ``solver_residual`` is the relative
    residual (Frobenius norm) of the s x s solve behind ``t_c`` (<= 1e-10).
    """

    t_c: float
    lambda_max_P: float
    solver_residual: float


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
    of nearly equal terms is formed.  One solve of the symmetric positive
    definite block with the two right-hand sides (h, 1) gives all three, in
    O(s^3) whatever n is.  lambda_max(P) = lambda_max(Q) (N^T N and N N^T
    share their nonzero spectrum), from ``companion_spectra``.  Raises
    EmptyComplement when every edge is marked and SolverFailure when the
    solve's relative residual exceeds 1e-10.
    """
    t_c, residual = _searching_time(g)
    return HittingTimeResult(
        t_c=t_c,
        lambda_max_P=companion_spectra(g)[2].lambda_max,
        solver_residual=residual,
    )


def _searching_time(g: SignedCompleteGraph) -> tuple[float, float]:
    """``hitting_time``'s t_c and the relative residual of its order-s
    solve, without lambda_max(P): what the ledger reads."""
    n, s, t = g.n, g.s, g.t
    edges = _unmarked_edges(g)
    degrees = g.degrees.astype(np.float64)
    block = g.marked_block.astype(np.float64)
    block[np.diag_indices(s)] = n + 1 + degrees
    h = n - degrees
    rhs = np.column_stack((h, np.ones(s)))
    try:
        solution = np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"the order-{s} block solve failed: {exc}") from exc
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
    here in numpy, every live trial of one pool at once, and the trials step
    in lockstep on pairs of cells (see ``_walk``); a refill holds at most
    2**16 draws, one Philox block (8 draws) per trial when fresh trials join
    the pool, doubling as trials are absorbed once none are left to join.

    Returns (mean, standard error).  Raises TypeError unless ``trials`` and
    ``seed`` are integers (a float or a bool is not, as for n), ZeroTrials
    for fewer than one trial, ValueError unless 0 <= seed < 2**64,
    EmptyComplement when every edge is marked, TooLarge when E or 2(n-1)
    exceeds the 2**32 - 1 values a uint32 draw can bound (before anything is
    built), and StepCapExceeded when a trial is still walking after
    STEP_CAP steps (between refills).
    """
    trials, seed = _index(trials), _index(seed)
    if trials < 1:
        raise ZeroTrials(f"need at least one trial, got {trials}")
    _check_seed(seed)
    num_start, moves = _unmarked_edges(g), 2 * (g.n - 1)
    if max(num_start, moves) > _MAX_BOUND:
        raise TooLarge(
            f"{num_start} unmarked edges and {moves} moves: bounded uint32 "
            f"draws serve at most {_MAX_BOUND} values"
        )
    counts = _walk(g, seed, trials)
    mean = float(counts.mean())
    if trials == 1:
        return mean, 0.0
    return mean, float(counts.std(ddof=1) / np.sqrt(trials))


def _check_seed(seed: int) -> None:
    """Raise ValueError unless 0 <= seed < 2**64, the first word of every
    trial's Philox key; ``classical`` checks it before any work."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")


def _walk(g: SignedCompleteGraph, seed: int, trials: int) -> np.ndarray:
    """The absorption step counts of trials 0, ..., ``trials`` - 1.

    The graph is in canonical order, so the marked subgraph's vertices are
    0..s-1, and an end of the walker's edge lies in one of s + 1 cells: one
    of those vertices, or the rest.  A trial is held at its ordered pair of
    ends, first (s+3) + second, each end a vertex of the subgraph or one of
    the labels s, s + 1 and s + 2, which all stand for the rest (see
    ``_cell_rule``); a pair of two marked-adjacent vertices absorbs, and a
    trial starts on the pair of its start edge's orbit (``_start_orbits``).
    The step symbol of a draw is side (s+1) + min(o, s), for the kept end
    and the offset o of the moved end's new vertex, or the stay symbol 2
    (s+1) for a draw a trial cannot take.  A refill's draws, and so its
    symbols, are held column-major, a row per draw and a column per live
    trial, so a column of steps, one step of every trial, reads one
    contiguous row.  The draws fill the top two of ``_philox``'s six word
    planes, ``_bounded`` puts Lemire's products in the four below, and the
    uint32 symbols are gathered over the spent draws.  The step is
    ``_cell_rule``'s rule, written once: up to ``_STEP_TABLE_LIMIT``
    entries ``_step_table`` evaluates it on every symbol and pair, so a
    column of steps is one gather, and above it each column calls it.
    The live trials form one pool of at most ``_REFILL_DRAWS // _FIRST_WIDTH``:
    fresh trials join the last refill's stragglers, and then a refill runs at
    ``_FIRST_WIDTH``.  A trial's draws before its start draw and its rejected
    draws are stays ahead of its steps.  Absorbed trials stay in place until
    the refill ends.
    """
    num_start, start_pair = _start_orbits(g)
    n, s = g.n, g.s
    cells, pairs = s + 1, (s + 3) ** 2
    rule, absorbing = _cell_rule(g)
    table = _step_table(rule, absorbing, s)
    # one symbol per move value, and the stay symbol last; on the table
    # they are scaled to the table's rows
    side, offset = np.divmod(np.arange(2 * (n - 1), dtype=np.uint32), n - 1)
    symbols_of = np.append(side * cells + np.minimum(offset, s), np.uint32(2 * cells))
    if table is not None:
        symbols_of *= pairs
    stay = symbols_of[-1]
    # One block, the Philox word planes and keys of the largest refill; a
    # refill's draws, products and symbols live in its planes.  Freed as one
    # chunk, it lifts glibc's dynamic mmap and trim thresholds above its own
    # size, so the next call takes the same heap pages again; as separate
    # chunks they were handed back and faulted in anew on each call
    # (hundreds of page faults on K_4 with 10^4 trials), or not, by where
    # the heap top happened to lie.  The pool's state (trial, pair, pending
    # start, steps, next block < STEP_CAP / 8) has arrays of its own.
    pool = min(_REFILL_DRAWS // _FIRST_WIDTH, trials)
    work = np.empty(12 * (_REFILL_DRAWS // 8) + 2 * pool, dtype=np.uint64)
    keys, at = np.empty((2, pool), dtype=np.intp)
    pending, taken, counter = (np.empty(pool, t) for t in (bool, np.int64, np.uint32))

    counts = np.empty(trials, dtype=np.float64)
    live = admitted = 0
    while live or admitted < trials:
        joining = min(pool - live, trials - admitted)
        if joining:
            # waiting for its start draw, a trial stays on (0, 0), never absorbing
            new = slice(live, live + joining)
            keys[new] = np.arange(admitted, admitted + joining)
            at[new], pending[new], taken[new], counter[new] = 0, True, 0, 1
            live, admitted = live + joining, admitted + joining
        width = _FIRST_WIDTH if joining else min(2 * width, _REFILL_DRAWS // live // 8 * 8)
        blocks = width // 8
        draws = _philox(seed, keys[:live], counter[:live], blocks, work)
        counter[:live] += blocks
        pair, waiting, before = at[:live], pending[:live], taken[:live]
        lead = np.zeros(live, dtype=np.intp)  # draws the start took
        if waiting.any():
            starting = np.flatnonzero(waiting)
            index = 0
            if num_start > 1:  # integers(1) draws nothing
                index, lead[starting], found = _first_accepted(draws, starting, num_start)
                starting, index = starting[found], index[found]
            pair[starting] = start_pair(index)
            waiting[starting] = False
            del starting, index
        # Lemire's products fill planes 0-3, the symbols the spent draws
        values = work[: width * live].reshape(width, live)
        values, usable = _bounded(draws, 2 * (n - 1), values)
        symbols = np.take(symbols_of, values.view(np.int64), out=draws, mode="clip")
        # steps follow the start draw: a trial that starts late stays till then
        start, late = int(lead.min()), int(lead.max())
        symbols, usable = symbols[start:], usable[start:]
        if late > start:
            stays = np.arange(start, late)[:, None] < lead
            symbols[: late - start][stays] = stay
            usable[: late - start] |= stays
            before -= lead - start
        del lead
        # A rejected draw (probability below k / 2**32) is a stay too: it
        # moves to the front, and the trial's accepted draws follow in order.
        if not usable.all():
            short = np.flatnonzero(~usable.all(axis=0))
            accepted = usable[:, short]
            trial_symbols = np.where(accepted, symbols[:, short], stay)
            order = np.argsort(accepted, axis=0, kind="stable")
            symbols[:, short] = np.take_along_axis(trial_symbols, order, axis=0)
            before[short] -= np.count_nonzero(~accepted, axis=0)
        hit, absorbed = np.zeros(live, dtype=bool), 0
        for done, column in enumerate(symbols, 1):
            if table is None:
                side, o = np.divmod(column, cells)
                pair = rule(side.astype(np.intp) * pairs, o, pair)
            else:
                pair = table[pair + column]
            now = absorbing[pair]
            count = np.count_nonzero(now)
            if count > absorbed:
                fresh = np.flatnonzero(now ^ hit)
                counts[keys[fresh]] = before[fresh] + done
                hit, absorbed = now, count
                if absorbed == live:
                    break
                if table is None:  # the table keeps absorbing pairs; here
                    # the absorbed trials take the stay symbol from now on
                    symbols[done:, fresh] = stay
        before += symbols.shape[0]
        walking = np.flatnonzero(~hit)
        for state in keys, pending, taken, counter:
            state[: walking.size] = state[walking]
        at[: walking.size] = pair[walking]
        live = walking.size
        if live and taken[:live].max() >= STEP_CAP:
            raise StepCapExceeded(
                f"trial {keys[taken[:live].argmax()]} exceeded {STEP_CAP} steps"
            )
    return counts


def _start_orbits(g: SignedCompleteGraph) -> tuple[int, Callable]:
    """E and the pair of ends a (s+3) + b that each start draw 0..E-1 takes.
    In row-major order of their cells (a, b), the rest s last, the edge
    orbits (``build_P_quotient``) are the runs of the unmarked edges in
    lexicographic order, so draw i lies in the first orbit whose cumulative
    size exceeds i."""
    P = build_P_quotient(g)
    a, b = P.pairs.T
    order = np.lexsort((b, a))
    bounds, ends = np.cumsum(P.orbit_sizes[order]), (a * (g.s + 3) + b)[order]
    return int(bounds[-1]), lambda i: ends[np.searchsorted(bounds, i, side="right")]


def _first_accepted(
    draws: np.ndarray, columns: np.ndarray, bound: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first accepted ``integers(0, bound)`` value in each of ``columns``
    of ``draws``, the number of draws it took (the column's length when none
    is accepted) and whether one was.  Only columns whose first draw is
    rejected are bounded past it."""
    head = draws[0, columns]
    values, accepted = _bounded(head, bound, np.empty_like(head, np.uint64))
    values = values.astype(np.intp)
    taken = np.ones(columns.size, dtype=np.intp)
    late = np.flatnonzero(~accepted)
    if late.size:
        late_draws = draws[:, columns[late]]
        late_values = np.empty_like(late_draws, np.uint64)
        late_values, late_accepted = _bounded(late_draws, bound, late_values)
        first, each = late_accepted.argmax(axis=0), np.arange(late.size)
        accepted[late] = late_accepted[first, each]
        values[late] = late_values[first, each]
        taken[late] = np.where(accepted[late], first + 1, draws.shape[0])
    return values, taken, accepted


def _cell_rule(g: SignedCompleteGraph) -> tuple[Callable, np.ndarray]:
    """The walker's step on pairs of ends, ``rule(base, o, at)``, and
    ``absorbing``.

    An end is a vertex 0..s-1 of the marked subgraph or a label s, s + 1 or
    s + 2 of the rest, and the pair (a, b) is a (s+3) + b.  A step on side
    0 keeps the first end and on side 1 the second, and moves the other to
    the o-th of the n - 1 other vertices in ascending order, o + [o >= low]
    + [o >= high], low and high the smaller end and the larger one less 1:
    from the pair ``at`` with ``base`` = side (s+3)^2 it lands on

        kept[base + at] + o + (o >= low[at]) + (o >= high[at]).

    Which cell that lands in depends only on the cells of the ends and on
    min(o, s): from o = s on it is the rest, and two ends in the rest act
    as its distinct vertices s and s + 1.  With o capped at s the new end
    is at most s + 2, a label of the rest, so no step needs a cap.  Side 2
    with offset 0, the stay symbol, keeps the pair.  ``absorbing`` marks
    the pairs of two marked-adjacent vertices.  The arrays hold six entries
    per pair, whatever n is, and the rule's arguments broadcast.
    """
    s = g.s
    stride = s + 3
    ends = np.arange(stride)
    cell = np.minimum(ends, s)
    low = np.minimum.outer(cell, cell)
    high = np.maximum.outer(cell, cell)
    high -= 1
    high[s:, s:] = s  # two rest ends: max(s, s + 1) - 1
    absorbing = np.zeros((stride, stride), dtype=bool)
    absorbing[:s, :s] = g.marked_block
    # by side, the kept end's row of pairs; on the stay side the pair less
    # the two terms an offset of 0 adds back
    kept = np.empty((3, stride, stride), dtype=np.intp)
    kept[0], kept[1] = ends[:, None] * stride, ends * stride
    np.add(kept[0], ends, out=kept[2])
    kept[2] -= low <= 0
    kept[2] -= high <= 0
    kept, low, high = kept.ravel(), low.ravel(), high.ravel()

    def rule(base: np.ndarray, o: np.ndarray, at: np.ndarray) -> np.ndarray:
        return kept[base + at] + o + (o >= low[at]) + (o >= high[at])

    return rule, absorbing.ravel()


def _step_table(rule: Callable, absorbing: np.ndarray, s: int) -> np.ndarray | None:
    """``rule`` from every pair on each of the 2 (s+1) + 1 symbols, entry
    symbol (s+3)^2 + pair, with every ``absorbing`` pair kept; None above
    ``_STEP_TABLE_LIMIT`` entries, where the walker applies the rule to
    each column of steps instead."""
    pairs = (s + 3) ** 2
    symbols = 2 * (s + 1) + 1
    if symbols * pairs > _STEP_TABLE_LIMIT:
        return None
    side, o = np.divmod(np.arange(symbols)[:, None], s + 1)
    at = np.arange(pairs)
    return np.where(absorbing, at, rule(side * pairs, o, at)).ravel()


def _philox(
    seed: int, keys: np.ndarray, counter: int | np.ndarray, blocks: int, work: np.ndarray
) -> np.ndarray:
    """Philox4x64-10 (Salmon et al., SC 2011) under key (seed, k) for each
    k in ``keys``, at block counters counter, ..., counter + blocks - 1
    (``counter`` one for all keys or one for each).

    Returns the uint32 draws column-major, shape (8 blocks, keys.size): row
    j holds draw j of every key, as numpy's ``next_uint32`` takes them from
    ``Philox(key=[seed, k]).random_raw`` (which starts at counter 1), the
    low half of each word, then its high half.  The rounds run on (2,
    blocks, keys.size) arrays in ``work`` (at least 12 keys.size blocks + 2
    keys.size words), keys innermost, so the round keys are read along
    contiguous memory; the draws are a view of its top two word planes, and
    its first 8 keys.size blocks words, planes 0-3, are free on return.
    """
    rows = keys.size
    size = 2 * rows * blocks
    # A round multiplies words 0 and 2 of the counter block ("even") and
    # folds the high halves into words 1 and 3 ("odd") under the round key.
    even, odd, low, e_lo, lo_lo, t = (
        work[i * size : (i + 1) * size].reshape(2, blocks, rows) for i in range(6)
    )
    key = work[6 * size : 6 * size + 2 * rows].reshape(2, 1, rows)
    key[0] = seed
    key[1, 0] = keys
    np.add(np.arange(blocks, dtype=np.uint64)[:, None], counter, out=even[0])
    even[1] = 0
    odd[...] = 0
    for _ in range(10):
        np.multiply(even, _PHILOX_MULT, out=low)
        # high 64 bits of the 128-bit product, from 32-bit halves
        np.bitwise_and(even, _LOW32, out=e_lo)
        np.right_shift(even, 32, out=even)
        np.multiply(e_lo, _PHILOX_MULT_LO, out=lo_lo)
        np.right_shift(lo_lo, 32, out=lo_lo)
        np.multiply(even, _PHILOX_MULT_LO, out=t)
        t += lo_lo
        np.multiply(e_lo, _PHILOX_MULT_HI, out=e_lo)
        np.bitwise_and(t, _LOW32, out=lo_lo)
        e_lo += lo_lo
        np.multiply(even, _PHILOX_MULT_HI, out=even)
        np.right_shift(t, 32, out=t)
        even += t
        np.right_shift(e_lo, 32, out=e_lo)
        even += e_lo
        odd ^= even[::-1]
        odd ^= key
        key += _PHILOX_WEYL
        even, odd, low = odd, low[::-1], even
    # The draws take the place of the halves lo_lo and t, the top two
    # planes, by block, word pair (0, 1) or (2, 3), word of the pair and
    # half; the cast to uint32 keeps a word's low half, and e_lo, plane 3,
    # holds its high half.
    draws = work[4 * size : 6 * size].view(np.uint32).reshape(blocks, 2, 2, 2, rows)
    high = e_lo.transpose(1, 0, 2)
    for i, words in enumerate((even, odd)):
        words = words.transpose(1, 0, 2)
        draws[:, :, i, 0] = words
        np.right_shift(words, 32, out=high)
        draws[:, :, i, 1] = high
    return draws.reshape(8 * blocks, rows)


def _bounded(
    draws: np.ndarray, bound: int, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's method (ACM TOMACS 2019) for ``integers(0, bound)``, 1 <
    bound < 2**32, on the uint32 ``draws``: ``values`` (uint64, of their
    shape) takes the products draw * bound, and the draws, which are spent,
    their low halves.  numpy rejects a draw whose low half lies below (2**32
    - bound) mod bound and takes the next one.  Returns ``values``, shifted
    in place to the values below ``bound``, and whether each is accepted."""
    np.multiply(draws, bound, out=values, dtype=np.uint64)
    np.copyto(draws, values, casting="unsafe")  # modulo 2**32, any byte order
    accepted = draws >= (2**32 - bound) % bound
    values >>= np.uint64(32)
    return values, accepted
