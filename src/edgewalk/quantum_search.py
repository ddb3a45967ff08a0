"""Quantum search: exact walk simulation and its closeness diagnostics.

The walk U = S(2 d* d - I) maps L = range[d*, S d*] into itself:
U (d* a + S d* b) = d* (-b) + S d* (a + 2 T b), and on the orthogonal
complement of L it acts as -S.  This spectral-mapping structure, which
``spectral.lift_eigenvectors`` also rests on, is exact, so a state
d* a + S d* b of L is walked as the pair of vertex vectors (a, b).  Both
walks below start from vectors that are constant on the t = n+1-s vertices
outside the marked subgraph (the rest), are forced by such a vector, and T
maps such vectors to such vectors, so a and b are held on the order-(s+1)
quotient: the s entries on the marked subgraph's vertices, then the one
value on the rest, k = s + 1 values in all (k = s when t = 0).  There
n T b = <1, b> 1 - b - 2 A b with <1, b> = sum b_block + t b_rest, and A b
sums b over the 2m marked arcs: T's ``VertexMatrix.numerator_product``.  The walk carries the augmented state
X_t = [b_t; b_{t-1}; c_t], where c_t = (-1)^t forces the uniform state's
pair and c_t = 0 leaves a pair unforced.  Its step is written once, as
b_{t+1} = (2/n) nT b_t - b_{t-1} + 2 c_t d j with n T b applied at
O(s + m) (on x86-64 about 9 to 23 us for one column at k = 41 to 401,
16 to 70 us for two).  It is linear, and its image of the identity is the
(2k+1)-square step matrix

    C = [[(2/n) nT, -I, 2 d j], [I, 0, 0], [0, 0, -1]],

so on a quotient of order k <= ``_DENSE_STEP_ORDER`` (20, or 0 where long
double is float64) the walk takes one long-double product with C, O(k^2)
per column (about 1.0 to 2.1 us at k <= 5, for one column or two).
Either way a step costs the same whatever n is, against O(n^2) for a step
over every arc.  Two walks use it:

- ``run_series``: the uniform state j has S j = j, so U j = -j + 2 S d* (d j)
  and U^t j = (-1)^t j + d* a_t + S d* b_t, where (a, b) starts at (0, 0)
  and each step adds the forcing 2 (-1)^t d j to b: X_0 = [0; 0; 1].
  Row t of the series' readout block is X_t, and the finding
  probability at step t is the squared mass of that state on the 2m marked
  arcs, read from b_t and b_{t-1} in that row.
- ``asymptotic_diagnostics``: the start i beta_- is (0, f), the target
  -beta_+ is (-f, cos theta f) / sin theta, and the rotation gap is the norm
  of the difference after t_f steps under the Gram matrix [[I, T], [T, I]]
  of the (a, b) coordinates, with weight t on the rest value.  The start
  gap and the target mass have closed forms in f (see the function), so no
  arc-indexed state is formed.

The Gram matrix has the eigenvalue 1 - lambda_max, which comes close to 0,
so coordinates of size 1/sin theta carry a unit state.  In float64 the
cancellation that leaves the small rotation gap would cost one to two digits
more than the arc walk does, so the recurrence and the gap's quadratic form
run in long double.  That gain assumes an 80-bit or wider ``np.longdouble``
(x86-64 Linux).  Where long double is float64 (Windows, macOS on arm64)
``rotation_gap_sq`` carries up to about 2.9e-9 relative error at n <= 400
(against 2.5e-10 for the arc walk), about 1e-15 absolute and far inside its
16m / (n(n+1)) bound; where it is a software binary128 (aarch64 Linux) the
results are as accurate but each step is slower, most of all the dense
product with C, which has no BLAS behind it either way.
``operators.walk_arc_matrix`` walks arbitrary arc states (``evolve_state``,
``apply_U``) and is the tests' oracle for both walks, next to the same pair
walk on (n+1)-vectors.  The searching time
t_f = floor(pi / (2 theta_max)) comes from the spectrum, never from the
simulated peak.

The diagnostics measure how well the rotation picture approximates the
walk: the distance of the evolved vector U^{t_f}(i beta_-) from -beta_+, the
distance of the start i beta_- from the uniform state, and the marked-arc
mass of -beta_+.  They are raw quantities; the ledger in ``bounds`` judges
each against its closed-form bound under the hypothesis the bound requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch, LostPrecision
from .operators import arc_matrix, arc_vector, build_T, cell_sizes, walk_arc_matrix
from .signed_graph import SignedCompleteGraph, _index
from .spectral import SpectralSummary, principal_pair

__all__ = [
    "WalkSeries",
    "WalkDiagnostics",
    "initial_state",
    "finding_probability",
    "quantum_time",
    "evolve_state",
    "run_series",
    "asymptotic_diagnostics",
]


def initial_state(g: SignedCompleteGraph) -> np.ndarray:
    """Uniform unit state over the n(n+1) arcs."""
    num = g.num_arcs
    return np.full(num, 1.0 / np.sqrt(num))


def finding_probability(g: SignedCompleteGraph, psi: np.ndarray) -> float:
    """Squared amplitude mass on the marked arcs; lies in [0, 1]."""
    psi = np.asarray(psi)
    if psi.shape != (g.num_arcs,):
        raise DimensionMismatch(
            f"state of shape {psi.shape} against {g.num_arcs} arcs"
        )
    return float(np.sum(np.abs(psi[g.marked_arc_indices]) ** 2))


def quantum_time(summary: SpectralSummary) -> int:
    """Quantum searching time floor(pi / (2 theta_max)); a summary has theta_max > 0."""
    return int(math.floor(math.pi / (2.0 * summary.theta_max)))


def evolve_state(g: SignedCompleteGraph, psi: np.ndarray, steps: int) -> np.ndarray:
    """Apply the walk operator ``steps`` times to an arc-indexed state.

    Raises DimensionMismatch for a state of the wrong shape, TypeError
    unless ``steps`` is an integer and ValueError when it is negative.
    """
    return arc_vector(walk_arc_matrix(g, arc_matrix(g, psi), steps))


@dataclass(frozen=True)
class WalkSeries:
    """Finding-probability series of an exact sequential walk.

    ``fp[t]`` is the probability after t applications of the walk operator
    to the uniform state, so ``fp[0] = 2m / (n(n+1))`` is the pre-walk mass.
    ``t_f`` and ``fp_at_tf`` are filled from the spectrum when its angle
    resolves and is nonzero (``fp_at_tf`` additionally requires t_f <= t_max).
    """

    t_max: int
    fp: np.ndarray
    t_f: Optional[int]
    fp_at_tf: Optional[float]
    degenerate: bool


def run_series(
    g: SignedCompleteGraph, t_max: int, summary: Optional[SpectralSummary] = None
) -> WalkSeries:
    """Exact finding-probability series for t = 0..t_max.

    The evolution is sequential (no spectral shortcut) and deterministic:
    U^t j - (-1)^t j lies in L and is walked as a vertex pair forced by
    2 (-1)^t d j, on the order-(s+1) quotient (see the module docstring), so
    a step costs O(s^2) on a small quotient and O(s + m) on a large one,
    and no linear system is solved.  The marked arcs are read out in blocks
    of steps, so the memory does not grow with ``t_max``.  A degenerate spectrum, or one whose angle is lost to
    rounding (LostPrecision), only leaves the searching-time fields unset.
    ``summary``, when the caller already holds the principal pair of the
    instance, is used for t_f instead of solving the eigenproblem again.
    Raises TypeError unless ``t_max`` is an integer (a bool is not).
    """
    t_max = _index(t_max)
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    fp = _uniform_series(g, t_max)
    t_f: Optional[int] = None
    fp_at_tf: Optional[float] = None
    degenerate = False
    try:
        if summary is None:
            summary = principal_pair(build_T(g))
        t_f = quantum_time(summary)
        if t_f <= t_max:
            fp_at_tf = float(fp[t_f])
    except (DegenerateSpectrum, LostPrecision) as exc:
        degenerate = isinstance(exc, DegenerateSpectrum)
    fp.setflags(write=False)
    return WalkSeries(
        t_max=t_max, fp=fp, t_f=t_f, fp_at_tf=fp_at_tf, degenerate=degenerate
    )


@dataclass(frozen=True)
class WalkDiagnostics:
    """Rotation-picture quantities of one instance.

    ``rotation_gap_sq`` is ||U^{t_f}(i beta_-) - (-beta_+)||^2,
    ``start_gap_sq`` is ||i beta_- - j||^2, ``target_mass`` is the squared
    mass of -beta_+ on the marked arcs, and ``fp_at_tf`` the simulated
    finding probability at the searching time.
    """

    lambda_max: float
    theta_max: float
    t_f: int
    rotation_gap_sq: float
    start_gap_sq: float
    target_mass: float
    fp_at_tf: float


def asymptotic_diagnostics(
    g: SignedCompleteGraph, summary: Optional[SpectralSummary] = None
) -> WalkDiagnostics:
    """Evaluate the rotation-picture quantities exactly, at O(s + m) memory.

    The principal vector f is constant on the rest, and is read as its s
    entries on the marked subgraph's vertices and its rest value (the
    quotient's ``summary.principal``, its rest entry over sqrt(t)).  With
    j_V = 1 / sqrt(n+1), sums over the vertices weighted by t at the rest
    value, and sums over the m negative arcs (o, t):

    - ``start_gap_sq`` = ||f - j_V||^2 + 4 sum f_t / (n sqrt(n+1)), since S is
      unitary and S j = j;
    - ``target_mass`` = sum [(cos theta f_o + f_t)^2 + (cos theta f_t + f_o)^2]
      / (n sin^2 theta), the entries of -beta_+ on the marked arcs;
    - ``rotation_gap_sq`` walks (0, f) for t_f steps as a vertex pair (a, b)
      on the quotient and reads the squared norm of (da, db) =
      (a + f / sin theta, b - cos theta f / sin theta) through the Gram
      matrix [[I, T], [T, I]] of L, in long double.

    ``fp_at_tf`` is ``run_series``'s finding probability at t_f: the uniform
    state's forced pair walks beside (0, f), as a second column of the same
    walk.  Raises DegenerateSpectrum when the rotation angle vanishes.
    ``summary`` is the principal pair of the instance when the caller has
    already solved for it on g's quotient (DimensionMismatch otherwise).
    """
    if summary is None:
        summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    n, root, weights = g.n, np.sqrt(g.n + 1), cell_sizes(g.s, g.t)
    if summary.principal.shape != weights.shape:
        raise DimensionMismatch(
            f"{summary.principal.size} quotient coordinates, g has {weights.size}"
        )
    f = summary.principal / np.sqrt(weights)
    neg_o, neg_t = g.negative_arcs
    start_gap_sq = weights @ (f - 1.0 / root) ** 2 + 4.0 * np.sum(f[neg_t]) / (n * root)
    # sqrt(n) sin theta times -beta_+ on the arcs (o, t) and (t, o), up to sign
    cos, sin = np.cos(summary.theta_max), np.sin(summary.theta_max)
    forward, backward = cos * f[neg_o] + f[neg_t], cos * f[neg_t] + f[neg_o]
    target_mass = np.sum(forward**2 + backward**2) / (n * sin**2)

    f = f.astype(np.longdouble)
    theta = np.longdouble(summary.theta_max)
    # (0, f) and the uniform state's pair (0, 0), side by side as the
    # augmented states [f; 0; 0] and [0; 0; 1]: only the second is forced
    k, s = weights.size, g.s
    x = np.zeros((2 * k + 1, 2), dtype=np.longdouble)
    x[:k, 0], x[-1, 1] = f, 1.0
    y = np.empty_like(x)
    step = _pair_step(g)
    for _ in range(t_f):
        step(x, out=y)
        x, y = y, x
    fp_at_tf = _finding_probabilities(g, x[None, k : k + s, 1], x[None, :s, 1], t_f)[0]
    a, b = -x[k:-1, 0], x[:k, 0]
    # U^{t_f}(i beta_-) - (-beta_+) = d* da + S d* db
    da = a + f / np.sin(theta)
    db = b - np.cos(theta) * f / np.sin(theta)
    nt_db = build_T(g).numerator_product(db, weights.astype(np.longdouble))
    gap_sq = weights @ (da * da + db * db + 2.0 * da * nt_db / n)
    return WalkDiagnostics(
        lambda_max=summary.lambda_max,
        theta_max=summary.theta_max,
        t_f=t_f,
        rotation_gap_sq=float(gap_sq),
        start_gap_sq=float(start_gap_sq),
        target_mass=float(target_mass),
        fp_at_tf=float(fp_at_tf),
    )


# The largest quotient order k whose walk steps by one product with the
# dense (2k+1)-square step matrix; above it the structured O(s + m) step is
# about as fast or faster.  A long-double product has no BLAS behind it
# and costs O(k^2) per column: on x86-64 ``ndarray.dot`` and the structured
# step cost the same at about k = 40, for one column or two, and
# np.matmul, which sums in the same order at twice the call cost, at
# k = 21 to 25 (the measurements are recorded in CHANGES.md).  Where long
# double is no wider than float64 the dense product's rounding (nT scaled
# once, each row summed in index order) is not hidden below float64
# precision, so there every walk takes the structured step, which rounds as
# the walk on (n+1)-vectors does.
_DENSE_STEP_ORDER = (
    20 if np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant else 0
)


def _pair_step(g: SignedCompleteGraph) -> Callable[..., np.ndarray]:
    """One step of the pair walk on the quotient, in long double, as
    ``step(x, out=y)``.

    A step maps the state d* a + S d* b of L to d* (-b) + S d* (a + 2 T b),
    so a_t = -b_{t-1} and only b is carried.  With the uniform state's
    forcing the walk is b_{t+1} = 2 T b_t - b_{t-1} + 2 c_t d j, where c_t =
    (-1)^t for the uniform state's pair and 0 for an unforced one.  The step
    acts on the augmented state X_t = [b_t; b_{t-1}; c_t], 2k + 1 entries
    for a quotient of order k (a vector, or a matrix of one walk per
    column), and writes X_{t+1} into ``out``, which must not overlap x.
    The step is written once, as that recurrence with n T b, T's numerator
    product, at O(s + m).  It is linear, so for k <= ``_DENSE_STEP_ORDER`` the walk takes
    one product with its image of the identity, the matrix C of the module
    docstring, by ``ndarray.dot``, which sums each entry in long double from
    index 0 as np.matmul does, at half its call cost.
    """
    n, weights = g.n, cell_sizes(g.s, g.t).astype(np.longdouble)
    k, nT = weights.size, build_T(g).numerator_product
    scale = np.longdouble(2.0) / n
    # 2 d j: (d j)_v = (n - 2 * #negative arcs into v) / (n sqrt(n+1)), and
    # no negative arc ends on the rest
    into = np.bincount(g.negative_arcs[1], minlength=k)
    twice_dj = 2.0 * (n - 2.0 * into.astype(np.longdouble))
    twice_dj /= n * np.sqrt(np.longdouble(n + 1))

    def step(x: np.ndarray, out: np.ndarray) -> np.ndarray:
        b, c = x[:k], x[-1]
        out[:k] = scale * nT(b, weights) - x[k:-1] + np.multiply.outer(twice_dj, c)
        out[k:-1], out[-1] = b, -c
        return out

    if k <= _DENSE_STEP_ORDER:
        eye = np.eye(2 * k + 1, dtype=np.longdouble)
        return step(eye, out=np.empty_like(eye)).dot
    return step


# Entries per step times steps per readout block of the series: a step
# holds 2k+1 long doubles of augmented state and its readout gathers m
# marked arcs, and the block takes as many steps as the larger allows (at
# least two), so memory does not grow with t_max.
_READOUT_ENTRIES = 1 << 15


def _finding_probabilities(
    g: SignedCompleteGraph, prev: np.ndarray, cur: np.ndarray, first: int
) -> np.ndarray:
    """Finding probability of U^t j for t = first, first + 1, ..., from the
    rows b_{t-1} = -a_t (``prev``) and b_t (``cur``) of the forced pair walk
    on the marked subgraph's vertices; each row sums its arcs left to right,
    so a row's value does not depend on how many are read with it."""
    neg_o, neg_t = g.negative_arcs
    # The walk takes the cancellation in long double; the marked amplitudes
    # are O(1), so they are read out in float64.
    prev, cur = np.asarray(prev, np.float64), np.asarray(cur, np.float64)
    j, sqrt_n = 1.0 / np.sqrt(g.num_arcs), np.sqrt(g.n)
    signs = np.where((first + np.arange(len(cur))) % 2 == 0, j, -j)[:, None]
    # (-1)^t j + d* a + S d* b on the arcs (o, t) and (t, o), where
    # sigma(o, t) = -1
    forward = (prev[:, neg_t] + cur[:, neg_o]) / sqrt_n + signs
    backward = signs - (prev[:, neg_o] + cur[:, neg_t]) / sqrt_n
    return np.cumsum(forward**2 + backward**2, axis=1)[:, -1]


def _uniform_series(g: SignedCompleteGraph, t_max: int) -> np.ndarray:
    """Finding probability of U^t j for t = 0..t_max.

    Since S j = j, U j = -j + 2 S d* (d j), so U^t j = (-1)^t j + d* a_t +
    S d* b_t with (a_0, b_0) = (0, 0) and the pair walk forced by
    2 (-1)^t d j: the augmented state starts at X_0 = [0; 0; 1].  Each
    block of rows holds X_t for consecutive t, and the marked arcs read
    b_t and b_{t-1} from the same row.
    """
    s, k = g.s, cell_sizes(g.s, g.t).size
    step = _pair_step(g)
    rows = min(t_max + 1, max(2, _READOUT_ENTRIES // max(2 * k + 1, g.num_marked)))
    states = np.zeros((rows, 2 * k + 1), dtype=np.longdouble)
    states[0, -1] = 1.0
    fp = np.empty(t_max + 1)
    first = 0
    while True:
        block = states[: t_max + 1 - first]
        for row in range(len(block) - 1):
            step(block[row], out=block[row + 1])
        fp[first : first + len(block)] = _finding_probabilities(
            g, block[:, k : k + s], block[:, :s], first
        )
        first += len(block)
        if first > t_max:
            return fp
        # a block that is not the last has at least two rows
        step(block[-1], out=states[0])
