"""Quantum search: exact walk simulation and its closeness diagnostics.

The walk starts from the uniform arc state and is evolved by repeated
applications of the walk operator through the square-layout kernel
``walk_arc_matrix``; the finding probability at step t is the squared
amplitude mass on the marked arcs.  The searching time
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
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch
from .operators import arc_matrix, arc_vector, build_T, walk_arc_matrix
from .signed_graph import SignedCompleteGraph
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
    return float(np.sum(np.abs(psi[g.marked_arcs]) ** 2))


def quantum_time(summary: SpectralSummary) -> int:
    """Quantum searching time floor(pi / (2 theta_max))."""
    if summary.theta_max <= 0.0:
        raise DegenerateSpectrum("rotation angle is zero; searching time undefined")
    return int(math.floor(math.pi / (2.0 * summary.theta_max)))


def evolve_state(g: SignedCompleteGraph, psi: np.ndarray, steps: int) -> np.ndarray:
    """Apply the walk operator ``steps`` times to an arc-indexed state.

    Raises DimensionMismatch for a state of the wrong shape and ValueError
    for negative ``steps``.
    """
    return arc_vector(walk_arc_matrix(g, arc_matrix(g, psi), steps))


@dataclass(frozen=True)
class WalkSeries:
    """Finding-probability series of an exact sequential walk.

    ``fp[t]`` is the probability after t applications of the walk operator
    to the uniform state, so ``fp[0] = 2m / (n(n+1))`` is the pre-walk mass.
    ``t_f`` and ``fp_at_tf`` are filled from the spectrum when the instance
    is non-degenerate (``fp_at_tf`` additionally requires t_f <= t_max).
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

    The evolution is sequential (no spectral shortcut) and deterministic;
    a degenerate spectrum only leaves the searching-time fields unset.
    ``summary``, when the caller already holds the principal pair of the
    instance, is used for t_f instead of solving the eigenproblem again.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    fp = np.empty(t_max + 1)
    walk_arc_matrix(g, arc_matrix(g, initial_state(g)), t_max, fp=fp)
    t_f: Optional[int] = None
    fp_at_tf: Optional[float] = None
    degenerate = False
    try:
        if summary is None:
            summary = principal_pair(build_T(g))
        t_f = quantum_time(summary)
        if t_f <= t_max:
            fp_at_tf = float(fp[t_f])
    except DegenerateSpectrum:
        degenerate = True
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
    """Evaluate the rotation-picture quantities exactly.

    Raises DegenerateSpectrum when the rotation angle vanishes.  ``summary``
    is the principal pair of the instance when the caller has already
    solved for it.
    """
    if summary is None:
        summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    start, target = _rotation_states(g, summary)
    uniform = arc_matrix(g, initial_state(g))
    marked = g.marked_matrix

    # The walks run in place, so the start gap is read first.
    start_gap_sq = float(np.sum((start - uniform) ** 2))
    evolved = walk_arc_matrix(g, start, t_f)
    found = walk_arc_matrix(g, uniform, t_f)[marked]
    return WalkDiagnostics(
        lambda_max=summary.lambda_max,
        theta_max=summary.theta_max,
        t_f=t_f,
        rotation_gap_sq=float(np.sum((evolved - target) ** 2)),
        start_gap_sq=start_gap_sq,
        target_mass=float(np.sum(target[marked] ** 2)),
        fp_at_tf=float(np.sum(found**2)),
    )


def _rotation_states(
    g: SignedCompleteGraph, summary: SpectralSummary
) -> tuple[np.ndarray, np.ndarray]:
    """The real rotation states i beta_- and -beta_+ in square layout.

    d* f is X[u, v] = sigma(u, v) f_v / sqrt(n) with a zero diagonal, and
    S d* f is its transpose.  The lift (``spectral.lift_eigenvectors``)
    gives i beta_- = S d* f and -beta_+ = (cos theta S d* f - d* f) / sin theta
    exactly, so neither complex eigenvector is formed.
    """
    theta = summary.theta_max
    base = np.tile(summary.f / np.sqrt(g.n), (g.n + 1, 1))
    np.fill_diagonal(base, 0.0)
    neg_o, neg_t = np.array(g.sigma_negative_arcs, dtype=np.int64).T
    base[neg_o, neg_t] *= -1.0
    start = np.ascontiguousarray(base.T)
    target = (np.cos(theta) * start - base) / np.sin(theta)
    return start, target
