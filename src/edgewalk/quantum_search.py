"""Quantum search: exact walk simulation and its closeness diagnostics.

The walk starts from the uniform arc state and is evolved by repeated
applications of the walk operator through the square-layout kernel
``walk_arc_matrix``; the finding probability at step t is the squared
amplitude mass on the marked arcs.  The searching time
t_f = floor(pi / (2 theta_max)) comes from the spectrum, never from the
simulated peak.

The diagnostics quantify how well the rotation picture approximates the
walk: the evolved vector U^{t_f}(i beta_-) is compared against -beta_+, the
start i beta_- against the uniform state, and the marked-arc mass of
-beta_+ against its closed-form lower bound, each with the hypothesis its
bound requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateSpectrum, DimensionMismatch
from .operators import arc_matrix, arc_vector, build_T, walk_arc_matrix
from .signed_graph import SignedCompleteGraph
from .spectral import SpectralSummary, lift_eigenvectors, principal_pair

__all__ = [
    "WalkSeries",
    "DiagnosticCheck",
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
class DiagnosticCheck:
    """One diagnostic quantity against its closed-form bound."""

    name: str
    value: float
    bound: Optional[float]
    relation: str
    hypothesis: str
    hypothesis_holds: bool

    @property
    def passed(self) -> Optional[bool]:
        if not self.hypothesis_holds or self.bound is None:
            return None
        if self.relation == "<=":
            return self.value <= self.bound + 1e-9 * max(1.0, abs(self.bound))
        return self.value >= self.bound - 1e-9 * max(1.0, abs(self.bound))


@dataclass(frozen=True)
class WalkDiagnostics:
    """Rotation-picture diagnostics of one instance.

    ``rotation_gap_sq`` is ||U^{t_f}(i beta_-) - (-beta_+)||^2,
    ``start_gap_sq`` is ||i beta_- - j||^2, ``target_mass`` is the squared
    mass of -beta_+ on the marked arcs, and ``fp_at_tf`` the simulated
    finding probability at the searching time.  ``checks`` compares each
    against its bound under the recorded hypotheses.
    """

    n: int
    num_marked: int
    gamma_order: int
    lambda_max: float
    theta_max: float
    t_f: int
    rotation_gap_sq: float
    start_gap_sq: float
    target_mass: float
    fp_at_tf: float
    hyp_half: bool
    hyp_ratio: bool
    hyp_small: bool
    checks: tuple[DiagnosticCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)


def asymptotic_diagnostics(
    g: SignedCompleteGraph, summary: Optional[SpectralSummary] = None
) -> WalkDiagnostics:
    """Evaluate the rotation-picture quantities exactly and compare each
    against its closed-form bound.

    Hypotheses recorded: 2s < n+3 for the start-gap bound; both the density
    condition 4m/|E| + 4s/|V| <= 1 and 66s <= n+3 for the target-mass and
    finding-probability bounds.  Raises DegenerateSpectrum when the rotation
    angle vanishes.  ``summary`` is the principal pair of the instance when
    the caller has already solved for it.
    """
    n, m, s = g.n, g.num_marked, g.s
    if summary is None:
        summary = principal_pair(build_T(g))
    lifted = lift_eigenvectors(g, summary)
    t_f = quantum_time(summary)

    start = 1j * lifted.beta_minus
    target = -lifted.beta_plus
    if max(np.abs(start.imag).max(), np.abs(target.imag).max()) > 1e-12:
        raise AssertionError("rotation combinations should be real-valued")
    start = start.real
    target = target.real

    evolved = evolve_state(g, start, t_f)
    rotation_gap_sq = float(np.sum((evolved - target) ** 2))
    uniform = initial_state(g)
    start_gap_sq = float(np.sum((start - uniform) ** 2))
    target_mass = float(np.sum(target[g.marked_arcs] ** 2))
    fp_at_tf = finding_probability(g, evolve_state(g, uniform, t_f))

    hyp_half = 2 * s < n + 3
    num_host_edges = n * (n + 1) / 2.0
    hyp_ratio = 4.0 * m / num_host_edges + 4.0 * s / (n + 1) <= 1.0
    hyp_small = 66 * s <= n + 3

    checks = [
        DiagnosticCheck(
            name="rotation_gap",
            value=rotation_gap_sq,
            bound=16.0 * m / (n * (n + 1)),
            relation="<=",
            hypothesis="theta_max > 0",
            hypothesis_holds=True,
        ),
        DiagnosticCheck(
            name="rotation_gap_spectral",
            value=rotation_gap_sq,
            bound=4.0 * (1.0 - summary.lambda_max),
            relation="<=",
            hypothesis="theta_max > 0",
            hypothesis_holds=True,
        ),
        DiagnosticCheck(
            name="start_gap",
            value=start_gap_sq,
            bound=(12.0 + 8.0 * np.sqrt(2.0)) * m / ((n + 1) * (n + 3 - 2 * s))
            if hyp_half
            else None,
            relation="<=",
            hypothesis="2s < n+3",
            hypothesis_holds=hyp_half,
        ),
        DiagnosticCheck(
            name="target_mass",
            value=target_mass,
            bound=1.0
            - 2.0 * m / (n * (n + 1))
            - 16.0 * np.sqrt(s / (n + 3.0 - 2 * s))
            if hyp_ratio and hyp_small
            else None,
            relation=">=",
            hypothesis="4m/|E| + 4s/|V| <= 1 and 66s <= n+3",
            hypothesis_holds=hyp_ratio and hyp_small,
        ),
        DiagnosticCheck(
            name="fp_lower",
            value=fp_at_tf,
            bound=1.0
            - 22.0 * np.sqrt(m / ((n + 1.0) * (n + 3 - 2 * s)))
            - 32.0 * np.sqrt(s / (n + 3.0 - 2 * s))
            if hyp_ratio and hyp_small
            else None,
            relation=">=",
            hypothesis="4m/|E| + 4s/|V| <= 1 and 66s <= n+3",
            hypothesis_holds=hyp_ratio and hyp_small,
        ),
    ]
    return WalkDiagnostics(
        n=n,
        num_marked=m,
        gamma_order=s,
        lambda_max=summary.lambda_max,
        theta_max=summary.theta_max,
        t_f=t_f,
        rotation_gap_sq=rotation_gap_sq,
        start_gap_sq=start_gap_sq,
        target_mass=target_mass,
        fp_at_tf=fp_at_tf,
        hyp_half=hyp_half,
        hyp_ratio=hyp_ratio,
        hyp_small=hyp_small,
        checks=tuple(checks),
    )
