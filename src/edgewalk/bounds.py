"""Machine-checkable ledger of the spectral and hitting-time inequalities.

``verify_all`` evaluates every inequality of the analysis on a concrete
instance: left-hand sides come from exact matrices, eigensolves and
simulated vectors (no asymptotics), right-hand sides from the closed
forms.  This module is the only place that states a closed-form bound or
judges pass, fail or skip.  Inequalities stated only under a hypothesis are
recorded as *skipped* (not passed) when the hypothesis fails, so a report
always distinguishes "verified" from "not applicable".

T and Z are solved on their order-(s+1) equitable quotient and their
eigendata stay there (Z's in ``spectral.companion_spectra``): the principal
vectors and the overlaps are read in the quotient's symmetric coordinates,
Gershgorin reads the s + 2 distinct eigenvalues, and pq_spectra certifies
the quotient pairs through the quotient forms of Q and G, plus one of the
t - 1 zero-sum pairs on the rest, which share their value and residual.
The rotation walk runs on the same quotient (``quantum_search``).  The line
kernel lives on its edge-orbit quotient (``operators.build_P_quotient``), one
orbit for each pair of the quotient's cells that carries an unmarked edge,
r = C(s,2) - m + s + 1 of them for t >= 2, where lambda_max(P) is bracketed
from Q's principal vector by one product (``spectral.line_bracket``,
Collatz-Wielandt): cor_P reads the ends and the overlap, pq_spectra the
ends' distance to lambda_max(Q), and the resolvent the point value between
them.  t_c is ``classical_search.hitting_time``'s order-s solve, the one
that ``classical`` and ``speedup`` report, and norm_l1 reads N j from the
orbits' degree at each cell, counted as often as the cell has vertices.  So
the ledger builds no edge-space array beyond the r orbits and no vertex
array beyond the s + 1 cells, makes no order-(n+1)
eigensolve, no eigensolve of P and forms no dense matrix, and it needs
numpy alone; ``quotient_eigh``, ``build_P``, ``LineTransitionMatrix``,
Lanczos (``line_principal_pair``) and ``solve_absorption``, all scipy's in
``edge_space``, are the tests' oracles.

Throughout, n+1 is the host order, m the number of marked edges, s the
order of the marked subgraph, Y = J - (n+1)I - 2A and
Z = J - (n+1)I - A - D the integer-shifted companions of the vertex
matrices (A, D: adjacency and degree matrix of the marked subgraph, zero
padded).  Entry names, stable across releases (multi-part results carry a
dotted suffix):

    gershgorin.{Y,Z}                row-disc enclosure of all eigenvalues
    lambda1_bracket.{Y,Z}.{upper,lower}   0 >= lambda_1 >= -4m/(n+1)
    adjacency_max                   lambda_max(A) <= sqrt(2m - s + 1)
    lambda2_Y, lambda2_Z            second-eigenvalue bounds
    gap_T                           top gap of the discriminant matrix
    bipartite_iff                   spectral vs combinatorial degeneracy
    overlap_generic.{Y,Z}           ||f - j||^2 closed-form bounds
    lmax_upper_Y, lmax_upper_Z      top-eigenvalue upper bounds
    cor_T.{upper,lower,overlap}     two-sided lambda_max(T) bracket + overlap
    norm_l1                         len * ||h||_2^2 >= ||h||_1^2 on N j
    pq_spectra                      line kernel vs vertex companion spectra
    cor_P.{upper,lower,overlap}     two-sided lambda_max(P) bracket + overlap
    ratio                           overlap-to-gap ratio bound
    beta_close                      ||U^tf(i b-) - (-b+)||^2 <= 16m/(n(n+1))
    norm_l2                         ||h||_2^2 <= n ||h||_1 on the sign counts
    beta_minus_close                ||i b- - j||^2 bound
    beta_plus_mass                  marked mass of -b+ lower bound
    fp_lower                        finding probability at t_f lower bound
    qtime_order.{lower,upper}       bracket on 1/(2(1 - lambda_max(T)))
    tc_near_resolvent, tc_bracket.{lower,upper}   hitting-time brackets
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

import numpy as np

from .classical_search import _searching_time
from .errors import DegenerateSpectrum, EmptyComplement, LostPrecision, TooSmall
from .operators import LineQuotientMatrix, VertexMatrix, build_P_quotient, build_T
from .quantum_search import asymptotic_diagnostics
from .signed_graph import (
    SignedCompleteGraph, _index, build_instance,
    cycle_edges, matching_edges, path_edges, star_edges,
)
from .spectral import (
    QuotientSpectrum, companion_spectra, eigh, line_bracket, quotient_spectrum
)

if TYPE_CHECKING:
    from .edge_space import LineTransitionMatrix

__all__ = [
    "BoundEntry",
    "BoundLedger",
    "SuiteReport",
    "verify_all",
    "verify_random_suite",
    "random_instance",
]

# Inequalities are exact mathematics; the slack tolerance only absorbs
# floating-point evaluation error.
REL_TOL = 1e-9
PQ_MATCH_TOL = 1e-8
# pq_spectra sets aside the eigenvalues of P and Q within this distance of
# -1/(n-1), the value whose companion eigenvectors lift to zero.
PQ_KERNEL_TOL = 1e-6

# Hypotheses, as recorded in each entry's ``hypothesis_description``.
ALWAYS = "always"
HALF = "2s < n+3"
DENSITY = "4m/|E| + 4s/|V| <= 1 and 66s <= n+3"
SMALL = "66s <= n+3"
TC = "64s <= n+1"
# Requirements of the row groups whose data may not exist.
COMPLEMENT = "complement nonempty"
ROTATION = "theta_max > 0"


@dataclass(frozen=True)
class BoundEntry:
    """One evaluated inequality or identity."""

    name: str
    lhs: float
    rhs: float
    relation: str
    hypothesis_description: str
    hypothesis_holds: bool
    passed: Optional[bool]
    slack: float

    def as_dict(self) -> dict:
        def plain(value: float):
            return None if math.isnan(value) else value

        return {
            "name": self.name,
            "lhs": plain(self.lhs),
            "rhs": plain(self.rhs),
            "relation": self.relation,
            "hypothesis_description": self.hypothesis_description,
            "hypothesis_holds": self.hypothesis_holds,
            "passed": self.passed,
            "slack": plain(self.slack),
        }


def _entry(
    name: str,
    relation: str,
    lhs: Optional[float],
    rhs: Optional[float],
    hypothesis: str = ALWAYS,
    holds: bool = True,
) -> BoundEntry:
    """Judge one inequality; an entry whose hypothesis fails is skipped,
    with no rhs and no slack."""
    lhs_f = float("nan") if lhs is None else float(lhs)
    rhs_f = float("nan") if rhs is None or not holds else float(rhs)
    if relation == "<=":
        slack = rhs_f - lhs_f
    elif relation == ">=":
        slack = lhs_f - rhs_f
    elif relation == "==":
        slack = -abs(lhs_f - rhs_f)
    else:
        raise ValueError(f"unknown relation {relation!r}")
    passed: Optional[bool] = None
    if holds:
        if math.isnan(slack):
            passed = False
        else:
            passed = slack >= -REL_TOL * max(1.0, abs(rhs_f))
    return BoundEntry(
        name=name,
        lhs=lhs_f,
        rhs=rhs_f,
        relation=relation,
        hypothesis_description=hypothesis,
        hypothesis_holds=holds,
        passed=passed,
        slack=slack,
    )


@dataclass(frozen=True)
class BoundLedger:
    """All entries evaluated on one instance."""

    n: int
    marked_edges: tuple
    entries: tuple[BoundEntry, ...]

    def __iter__(self) -> Iterator[BoundEntry]:
        return iter(self.entries)

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def entries_for(self, prefix: str) -> tuple[BoundEntry, ...]:
        return tuple(
            e
            for e in self.entries
            if e.name == prefix or e.name.startswith(prefix + ".")
        )

    @property
    def failures(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.passed is False)

    @property
    def skipped(self) -> tuple[BoundEntry, ...]:
        return tuple(e for e in self.entries if e.passed is None)

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json_entries(self) -> list[dict]:
        return [e.as_dict() for e in self.entries]


def _gershgorin_violation(matrix: VertexMatrix, values: np.ndarray) -> float:
    """Largest distance of an eigenvalue from the union of the row discs of
    the s + 1 distinct rows, in O(s) from the integers: off the diagonal, a
    block row v holds deg(v) entries ``marked`` and s - 1 - deg(v) + t ones."""
    degrees, divisor = matrix.g.degrees, matrix.divisor
    centers = matrix.gamma_diagonal / divisor
    radii = (abs(matrix.marked) * degrees + matrix.s - 1 - degrees + matrix.t) / divisor
    if matrix.t:
        centers = np.append(centers, matrix.diagonal)
        radii = np.append(radii, (matrix.order - 1) / divisor)
    nearest = (np.abs(values[:, None] - centers) - radii).min(axis=1)
    return max(0.0, float(nearest.max()))


def _pq_spectra_mismatch(
    P: LineTransitionMatrix | LineQuotientMatrix,
    lambda_max_p: float | tuple[float, float],
    companion: QuotientSpectrum,
) -> float:
    """Numeric distance between Spec(P) and Spec(Q) modulo -1/(n-1), given
    lambda_max(P), or the two ends of a bracket on it, and the spectrum of
    the companion Q on its quotient.

    Each companion eigenpair (q, w) with a value other than -1/(n-1) is
    certified as an eigenpair of the line kernel through its lift N^T w, N
    the vertex-edge incidence matrix of the complement.
    P = (N^T N - 2I)/(2(n-1)) and G = N N^T = 2(n-1)Q + 2I (checked in
    integers by ``build_P``, G's diagonal also by ``build_P_quotient``) give
    P N^T = N^T Q, so the lifted residual is
    P N^T w - q N^T w = N^T r with r = Qw - qw, and its relative size
    ||N^T r|| / ||N^T w|| = sqrt(r^T G r / w^T G w) is evaluated in vertex
    space.  For the quotient pairs, all at once, Qw and Gw are the
    ``VertexMatrix.quotient`` forms of Q and G applied to the symmetric
    coordinates, at O(s^2) per pair.  The t - 1 zero-sum pairs on the rest
    share the value beta = ``diagonal - off`` of the companion's quotient
    spectrum, and for each of them Qw = (Q.diagonal - Q.off) w and
    Gw = (G.diagonal - G.off) w exactly, so their relative residual is
    |Q.diagonal - Q.off - beta|; one stands for all.  The remaining line
    eigenvalues equal -1/(n-1) by the rank of N.  The largest relative
    residual is combined with the distance between lambda_max(P), or the
    farther end of its bracket, and the top companion value.
    """
    kernel_value = -1.0 / (P.n - 1)
    keep = np.abs(companion.values - kernel_value) > PQ_KERNEL_TOL
    w, q = companion.vectors[:, keep], companion.values[keep]
    gram = P.gram.quotient
    r = P.q_matrix.quotient @ w - w * q
    residual_sq = np.maximum(np.sum(r * (gram @ r), axis=0), 0.0)
    lifted_sq = np.sum(w * (gram @ w), axis=0)
    residuals = list(np.sqrt(residual_sq / lifted_sq))
    if companion.copies and abs(companion.beta - kernel_value) > PQ_KERNEL_TOL:
        residuals.append(abs(P.q_matrix.diagonal - P.q_matrix.off - companion.beta))
    ends = np.abs(np.subtract(lambda_max_p, companion.lambda_max))
    return max(*np.atleast_1d(ends), *residuals)


def verify_all(g: SignedCompleteGraph) -> BoundLedger:
    """Evaluate the full inequality checklist on one instance.

    Each entry is one row (name, relation, lhs, rhs, hypothesis) of a table.
    The rows are grouped by the data they need: the vertex spectra, the
    line kernel P (absent when every edge is marked) and the rotation data
    (absent when the angle is zero or lost to rounding).  A row whose group
    has no data is skipped under the group's requirement; a row whose
    hypothesis fails is skipped under that hypothesis.  A skipped entry
    keeps its relation and, when its group exists, its lhs; its rhs is
    never evaluated, and rhs and slack are NaN (null in JSON).
    """
    n, m, s = g.n, g.num_marked, g.s
    order = n + 1
    y_matrix = VertexMatrix(g, -1, -n)
    # Y = n(T - I) and Q = Z/(2(n-1)) + I hold exactly, so T and Z are the
    # only vertex matrices solved, and their principal vectors (Y's and Q's)
    # the only ones chosen; only the top two values of each are read.
    z_matrix, z_spectrum, q_spectrum = companion_spectra(g)
    t_spectrum = quotient_spectrum(build_T(g))
    y_spectrum = t_spectrum.map(lambda value: n * (value - 1.0))
    z_values, t_values, y_values = (
        spectrum.descending(2) for spectrum in (z_spectrum, t_spectrum, y_spectrum)
    )
    overlap_t, overlap_z = (  # ||f - j||^2 for the principal vector f
        float(np.sum((spectrum.principal - spectrum.uniform) ** 2))
        for spectrum in (t_spectrum, z_spectrum)
    )
    # Counts of negatively signed marked arcs by terminus on Gamma's vertices
    # (the rest count 0); entries lie in [0, n] and sum to m.
    sign_counts = np.bincount(g.negative_arcs[1]).astype(np.float64)

    try:
        P = build_P_quotient(g)
    except EmptyComplement:
        P = None
    else:
        # Without a complement these names stay unbound: the thunks of a
        # group without data are never called.
        bracket = line_bracket(P, z_spectrum)
        if bracket.value >= 1.0:
            raise LostPrecision(
                f"n = {n}: the lambda_max(P) bracket reads {bracket.value!r}; each "
                "unmarked component meets Gamma, so float64 has lost 1 - lambda_max(P)"
            )
        t_c = _searching_time(g)[0]
        # the bracket's point value: an end would carry its width, which
        # 1/(1 - lambda) magnifies by t_c^2
        resolvent = 1.0 / (1.0 - bracket.value)
        # h = N j_E: the degree over sqrt(E) at a vertex of each cell
        h = P.degrees / np.sqrt(P.num_edges)
    # the one decision on lambda_max(T) = 1: the rotation rows read its data,
    # bipartite_iff its refusal
    try:
        t_summary = t_spectrum.summary()
    except (DegenerateSpectrum, LostPrecision):
        t_summary = None
    diag = None if t_summary is None else asymptotic_diagnostics(g, t_summary)

    host_edges = n * (n + 1) / 2.0
    holds = {
        ALWAYS: True,
        HALF: 2 * s < n + 3,
        DENSITY: (
            4.0 * m / host_edges + 4.0 * s / (n + 1) <= 1.0 and 66 * s <= n + 3
        ),
        SMALL: 66 * s <= n + 3,
        TC: 64 * s <= n + 1,
        COMPLEMENT: P is not None,
        ROTATION: diag is not None,
    }
    # delta = 4 sqrt(s/(n+3-2s)); every bound that reads it requires 2s < n+3.
    delta = 4.0 * np.sqrt(s / (n + 3.0 - 2 * s)) if holds[HALF] else math.nan
    delta_z = 4.0 * np.sqrt(s / (n + 1.0))

    def overlap_bound() -> float:
        return 8.0 * m / ((n + 1.0) * (n + 3.0 - 2 * s))

    def quantum_resolvent() -> float:
        return 1.0 / (2.0 * (1.0 - diag.lambda_max))

    rayleigh = -4.0 * m / (n + 1)
    vertex_rows = (
        ("gershgorin.Y", "<=",
         lambda: _gershgorin_violation(y_matrix, y_spectrum.distinct),
         lambda: 0.0, ALWAYS),
        ("gershgorin.Z", "<=",
         lambda: _gershgorin_violation(z_matrix, z_spectrum.distinct),
         lambda: 0.0, ALWAYS),
        ("lambda1_bracket.Y.upper", "<=", lambda: y_values[0], lambda: 0.0, ALWAYS),
        ("lambda1_bracket.Y.lower", ">=",
         lambda: y_values[0], lambda: rayleigh, ALWAYS),
        ("lambda1_bracket.Z.upper", "<=", lambda: z_values[0], lambda: 0.0, ALWAYS),
        ("lambda1_bracket.Z.lower", ">=",
         lambda: z_values[0], lambda: rayleigh, ALWAYS),
        ("adjacency_max", "<=",
         lambda: eigh(g.marked_block.astype(np.float64))[0][0],
         lambda: np.sqrt(2.0 * m - s + 1.0), ALWAYS),
        ("lambda2_Y", "<=", lambda: y_values[1], lambda: 2.0 * s - (n + 3), ALWAYS),
        ("lambda2_Z", "<=", lambda: z_values[1], lambda: -(n + 1.0), ALWAYS),
        ("gap_T", ">=", lambda: t_values[0] - t_values[1],
         lambda: (n + 3.0) / n - 4.0 * m / (n * (n + 1.0)) - 2.0 * s / n, ALWAYS),
        ("bipartite_iff", "==", lambda: float(t_summary is None),
         lambda: float(g.is_spanning_complete_bipartite()), ALWAYS),
        ("overlap_generic.Y", "<=", lambda: overlap_t, overlap_bound, HALF),
        ("overlap_generic.Z", "<=", lambda: overlap_z,
         lambda: 8.0 * m / (n + 1.0) ** 2, ALWAYS),
        ("lmax_upper_Y", "<=",
         lambda: y_values[0], lambda: -(1.0 - delta) * 4.0 * m / (n + 1.0), HALF),
        ("lmax_upper_Z", "<=", lambda: z_values[0],
         lambda: -(1.0 - delta_z) * 4.0 * m / (n + 1.0), ALWAYS),
        ("cor_T.upper", "<=", lambda: t_values[0],
         lambda: 1.0 - (1.0 - delta) * 4.0 * m / (n * (n + 1.0)), HALF),
        ("cor_T.lower", ">=",
         lambda: t_values[0], lambda: 1.0 - 4.0 * m / (n * (n + 1.0)), ALWAYS),
        ("cor_T.overlap", "<=", lambda: overlap_t, overlap_bound, HALF),
        ("norm_l2", "<=", lambda: float(np.sum(sign_counts**2)),
         lambda: n * float(np.sum(sign_counts)), ALWAYS),
    )
    line_rows = (
        ("norm_l1", "<=", lambda: float(P.cells @ np.abs(h)) ** 2,
         lambda: order * float(P.cells @ h**2), ALWAYS),
        ("pq_spectra", "<=",
         lambda: _pq_spectra_mismatch(
             P, (bracket.lower, bracket.upper), q_spectrum),
         lambda: PQ_MATCH_TOL, ALWAYS),
        # each side reads the end of the bracket that makes it one-sided
        ("cor_P.upper", "<=", lambda: bracket.upper,
         lambda: 1.0 - (1.0 - delta_z) * 2.0 * m / ((n + 1.0) * (n - 1.0)), ALWAYS),
        ("cor_P.lower", ">=", lambda: bracket.lower,
         lambda: 1.0 - 2.0 * m / ((n + 1.0) * (n - 1.0)), ALWAYS),
        ("cor_P.overlap", ">=", lambda: bracket.overlap,
         lambda: 1.0 - 4.0 * m / (n + 1.0) ** 2, ALWAYS),
        ("tc_near_resolvent", "<=", lambda: abs(t_c - resolvent), lambda: 4.0, TC),
        ("tc_bracket.lower", ">=",
         lambda: resolvent, lambda: (n + 1.0) * (n - 1.0) / (2.0 * m), TC),
        ("tc_bracket.upper", "<=",
         lambda: resolvent, lambda: (n + 1.0) * (n - 1.0) / m, TC),
    )
    rotation_rows = (
        # 1 - (f.j)^2 = d(1 - d/4) with d = ||f - j||^2 for unit f and j,
        # which forms no difference of nearly equal numbers
        ("ratio", "<=",
         lambda: overlap_t * (1.0 - overlap_t / 4.0) / (1.0 - diag.lambda_max),
         lambda: 4.0 * n / (n + 1.0) * delta, DENSITY),
        ("beta_close", "<=", lambda: diag.rotation_gap_sq,
         lambda: 16.0 * m / (n * (n + 1.0)), ROTATION),
        ("beta_minus_close", "<=", lambda: diag.start_gap_sq,
         lambda: (12.0 + 8.0 * np.sqrt(2.0)) * m / ((n + 1.0) * (n + 3.0 - 2 * s)),
         HALF),
        ("beta_plus_mass", ">=", lambda: diag.target_mass,
         lambda: 1.0 - 2.0 * m / (n * (n + 1.0)) - 4.0 * delta, DENSITY),
        ("fp_lower", ">=", lambda: diag.fp_at_tf,
         lambda: 1.0
         - 22.0 * np.sqrt(m / ((n + 1.0) * (n + 3.0 - 2 * s)))
         - 8.0 * delta,
         DENSITY),
        ("qtime_order.lower", ">=",
         quantum_resolvent, lambda: n * (n + 1.0) / (8.0 * m), SMALL),
        ("qtime_order.upper", "<=", quantum_resolvent,
         lambda: n * (n + 1.0) / (8.0 * m * (1.0 - delta)), SMALL),
    )

    entries = []
    for requirement, rows in (
        (ALWAYS, vertex_rows),
        (COMPLEMENT, line_rows),
        (ROTATION, rotation_rows),
    ):
        present = holds[requirement]
        for name, relation, lhs, rhs, hypothesis in rows:
            if not present:
                hypothesis = requirement
            judged = holds[hypothesis]
            entries.append(
                _entry(
                    name,
                    relation,
                    lhs() if present else None,
                    rhs() if judged else None,
                    hypothesis,
                    judged,
                )
            )
    return BoundLedger(n=n, marked_edges=g.marked_edges, entries=tuple(entries))


@dataclass(frozen=True)
class SuiteReport:
    """Aggregate of a randomized ledger run."""

    instances: int
    entries_checked: int
    entries_passed: int
    entries_skipped: int
    failures: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


_FAMILY_GENERATORS = {
    "edge": lambda rng, maxv: path_edges(1),
    "path": lambda rng, maxv: path_edges(int(rng.integers(1, maxv))),
    "matching": lambda rng, maxv: matching_edges(int(rng.integers(1, maxv // 2 + 1))),
    "star": lambda rng, maxv: star_edges(int(rng.integers(1, maxv))),
    "cycle": lambda rng, maxv: cycle_edges(int(rng.integers(3, maxv + 1))),
}
# The fewest vertices each family that draws its size needs.
_LEAST_VERTICES = {"path": 2, "matching": 2, "star": 2, "cycle": 3, "random": 2}


def random_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int],
    families: Sequence[str],
    max_gamma_vertices: int = 4,
) -> SignedCompleteGraph:
    """Draw an instance with random host size, family, size and placement.

    ``families`` entries are ``edge``, ``path``, ``matching``, ``star``,
    ``cycle`` or ``random`` (arbitrary nonempty edge set on at most
    ``max_gamma_vertices`` vertices).  Every family draws its size for at
    most min(``max_gamma_vertices``, n + 1) vertices, and the subgraph is
    placed on uniformly chosen distinct host vertices, exercising the
    relabelling path.  Raises TypeError unless both ends of ``n_range`` and
    ``max_gamma_vertices`` are integers (a float or a bool is not),
    ValueError for a reversed ``n_range`` and TooSmall for one that starts
    below n = 2 (both before anything is drawn), and ValueError for an
    unknown family and a ``max_gamma_vertices`` below what the drawn family
    needs.
    """
    lo, hi = (_index(end) for end in n_range)
    max_gamma_vertices = _index(max_gamma_vertices)
    if lo > hi:
        raise ValueError(f"n_range must run from low to high, got ({lo}, {hi})")
    if lo < 2:
        raise TooSmall(f"n_range must start at n >= 2, got ({lo}, {hi})")
    n = int(rng.integers(lo, hi + 1))
    family = families[int(rng.integers(len(families)))]
    least = _LEAST_VERTICES.get(family, 0)
    if max_gamma_vertices < least:
        raise ValueError(
            f"family {family!r} needs max_gamma_vertices >= {least}, "
            f"got {max_gamma_vertices}"
        )
    cap = min(max_gamma_vertices, n + 1)
    if family == "random":
        v = int(rng.integers(2, cap + 1))
        pairs = [(i, k) for i in range(v) for k in range(i + 1, v)]
        while True:
            mask = rng.integers(0, 2, size=len(pairs)).astype(bool)
            if mask.any():
                break
        edges = [p for p, keep in zip(pairs, mask) if keep]
    elif family in _FAMILY_GENERATORS:
        edges = _FAMILY_GENERATORS[family](rng, cap)
    else:
        raise ValueError(f"unknown family {family!r}")
    used = 1 + max(max(e) for e in edges)
    labels = rng.choice(n + 1, size=used, replace=False)
    return build_instance(n, [(int(labels[u]), int(labels[v])) for u, v in edges])


def verify_random_suite(
    count: int,
    n_range: tuple[int, int],
    families: Sequence[str],
    seed: int = 0,
    max_gamma_vertices: int = 4,
) -> SuiteReport:
    """Run the ledger on ``count`` random instances and aggregate.

    Any failed entry with its hypothesis satisfied is reported with the
    full instance for reproduction; skipped entries are counted, not
    failed.  Deterministic for a fixed seed.  Raises TypeError unless
    ``count`` and ``seed`` are integers (a bool is not), and the errors of
    ``random_instance`` for the other inputs.
    """
    count, seed = _index(count), _index(seed)
    if count < 1:
        raise ValueError(f"need at least one instance, got {count}")
    rng = np.random.default_rng(seed)
    checked = skipped = 0
    failures: list[dict] = []
    for _ in range(count):
        g = random_instance(rng, n_range, families, max_gamma_vertices)
        ledger = verify_all(g)
        checked += len(ledger.entries)
        skipped += len(ledger.skipped)
        failures.extend(
            {
                "n": g.n,
                "marked_edges": [list(edge) for edge in g.marked_edges],
                "entry": e.as_dict(),
            }
            for e in ledger.failures
        )
    return SuiteReport(
        instances=count,
        entries_checked=checked,
        entries_passed=checked - skipped - len(failures),
        entries_skipped=skipped,
        failures=tuple(failures),
    )
