"""Machine-checkable ledger of the spectral and hitting-time inequalities.

``verify_all`` evaluates every inequality of the analysis on a concrete
instance: left-hand sides come from exact matrices, eigensolves and
simulated vectors (no asymptotics), right-hand sides from the closed
forms.  Inequalities stated only under a hypothesis are recorded as
*skipped* (not passed) when the hypothesis fails, so a report always
distinguishes "verified" from "not applicable".

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
from typing import Iterator, Optional, Sequence

import numpy as np

from .classical_search import solve_absorption
from .errors import EmptyComplement
from .operators import LineTransitionMatrix, build_P, build_T
from .quantum_search import asymptotic_diagnostics
from .signed_graph import (
    SignedCompleteGraph,
    build_instance,
    cycle_edges,
    matching_edges,
    path_edges,
    star_edges,
)
from .spectral import eigh, line_principal_pair, principal_vector, summarize_spectrum

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
PQ_DENSE_LIMIT = 2000


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
    hypothesis: str = "always",
    holds: bool = True,
) -> BoundEntry:
    lhs_f = float("nan") if lhs is None else float(lhs)
    rhs_f = float("nan") if rhs is None else float(rhs)
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


def _gershgorin_violation(matrix: np.ndarray, values: np.ndarray) -> float:
    centers = np.diag(matrix)
    radii = np.abs(matrix).sum(axis=1) - np.abs(centers)
    worst = 0.0
    for lam in values:
        nearest = float((np.abs(lam - centers) - radii).min())
        worst = max(worst, max(0.0, nearest))
    return worst


def _pq_spectra_mismatch(
    P: LineTransitionMatrix,
    q_values: np.ndarray,
    q_vectors: np.ndarray,
    lambda_max_p: float,
) -> float:
    """Numeric distance between Spec(P) and Spec(Q) modulo -1/(n-1).

    Small instances compare the full multisets after removing the extra
    value.  Beyond the dense limit, each companion eigenpair with a
    different value is lifted through the incidence matrix and certified as
    an eigenpair of the line kernel by its residual; the remaining line
    eigenvalues equal -1/(n-1) by the rank of the incidence Gram factor.
    """
    n = P.n
    kernel_value = -1.0 / (n - 1)
    if P.num_edges <= PQ_DENSE_LIMIT:
        p_values = np.sort(np.linalg.eigvalsh(P.dense()))
        q_sorted = np.sort(q_values)
        p_keep = p_values[np.abs(p_values - kernel_value) > PQ_MATCH_TOL]
        q_keep = q_sorted[np.abs(q_sorted - kernel_value) > PQ_MATCH_TOL]
        if p_keep.size != q_keep.size:
            return float("inf")
        if p_keep.size == 0:
            return 0.0
        return float(np.abs(p_keep - q_keep).max())
    worst = abs(lambda_max_p - float(q_values[0]))
    eu = P.complement.edges[:, 0]
    ev = P.complement.edges[:, 1]
    for i in np.nonzero(np.abs(q_values - kernel_value) > 1e-6)[0]:
        w = q_vectors[:, i]
        lifted = w[eu] + w[ev]
        residual = P.matvec(lifted) - q_values[i] * lifted
        worst = max(
            worst,
            float(np.linalg.norm(residual) / np.linalg.norm(lifted)),
        )
    return worst


def verify_all(g: SignedCompleteGraph) -> BoundLedger:
    """Evaluate the full inequality checklist on one instance."""
    n, m, s = g.n, g.num_marked, g.s
    order = n + 1
    j = np.full(order, 1.0 / np.sqrt(order))
    adj = g.marked_matrix.astype(np.float64)
    deg = np.diag(g.gamma_degrees.astype(np.float64))
    ones = np.ones((order, order))
    eye = np.eye(order)

    y_matrix = ones - (n + 1) * eye - 2.0 * adj
    z_matrix = ones - (n + 1) * eye - adj - deg
    t_matrix = build_T(g).matrix

    y_values, y_vectors = eigh(y_matrix)
    z_values, z_vectors = eigh(z_matrix)
    t_values, t_vectors = eigh(t_matrix)
    gamma_adj = adj[:s, :s]
    adjacency_top = float(eigh(gamma_adj)[0][0])

    hyp_half = 2 * s < n + 3
    host_edges = n * (n + 1) / 2.0
    hyp_ratio = 4.0 * m / host_edges + 4.0 * s / (n + 1) <= 1.0
    hyp_small = 66 * s <= n + 3
    hyp_tc = 64 * s <= n + 1
    degenerate = t_values[0] >= 1.0 - 1e-12

    entries: list[BoundEntry] = []

    for label, matrix, values in (
        ("Y", y_matrix, y_values),
        ("Z", z_matrix, z_values),
    ):
        entries.append(
            _entry(
                f"gershgorin.{label}",
                "<=",
                _gershgorin_violation(matrix, values),
                0.0,
            )
        )
    rayleigh = -4.0 * m / (n + 1)
    for label, values in (("Y", y_values), ("Z", z_values)):
        entries.append(
            _entry(f"lambda1_bracket.{label}.upper", "<=", values[0], 0.0)
        )
        entries.append(
            _entry(f"lambda1_bracket.{label}.lower", ">=", values[0], rayleigh)
        )
    entries.append(
        _entry("adjacency_max", "<=", adjacency_top, np.sqrt(2.0 * m - s + 1.0))
    )
    entries.append(_entry("lambda2_Y", "<=", y_values[1], 2.0 * s - (n + 3)))
    entries.append(_entry("lambda2_Z", "<=", z_values[1], -(n + 1.0)))
    entries.append(
        _entry(
            "gap_T",
            ">=",
            t_values[0] - t_values[1],
            (n + 3.0) / n - 4.0 * m / (n * (n + 1.0)) - 2.0 * s / n,
        )
    )
    combinatorial = g.is_spanning_complete_bipartite()
    spectral_flag = bool(t_values[0] >= 1.0 - 1e-10)
    entries.append(
        _entry(
            "bipartite_iff",
            "==",
            float(spectral_flag),
            float(combinatorial),
        )
    )

    f_y = principal_vector(y_values, y_vectors)
    f_z = principal_vector(z_values, z_vectors)
    f_t = principal_vector(t_values, t_vectors)
    overlap_bound_half = (
        8.0 * m / ((n + 1.0) * (n + 3.0 - 2 * s)) if hyp_half else None
    )
    entries.append(
        _entry(
            "overlap_generic.Y",
            "<=",
            float(np.sum((f_y - j) ** 2)),
            overlap_bound_half,
            hypothesis="2s < n+3",
            holds=hyp_half,
        )
    )
    entries.append(
        _entry(
            "overlap_generic.Z",
            "<=",
            float(np.sum((f_z - j) ** 2)),
            8.0 * m / (n + 1.0) ** 2,
        )
    )
    delta_half = (
        4.0 * np.sqrt(s / (n + 3.0 - 2 * s)) if n + 3 - 2 * s > 0 else None
    )
    entries.append(
        _entry(
            "lmax_upper_Y",
            "<=",
            y_values[0],
            -(1.0 - delta_half) * 4.0 * m / (n + 1.0) if hyp_half else None,
            hypothesis="2s < n+3",
            holds=hyp_half,
        )
    )
    entries.append(
        _entry(
            "lmax_upper_Z",
            "<=",
            z_values[0],
            -(1.0 - 4.0 * np.sqrt(s / (n + 1.0))) * 4.0 * m / (n + 1.0),
        )
    )
    entries.append(
        _entry(
            "cor_T.upper",
            "<=",
            t_values[0],
            1.0 - (1.0 - delta_half) * 4.0 * m / (n * (n + 1.0))
            if hyp_half
            else None,
            hypothesis="2s < n+3",
            holds=hyp_half,
        )
    )
    entries.append(
        _entry("cor_T.lower", ">=", t_values[0], 1.0 - 4.0 * m / (n * (n + 1.0)))
    )
    entries.append(
        _entry(
            "cor_T.overlap",
            "<=",
            float(np.sum((f_t - j) ** 2)),
            overlap_bound_half,
            hypothesis="2s < n+3",
            holds=hyp_half,
        )
    )

    # Vector of per-vertex counts of negatively signed marked arcs by
    # terminus; entries lie in [0, n] and sum to m.
    sign_counts = np.zeros(order)
    for _, terminus in g.sigma_negative_arcs:
        sign_counts[terminus] += 1.0
    entries.append(
        _entry(
            "norm_l2",
            "<=",
            float(np.sum(sign_counts**2)),
            n * float(np.sum(sign_counts)),
        )
    )

    try:
        P = build_P(g)
    except EmptyComplement:
        P = None
    if P is not None:
        q_values, q_vectors = eigh(P.q_matrix)
        lambda_max_p, f_p = line_principal_pair(P)
        h = P.complement.incidence() @ np.full(
            P.num_edges, 1.0 / np.sqrt(P.num_edges)
        )
        entries.append(
            _entry(
                "norm_l1",
                "<=",
                float(np.sum(np.abs(h)) ** 2),
                order * float(np.sum(h**2)),
            )
        )
        entries.append(
            _entry(
                "pq_spectra",
                "<=",
                _pq_spectra_mismatch(P, q_values, q_vectors, lambda_max_p),
                PQ_MATCH_TOL,
            )
        )
        entries.append(
            _entry(
                "cor_P.upper",
                "<=",
                lambda_max_p,
                1.0
                - (1.0 - 4.0 * np.sqrt(s / (n + 1.0)))
                * 2.0
                * m
                / ((n + 1.0) * (n - 1.0)),
            )
        )
        entries.append(
            _entry(
                "cor_P.lower",
                ">=",
                lambda_max_p,
                1.0 - 2.0 * m / ((n + 1.0) * (n - 1.0)),
            )
        )
        j_edges = np.full(P.num_edges, 1.0 / np.sqrt(P.num_edges))
        entries.append(
            _entry(
                "cor_P.overlap",
                ">=",
                float(f_p @ j_edges) ** 2,
                1.0 - 4.0 * m / (n + 1.0) ** 2,
            )
        )
        x, _ = solve_absorption(P)
        t_c = float(x.mean())
        resolvent = 1.0 / (1.0 - lambda_max_p)
        entries.append(
            _entry(
                "tc_near_resolvent",
                "<=",
                abs(t_c - resolvent),
                4.0,
                hypothesis="64s <= n+1",
                holds=hyp_tc,
            )
        )
        entries.append(
            _entry(
                "tc_bracket.lower",
                ">=",
                resolvent,
                (n + 1.0) * (n - 1.0) / (2.0 * m),
                hypothesis="64s <= n+1",
                holds=hyp_tc,
            )
        )
        entries.append(
            _entry(
                "tc_bracket.upper",
                "<=",
                resolvent,
                (n + 1.0) * (n - 1.0) / m,
                hypothesis="64s <= n+1",
                holds=hyp_tc,
            )
        )
    else:
        for name in (
            "norm_l1",
            "pq_spectra",
            "cor_P.upper",
            "cor_P.lower",
            "cor_P.overlap",
            "tc_near_resolvent",
            "tc_bracket.lower",
            "tc_bracket.upper",
        ):
            entries.append(
                _entry(
                    name,
                    "<=",
                    None,
                    None,
                    hypothesis="complement nonempty",
                    holds=False,
                )
            )

    if not degenerate:
        diag = asymptotic_diagnostics(g, summarize_spectrum(t_values, t_vectors))
        overlap_t = float(f_t @ j) ** 2
        resolvent_t = 1.0 / (2.0 * (1.0 - t_values[0]))
        entries.append(
            _entry(
                "ratio",
                "<=",
                (1.0 - overlap_t) / (1.0 - t_values[0]),
                16.0 * n / (n + 1.0) * np.sqrt(s / (n + 3.0 - 2 * s))
                if hyp_ratio and hyp_small
                else None,
                hypothesis="4m/|E| + 4s/|V| <= 1 and 66s <= n+3",
                holds=hyp_ratio and hyp_small,
            )
        )
        entries.append(
            _entry(
                "beta_close",
                "<=",
                diag.rotation_gap_sq,
                16.0 * m / (n * (n + 1.0)),
                hypothesis="theta_max > 0",
                holds=True,
            )
        )
        entries.append(
            _entry(
                "beta_minus_close",
                "<=",
                diag.start_gap_sq,
                (12.0 + 8.0 * np.sqrt(2.0)) * m / ((n + 1.0) * (n + 3.0 - 2 * s))
                if hyp_half
                else None,
                hypothesis="2s < n+3",
                holds=hyp_half,
            )
        )
        entries.append(
            _entry(
                "beta_plus_mass",
                ">=",
                diag.target_mass,
                1.0
                - 2.0 * m / (n * (n + 1.0))
                - 16.0 * np.sqrt(s / (n + 3.0 - 2 * s))
                if hyp_ratio and hyp_small
                else None,
                hypothesis="4m/|E| + 4s/|V| <= 1 and 66s <= n+3",
                holds=hyp_ratio and hyp_small,
            )
        )
        entries.append(
            _entry(
                "fp_lower",
                ">=",
                diag.fp_at_tf,
                1.0
                - 22.0 * np.sqrt(m / ((n + 1.0) * (n + 3.0 - 2 * s)))
                - 32.0 * np.sqrt(s / (n + 3.0 - 2 * s))
                if hyp_ratio and hyp_small
                else None,
                hypothesis="4m/|E| + 4s/|V| <= 1 and 66s <= n+3",
                holds=hyp_ratio and hyp_small,
            )
        )
        entries.append(
            _entry(
                "qtime_order.lower",
                ">=",
                resolvent_t,
                n * (n + 1.0) / (8.0 * m),
                hypothesis="66s <= n+3",
                holds=hyp_small,
            )
        )
        entries.append(
            _entry(
                "qtime_order.upper",
                "<=",
                resolvent_t,
                n * (n + 1.0) / (8.0 * m * (1.0 - delta_half))
                if hyp_small
                else None,
                hypothesis="66s <= n+3",
                holds=hyp_small,
            )
        )
    else:
        gated = (
            ("ratio", "4m/|E| + 4s/|V| <= 1 and 66s <= n+3"),
            ("beta_close", "theta_max > 0"),
            ("beta_minus_close", "2s < n+3"),
            ("beta_plus_mass", "4m/|E| + 4s/|V| <= 1 and 66s <= n+3"),
            ("fp_lower", "4m/|E| + 4s/|V| <= 1 and 66s <= n+3"),
            ("qtime_order.lower", "66s <= n+3"),
            ("qtime_order.upper", "66s <= n+3"),
        )
        for name, hypothesis in gated:
            entries.append(
                _entry(name, "<=", None, None, hypothesis=hypothesis, holds=False)
            )

    return BoundLedger(
        n=n, marked_edges=g.marked_edges, entries=tuple(entries)
    )


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


def random_instance(
    rng: np.random.Generator,
    n_range: tuple[int, int],
    families: Sequence[str],
    max_gamma_vertices: int = 4,
) -> SignedCompleteGraph:
    """Draw an instance with random host size, family, size and placement.

    ``families`` entries are ``edge``, ``path``, ``matching``, ``star``,
    ``cycle`` or ``random`` (arbitrary nonempty edge set on at most
    ``max_gamma_vertices`` vertices).  The subgraph is placed on uniformly
    chosen distinct host vertices, exercising the relabelling path.
    """
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    family = families[int(rng.integers(len(families)))]
    if family == "random":
        v = int(rng.integers(2, max_gamma_vertices + 1))
        pairs = [(i, k) for i in range(v) for k in range(i + 1, v)]
        while True:
            mask = rng.integers(0, 2, size=len(pairs)).astype(bool)
            if mask.any():
                break
        edges = [p for p, keep in zip(pairs, mask) if keep]
    elif family in _FAMILY_GENERATORS:
        if family == "cycle" and max_gamma_vertices < 3:
            raise ValueError("cycles need max_gamma_vertices >= 3")
        edges = _FAMILY_GENERATORS[family](rng, max_gamma_vertices)
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
    failed.  Deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError(f"need at least one instance, got {count}")
    rng = np.random.default_rng(seed)
    checked = passed = skipped = 0
    failures: list[dict] = []
    for _ in range(count):
        g = random_instance(rng, n_range, families, max_gamma_vertices)
        ledger = verify_all(g)
        for e in ledger.entries:
            checked += 1
            if e.passed is None:
                skipped += 1
            elif e.passed:
                passed += 1
            else:
                failures.append(
                    {
                        "n": g.n,
                        "marked_edges": [list(edge) for edge in g.marked_edges],
                        "entry": e.as_dict(),
                    }
                )
    return SuiteReport(
        instances=count,
        entries_checked=checked,
        entries_passed=passed,
        entries_skipped=skipped,
        failures=tuple(failures),
    )
