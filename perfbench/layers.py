"""Per-layer metrics of edgewalk, computed from the spans of one traced pass.

The layers are the modules of ``src/edgewalk`` (``errors`` does no work).
Each public function is traced at its module boundary; a few calls also
record numbers from their arguments or results (arcs per walk step, order
of each eigensolve, solver residuals, ledger entry counts).

Self times are reported as a percentage of the traced pass's wall time: a
layer that a workload never enters has a self time of exactly zero on every
run, and a time that never varies cannot be told from a constant.  The
seconds behind every percentage are in the trace file a traced run writes.
"""

from __future__ import annotations

import math
import operator
import weakref
from collections import defaultdict
from contextlib import contextmanager

import spans

LAYERS = (
    "signed_graph",
    "operators",
    "spectral",
    "quantum_search",
    "classical_search",
    "bounds",
    "cli",
)

APPLY_U = "operators.apply_U"
MATVEC = "operators.LineTransitionMatrix.matvec"
EIGH = "spectral.eigh"
LINE_PAIR = "spectral.line_principal_pair"
SOLVE = "classical_search.solve_absorption"
DIAGNOSTICS = "quantum_search.asymptotic_diagnostics"
SERIES = "quantum_search.run_series"
VERIFY = "bounds.verify_all"
MONTE_CARLO = "classical_search.mc_hitting_time"
BUILD_INSTANCE = "signed_graph.build_instance"
CLI_MAIN = "cli.main"

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("traced_wall_s", "s", "lower"),
    ("trace_overhead_s", "s", "lower"),
    ("unattributed_pct", "%", "lower"),
    *((f"{layer}.self_pct", "%", "lower") for layer in LAYERS),
    (f"{APPLY_U}.calls", "count", "lower"),
    (f"{APPLY_U}.self_pct", "%", "lower"),
    (f"{APPLY_U}.arc_updates", "count", "lower"),
    (f"{MATVEC}.calls", "count", "lower"),
    (f"{MATVEC}.self_pct", "%", "lower"),
    (f"{LINE_PAIR}.dense_calls", "count", "lower"),
    (f"{LINE_PAIR}.lanczos_calls", "count", "lower"),
    (f"{LINE_PAIR}.matvecs", "count", "lower"),
    (f"{SOLVE}.self_pct", "%", "lower"),
    (f"{SOLVE}.matvecs", "count", "lower"),
    (f"{SOLVE}.residual_max", "ratio", "lower"),
    (f"{EIGH}.calls", "count", "lower"),
    (f"{EIGH}.self_pct", "%", "lower"),
    (f"{EIGH}.order3_sum", "count", "lower"),
    (f"{EIGH}.T_per_instance", "ratio", "lower"),
    ("spectral.principal_pair.calls", "count", "lower"),
    (f"{DIAGNOSTICS}.self_pct", "%", "lower"),
    (f"{DIAGNOSTICS}.apply_U_per_tf", "ratio", "lower"),
    (f"{SERIES}.self_pct", "%", "lower"),
    (f"{SERIES}.steps", "count", "lower"),
    (f"{VERIFY}.self_pct", "%", "lower"),
    (f"{VERIFY}.entries_checked", "count", "higher"),
    (f"{VERIFY}.entries_skipped", "count", "lower"),
    (f"{VERIFY}.min_rel_slack", "ratio", "higher"),
    (f"{MONTE_CARLO}.self_pct", "%", "lower"),
    (f"{MONTE_CARLO}.walker_steps", "count", "lower"),
    (f"{BUILD_INSTANCE}.self_pct", "%", "lower"),
    ("signed_graph.build_complement.self_pct", "%", "lower"),
    ("operators.build_T.self_pct", "%", "lower"),
    ("operators.build_P.self_pct", "%", "lower"),
    (f"{CLI_MAIN}.self_pct", "%", "lower"),
    (f"{CLI_MAIN}.bytes_written", "bytes", "lower"),
)
UNITS = {name: unit for name, unit, _ in METRICS}

# An entry met with equality (Gershgorin's 0 <= 0, an attained adjacency
# bound) has slack at rounding level; the margin worth watching is the
# smallest among entries whose two sides differ.
SLACK_FLOOR = 1e-12


class LayerProbe:
    """Annotators for the traced calls.

    Holds which arrays ``build_T`` returned, so that an eigensolve of the
    discriminant matrix can be told from the other eigensolves.
    """

    def __init__(self) -> None:
        self._t_matrices: dict[int, weakref.ref] = {}

    def _build_t(self, args, kwargs, result):
        self._t_matrices[id(result.matrix)] = weakref.ref(result.matrix)

    def _eigh(self, args, kwargs, result):
        matrix = args[0] if args else kwargs["matrix"]
        ref = self._t_matrices.get(id(matrix))
        is_t = ref is not None and ref() is matrix
        return {"order3": len(matrix) ** 3, "t_solves": int(is_t)}

    @staticmethod
    def _verify(args, kwargs, result):
        judged = [e for e in result.entries if e.passed is not None]
        margins = [
            e.slack / max(1.0, abs(e.rhs))
            for e in judged
            if e.relation != "==" and abs(e.slack) > SLACK_FLOOR * max(1.0, abs(e.rhs))
        ]
        return {
            "checked": len(result.entries),
            "skipped": len(result.entries) - len(judged),
            "min_rel_slack": min(margins, default=math.inf),
        }

    @staticmethod
    def _monte_carlo(args, kwargs, result):
        trials = args[1] if len(args) > 1 else kwargs["trials"]
        return {"walker_steps": round(result[0] * trials)}

    def annotators(self) -> dict:
        return {
            "operators.build_T": self._build_t,
            EIGH: self._eigh,
            APPLY_U: lambda a, k, r: {"arcs": r.shape[0]},
            SOLVE: lambda a, k, r: {"residual": r[1]},
            DIAGNOSTICS: lambda a, k, r: {"t_f": r.t_f},
            SERIES: lambda a, k, r: {"steps": r.t_max},
            VERIFY: self._verify,
            MONTE_CARLO: self._monte_carlo,
        }


@contextmanager
def traced(recorder: spans.SpanRecorder):
    """Wrap every layer of edgewalk for the duration of the block."""
    import importlib

    modules = [importlib.import_module(f"edgewalk.{layer}") for layer in LAYERS]
    operators = modules[LAYERS.index("operators")]
    with spans.instrumented(
        recorder,
        modules,
        methods=[(operators.LineTransitionMatrix, "matvec")],
        annotators=LayerProbe().annotators(),
        prefix="edgewalk.",
    ):
        yield recorder


# How the numbers that calls of one name attach are combined; others add.
_COMBINE = {"residual": max, "min_rel_slack": min}


def span_summary(recorder: spans.SpanRecorder) -> dict[str, dict]:
    """Calls, total and self seconds, and combined annotations per span name."""
    summary: dict[str, dict] = {}
    for name, start, end, own, attrs in zip(
        recorder.names, recorder.starts, recorder.ends,
        recorder.self_times(), recorder.attrs,
    ):
        row = summary.setdefault(
            name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "attrs": {}}
        )
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
        for key, value in (attrs or {}).items():
            if key in row["attrs"]:
                value = _COMBINE.get(key, operator.add)(row["attrs"][key], value)
            row["attrs"][key] = value
    return summary


def layer_metrics(
    recorder: spans.SpanRecorder,
    raw_wall_s: float,
    wall_s: float,
    overhead_s: float,
    bytes_written: int,
) -> dict[str, float]:
    """Every metric of ``METRICS`` for one traced pass.

    Shares are of ``raw_wall_s``, the pass's measured time; ``wall_s`` and
    ``overhead_s`` are calibrated seconds and only reported.
    """
    summary = span_summary(recorder)

    def row(name):
        return summary.get(name, {"calls": 0, "self_s": 0.0, "attrs": {}})

    def pct(seconds):
        return 100.0 * seconds / raw_wall_s

    def attr(name, key, empty=0.0):
        value = row(name)["attrs"].get(key, empty)
        return empty if math.isinf(value) else value

    layer_self = defaultdict(float)
    for name, r in summary.items():
        layer_self[name.split(".")[0]] += r["self_s"]
    line_paths = defaultdict(set)
    for i, parent in enumerate(recorder.parents):
        if parent >= 0 and recorder.names[parent] == LINE_PAIR:
            line_paths[recorder.names[i]].add(parent)
    tf_sum = attr(DIAGNOSTICS, "t_f")
    instances = row(BUILD_INSTANCE)["calls"]

    values = {
        "traced_wall_s": wall_s,
        "trace_overhead_s": overhead_s,
        "unattributed_pct": pct(raw_wall_s - sum(layer_self.values())),
        **{f"{layer}.self_pct": pct(layer_self[layer]) for layer in LAYERS},
        f"{APPLY_U}.calls": row(APPLY_U)["calls"],
        f"{APPLY_U}.self_pct": pct(row(APPLY_U)["self_s"]),
        f"{APPLY_U}.arc_updates": attr(APPLY_U, "arcs"),
        f"{MATVEC}.calls": row(MATVEC)["calls"],
        f"{MATVEC}.self_pct": pct(row(MATVEC)["self_s"]),
        f"{LINE_PAIR}.dense_calls": len(line_paths[EIGH]),
        f"{LINE_PAIR}.lanczos_calls": len(line_paths[MATVEC]),
        f"{LINE_PAIR}.matvecs": recorder.descendants_named(LINE_PAIR, MATVEC),
        f"{SOLVE}.self_pct": pct(row(SOLVE)["self_s"]),
        f"{SOLVE}.matvecs": recorder.descendants_named(SOLVE, MATVEC),
        f"{SOLVE}.residual_max": attr(SOLVE, "residual"),
        f"{EIGH}.calls": row(EIGH)["calls"],
        f"{EIGH}.self_pct": pct(row(EIGH)["self_s"]),
        f"{EIGH}.order3_sum": attr(EIGH, "order3"),
        f"{EIGH}.T_per_instance": attr(EIGH, "t_solves") / instances if instances else 0.0,
        "spectral.principal_pair.calls": row("spectral.principal_pair")["calls"],
        f"{DIAGNOSTICS}.self_pct": pct(row(DIAGNOSTICS)["self_s"]),
        f"{DIAGNOSTICS}.apply_U_per_tf": (
            recorder.descendants_named(DIAGNOSTICS, APPLY_U) / tf_sum if tf_sum else 0.0
        ),
        f"{SERIES}.self_pct": pct(row(SERIES)["self_s"]),
        f"{SERIES}.steps": attr(SERIES, "steps"),
        f"{VERIFY}.self_pct": pct(row(VERIFY)["self_s"]),
        f"{VERIFY}.entries_checked": attr(VERIFY, "checked"),
        f"{VERIFY}.entries_skipped": attr(VERIFY, "skipped"),
        f"{VERIFY}.min_rel_slack": attr(VERIFY, "min_rel_slack"),
        f"{MONTE_CARLO}.self_pct": pct(row(MONTE_CARLO)["self_s"]),
        f"{MONTE_CARLO}.walker_steps": attr(MONTE_CARLO, "walker_steps"),
        f"{BUILD_INSTANCE}.self_pct": pct(row(BUILD_INSTANCE)["self_s"]),
        "signed_graph.build_complement.self_pct": pct(
            row("signed_graph.build_complement")["self_s"]
        ),
        "operators.build_T.self_pct": pct(row("operators.build_T")["self_s"]),
        "operators.build_P.self_pct": pct(row("operators.build_P")["self_s"]),
        f"{CLI_MAIN}.self_pct": pct(row(CLI_MAIN)["self_s"]),
        f"{CLI_MAIN}.bytes_written": bytes_written,
    }
    return values
