"""Command-line front end.

Subcommands: ``simulate`` (finding-probability series), ``classical``
(hitting time, optional Monte-Carlo check), ``verify`` (inequality
ledger), ``fig2`` (the K_100 path benchmark), ``speedup`` (scaling table
over host sizes) and ``spectrum`` (discriminant spectrum summary).

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error (among them a host too large to lift, or whose lambda_max(T) float64
cannot tell from 1), 3 degenerate spectrum (the marked subgraph is a
spanning complete bipartite graph, so the searching time is undefined), 4
internal or solver error (an eigensolver or linear solve that did not
converge, a failed internal consistency check, or memory exhaustion).

``main(argv)`` returns the exit code and may be called repeatedly in one
process; it builds its parser on the first call and reuses it. Usage
errors raise ``SystemExit(2)``, as argparse does.

File outputs are CSV (header ``t,probability``, decimal probabilities in
their shortest round-trip digits, padded as ``_format_probability`` pads
them, which is usually to 12 significant digits) and JSON reports that
echo the fully resolved configuration for reproducibility.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .bounds import verify_all
from .classical_search import _searching_time, hitting_time, mc_hitting_time
from .errors import (
    DegenerateSpectrum,
    EdgeWalkError,
    NoConvergence,
    SolverFailure,
    TooSmall,
)
from .operators import build_T
from .quantum_search import quantum_time, run_series
from .signed_graph import build_instance, edges_from_descriptor, path_edges
from .spectral import principal_pair, quotient_spectrum

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_INTERNAL = 4

# Reference values for the K_100 path benchmark, keyed by path edge count:
# searching time t_f and the finding probability attained at step t_f - 1
# (one step = one application of the walk operator; step 0 is the uniform
# start).
K100_EXPECTED = {
    1: (55, 0.9777214768),
    2: (39, 0.9663637014),
    3: (32, 0.9638438771),
}


def _format_probability(x: float) -> str:
    return np.format_float_positional(
        x, unique=True, fractional=False, precision=None, min_digits=12, trim="k"
    )


def _write_series_csv(path: Path, fp) -> None:
    # For 1e-4 <= p < 1 the repr of p is positional and its digits are the
    # shortest that round-trip, as numpy's unique digits are; with at least
    # 12 significant digits min_digits adds none, so the repr is the cell.
    # A repr "0.d..." has len - 2 digits, (p < 0.1) + (p < 0.01) +
    # (p < 0.001) of them leading zeros.
    cells = list(map(float.__repr__, fp.tolist()))
    digits = np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))
    digits -= 2 + (fp < 0.1) + (fp < 0.01) + (fp < 0.001)
    exact = (fp >= 1e-4) & (fp < 1.0) & (digits >= 12)
    for t in np.flatnonzero(~exact).tolist():
        cells[t] = _format_probability(fp[t])
    with path.open("w") as out:
        out.write("t,probability\n")
        out.writelines(f"{t},{cell}\n" for t, cell in enumerate(cells))


def _write_json(path: Path, payload: dict | list) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)


def _load_descriptor(text: str) -> dict:
    candidate = Path(text)
    try:
        is_file = candidate.is_file()
    except OSError:  # inline JSON longer than a file name may be
        is_file = False
    if is_file:
        text = candidate.read_text()
    try:
        descriptor = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"subgraph descriptor is neither a readable file nor valid JSON: {exc}"
        ) from exc
    if not isinstance(descriptor, dict):
        raise ValueError("subgraph descriptor must be a JSON object")
    return descriptor


def _config_echo(args, **resolved) -> dict:
    # Every report carries the same keys; an option the command does not
    # take is recorded with its default.
    echo = {
        "n": getattr(args, "n", None),
        "subgraph": resolved.pop("subgraph"),
        "t_max": getattr(args, "t_max", None),
        "trials": getattr(args, "trials", 0),
        "seed": getattr(args, "seed", 0),
        "out": str(args.out),
    }
    echo.update(resolved)
    return echo


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _instance_from_args(args):
    descriptor = _load_descriptor(args.subgraph)
    edges = edges_from_descriptor(descriptor, n=args.n)
    return build_instance(args.n, edges), descriptor


def cmd_simulate(args) -> int:
    g, descriptor = _instance_from_args(args)
    summary = principal_pair(build_T(g))
    t_f = quantum_time(summary)
    t_max = args.t_max if args.t_max is not None else 2 * t_f
    series = run_series(g, t_max, summary)
    out = _out_dir(args)
    series_path = out / "series.csv"
    _write_series_csv(series_path, series.fp)
    config = _config_echo(args, subgraph=descriptor)
    config["t_max"] = t_max
    report = {
        "config": config,
        "spectral": {
            "lambda_max": summary.lambda_max,
            "theta_max": summary.theta_max,
            "gap": summary.gap,
            "overlap": summary.overlap,
        },
        "t_f": t_f,
        "fp_at_tf": series.fp_at_tf,
        "series_csv": str(series_path),
    }
    report_path = out / "report.json"
    _write_json(report_path, report)
    print(f"t_f={t_f}  fp_at_tf={series.fp_at_tf}  series={series_path}")
    return EXIT_OK


def cmd_classical(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    g, descriptor = _instance_from_args(args)
    result = hitting_time(g)
    mc = None
    if args.trials > 0:
        mean, stderr = mc_hitting_time(g, args.trials, seed=args.seed)
        mc = {"mean": mean, "standard_error": stderr, "trials": args.trials}
    out = _out_dir(args)
    report = {
        "config": _config_echo(args, subgraph=descriptor),
        "t_c": result.t_c,
        "lambda_max_P": result.lambda_max_P,
        "solver_residual": result.solver_residual,
        "mc_estimate": mc,
    }
    report_path = out / "report.json"
    _write_json(report_path, report)
    print(f"t_c={result.t_c}  lambda_max_P={result.lambda_max_P}  report={report_path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g, descriptor = _instance_from_args(args)
    ledger = verify_all(g)
    out = _out_dir(args)
    ledger_path = out / "ledger.json"
    _write_json(ledger_path, ledger.to_json_entries())
    checked = len(ledger.entries)
    skipped = len(ledger.skipped)
    failures = ledger.failures
    print(
        f"entries={checked}  passed={checked - skipped - len(failures)}  "
        f"skipped={skipped}  failed={len(failures)}  ledger={ledger_path}"
    )
    for entry in failures:
        print(f"FAILED: {json.dumps(entry.as_dict())}", file=sys.stderr)
    _write_json(
        out / "report.json",
        {
            "config": _config_echo(args, subgraph=descriptor),
            "ledger": str(ledger_path),
            "entries": checked,
            "skipped": skipped,
            "failed": len(failures),
        },
    )
    return EXIT_VERIFY if failures else EXIT_OK


def cmd_fig2(args) -> int:
    out = _out_dir(args)
    summary = []
    for k in (1, 2, 3):
        g = build_instance(99, path_edges(k))
        series = run_series(g, 100)
        csv_path = out / f"fig2_path{k}.csv"
        _write_series_csv(csv_path, series.fp)
        t_f = series.t_f
        expected_tf, expected_fp = K100_EXPECTED[k]
        fp_before = float(series.fp[t_f - 1])
        fp_at = float(series.fp[t_f])
        matched = min(abs(fp_before - expected_fp), abs(fp_at - expected_fp)) <= 1e-6
        summary.append(
            {
                "path_edges": k,
                "t_f": t_f,
                "fp_at_tf_minus_1": fp_before,
                "fp_at_tf": fp_at,
                "fp_peak": float(series.fp.max()),
                "t_peak": int(series.fp.argmax()),
                "expected_t_f": expected_tf,
                "expected_fp": expected_fp,
                "matched": bool(matched and t_f == expected_tf),
                "series_csv": str(csv_path),
            }
        )
        print(
            f"path with {k} edge(s): t_f={t_f}  fp(t_f-1)={fp_before:.10f}  "
            f"fp(t_f)={fp_at:.10f}  matched={summary[-1]['matched']}"
        )
    _write_json(out / "fig2_summary.json", {"series": summary})
    return EXIT_OK


def cmd_speedup(args) -> int:
    n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
    if not n_list:
        raise ValueError("empty n list")
    # Every host must hold the subgraph: check them all before any row.
    if min(n_list) < 2:
        raise TooSmall(f"need n >= 2, got n = {min(n_list)}")
    descriptor = _load_descriptor(args.subgraph)
    edges = edges_from_descriptor(descriptor, n=min(n_list))
    # Every row is computed before any is printed or written, so a host that
    # fails (a degenerate spectrum, a solver error) leaves no partial table.
    rows = []
    for n in n_list:
        g = build_instance(n, edges)
        t_f = quantum_time(principal_pair(build_T(g)))
        t_c = _searching_time(g)[0]
        m = g.num_marked
        rows.append(
            {
                "n": n,
                "gamma_edges": m,
                "t_f": t_f,
                "t_f_normalized": float(t_f * np.sqrt(m) / n),
                "t_c": t_c,
                "t_c_normalized": float(t_c * m / n**2),
            }
        )
    for row in rows:
        print(
            "n={n}  t_f={t_f}  t_f*sqrt(m)/n={t_f_normalized:.4f}  "
            "t_c={t_c:.2f}  t_c*m/n^2={t_c_normalized:.4f}".format(**row)
        )
    out = _out_dir(args)
    csv_lines = ["n,gamma_edges,t_f,t_f_normalized,t_c,t_c_normalized"]
    csv_lines.extend(
        "{n},{gamma_edges},{t_f},{t_f_normalized!r},{t_c!r},{t_c_normalized!r}".format(
            **row
        )
        for row in rows
    )
    (out / "speedup.csv").write_text("\n".join(csv_lines) + "\n")
    _write_json(
        out / "speedup.json",
        {"config": _config_echo(args, subgraph=descriptor, n_list=n_list), "rows": rows},
    )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    g, descriptor = _instance_from_args(args)
    spectrum = quotient_spectrum(build_T(g))
    top = spectrum.descending(2)
    degenerate = False
    scalars = {"lambda_max": float(top[0]), "gap": float(top[0] - top[1])}
    # the summary refuses a lost angle before the O(n) list is lifted
    try:
        summary = spectrum.summary()
        scalars.update(
            theta_max=summary.theta_max,
            overlap=summary.overlap,
            t_f=quantum_time(summary),
        )
    except DegenerateSpectrum:
        degenerate = True
        scalars.update(theta_max=None, overlap=None, t_f=None)
    out = _out_dir(args)
    payload = {
        "config": _config_echo(args, subgraph=descriptor),
        "eigenvalues": [float(v) for v in spectrum.descending()],
        "degenerate": degenerate,
        **scalars,
    }
    _write_json(out / "spectrum.json", payload)
    print(
        f"lambda_max={scalars['lambda_max']:.12f}  degenerate={degenerate}  "
        f"t_f={scalars.get('t_f')}"
    )
    return EXIT_OK


def _add_instance(parser) -> None:
    """The options of a command that reads one instance: --n, --subgraph
    and --out.  Each command adds only the further options it reads."""
    parser.add_argument("--n", type=int, required=True, help="host graph is K_{n+1}")
    parser.add_argument(
        "--subgraph",
        required=True,
        help="subgraph descriptor as JSON or a path to a JSON file",
    )
    parser.add_argument("--out", default="edgewalk-out")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and reused: parse_args returns a fresh
    # Namespace each time and never changes the parser's defaults
    parser = argparse.ArgumentParser(
        prog="edgewalk",
        description="Search for the marked edges of a subgraph in a complete "
        "graph with a sign-perturbed quantum walk, and compare against the "
        "classical random-walk baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="finding-probability series and report")
    _add_instance(p)
    p.add_argument("--t-max", dest="t_max", type=int, default=None,
                   help="last step of the series (default: twice the searching time)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("classical", help="hitting time with optional Monte-Carlo check")
    _add_instance(p)
    p.add_argument("--trials", type=int, default=0,
                   help="Monte-Carlo walks (default 0: no Monte-Carlo check)")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed in [0, 2**64)")
    p.set_defaults(func=cmd_classical)

    p = sub.add_parser("verify", help="evaluate the inequality ledger")
    _add_instance(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fig2", help="reproduce the K_100 path benchmark")
    p.add_argument("--out", default="edgewalk-out")
    p.set_defaults(func=cmd_fig2)

    p = sub.add_parser("speedup", help="scaling table over a list of host sizes")
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma-separated host sizes, e.g. 64,128,256")
    p.add_argument("--subgraph", default='{"kind": "path", "k": 1}',
                   help="subgraph descriptor (default: a single edge)")
    p.add_argument("--out", default="edgewalk-out")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("spectrum", help="discriminant spectrum summary")
    _add_instance(p)
    p.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateSpectrum as exc:
        _print_error("degenerate_spectrum", str(exc))
        return EXIT_DEGENERATE
    except (NoConvergence, SolverFailure, AssertionError, MemoryError) as exc:
        _print_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    except (EdgeWalkError, ValueError, OSError) as exc:
        _print_error("config", str(exc))
        return EXIT_CONFIG
    except Exception as exc:
        # any other failure is a defect, never "verification failed" (1)
        _print_error("internal", f"{type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
