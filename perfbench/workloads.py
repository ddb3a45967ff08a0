"""The benchmark's workloads: inputs drawn from a seed, the operations that
are timed, and the checks that each operation's output is correct.

An operation is one call a user makes: one ledger instance (build the
instance, run ``verify_all``) or one ``edgewalk`` command through
``cli.main``.  Inputs are plain JSON specs, so a run can digest them and two
runs can be compared only when they timed the same inputs.

Every call into edgewalk goes through a module attribute looked up at call
time (``ew.verify_all``, ``cli.main``), so that the tracer's wrappers see it.
Neither edgewalk nor numpy is imported at module level: the benchmark times
those imports as part of set-up.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# The criterion-5 instance stream of the acceptance suite (its seed is the
# benchmark's default seed).
LEDGER_N_RANGE = (260, 400)
LEDGER_FAMILIES = ("edge", "path", "matching", "star")
LEDGER_MAX_GAMMA = 4
# One instance per (host-size band, one marked edge or several): the cost of
# an instance grows like n^3 and shrinks with the number of marked edges, so
# a plain prefix of the stream would make a run's cost depend on its seed.
LEDGER_N_BANDS = 16
LEDGER_MAX_DRAWS = 10_000

WALK_SIZES = (300, 400)
SPEEDUP_N_LIST = (64, 128, 256, 384)
# Two Monte-Carlo runs per host size, so that most operations of a pass are
# of one kind and their median is steady.
MC_TRIALS = 10_000
MC_REPEATS = 2
# Exact classical searching times on K_3 and K_4 with one marked edge.
CLASSICAL_EXACT = {2: 2.0, 3: 26.0 / 5.0}
# A seed is drawn afresh for every run, so the Monte-Carlo check must hold
# for almost every seed: |z| > 5 has probability 6e-7 for a correct walker.
MC_Z_LIMIT = 5.0


@dataclass
class Outcome:
    """What one checked operation produced."""

    ok: bool
    seconds: float
    problems: list[str] = field(default_factory=list)
    bytes_written: int = 0
    # Reference-kernel seconds measured just before the operation.
    kernel_s: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    name: str
    specs: Callable[[int], list[dict]]
    # The spec run once, untimed, as part of set-up: the cheapest operation
    # that enters the same code as the timed pass.
    warm_up_index: int


def _edge_descriptor(u: int, v: int) -> str:
    return json.dumps({"kind": "edges", "edges": [[u, v]]})


def ledger_specs(seed: int) -> list[dict]:
    """First instance of the stream in each (n band, m = 1 or m >= 2) cell.

    The stream is ``random_instance`` over n in [260, 400], families
    edge/path/matching/star and at most 4 marked-subgraph vertices, drawn
    from ``default_rng(seed)``; seed 20240809 is the acceptance suite's own
    stream, so every instance picked there is one it verifies.
    """
    import numpy as np
    from edgewalk.bounds import random_instance

    rng = np.random.default_rng(seed)
    lo, hi = LEDGER_N_RANGE
    width = (hi - lo + 1) / LEDGER_N_BANDS
    cells: dict[tuple[int, int], dict] = {}
    for draw in range(LEDGER_MAX_DRAWS):
        g = random_instance(rng, LEDGER_N_RANGE, LEDGER_FAMILIES, LEDGER_MAX_GAMMA)
        cell = (int((g.n - lo) // width), min(g.num_marked, 2))
        if cell not in cells:
            cells[cell] = {
                "kind": "ledger",
                "n": g.n,
                "edges": [list(e) for e in g.marked_edges],
                "stream_index": draw,
            }
        if len(cells) == 2 * LEDGER_N_BANDS:
            return [cells[c] for c in sorted(cells)]
    raise RuntimeError(f"stream did not fill every cell in {LEDGER_MAX_DRAWS} draws")


def walk_specs(seed: int) -> list[dict]:
    """``fig2``, then ``simulate`` with one marked edge on seeded labels."""
    import numpy as np

    rng = np.random.default_rng(seed)
    specs = [{"kind": "fig2", "argv": ["fig2"]}]
    for n in WALK_SIZES:
        u, v = (int(x) for x in rng.choice(n + 1, size=2, replace=False))
        specs.append(
            {
                "kind": "simulate",
                "n": n,
                "m": 1,
                "argv": ["simulate", "--n", str(n), "--subgraph", _edge_descriptor(u, v)],
            }
        )
    return specs


def classical_specs(seed: int) -> list[dict]:
    """``speedup`` over a seeded single edge, then ``classical`` on K_3 and
    K_4, each twice with its own seeded Monte-Carlo check."""
    import numpy as np

    rng = np.random.default_rng(seed)
    u, v = (int(x) for x in rng.choice(min(SPEEDUP_N_LIST) + 1, size=2, replace=False))
    specs = [
        {
            "kind": "speedup",
            "n_list": list(SPEEDUP_N_LIST),
            "argv": [
                "speedup",
                "--n-list",
                ",".join(str(n) for n in SPEEDUP_N_LIST),
                "--subgraph",
                _edge_descriptor(u, v),
            ],
        }
    ]
    for n, exact in [*CLASSICAL_EXACT.items()] * MC_REPEATS:
        a, b = (int(x) for x in rng.choice(n + 1, size=2, replace=False))
        mc_seed = int(rng.integers(2**31))
        specs.append(
            {
                "kind": "classical",
                "n": n,
                "exact_t_c": exact,
                "argv": [
                    "classical", "--n", str(n), "--subgraph", _edge_descriptor(a, b),
                    "--trials", str(MC_TRIALS), "--seed", str(mc_seed),
                ],
            }
        )
    return specs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ledger_sweep", ledger_specs, warm_up_index=0),
        Workload("walk_series", walk_specs, warm_up_index=0),
        Workload("classical_scaling", classical_specs, warm_up_index=1),
    )
}


def run_checked(spec: dict, workdir: Path) -> Outcome:
    """Time one operation, then check its output outside the timed region.

    An exception from the program counts as a failed operation.
    """
    import edgewalk as ew
    from edgewalk import cli

    clock = time.perf_counter
    out = workdir / "op"
    shutil.rmtree(out, ignore_errors=True)
    start = clock()
    try:
        if spec["kind"] == "ledger":
            g = ew.build_instance(spec["n"], [tuple(e) for e in spec["edges"]])
            ledger = ew.verify_all(g)
            seconds = clock() - start
            problems = [
                f"{e.name} failed: lhs={e.lhs!r} rhs={e.rhs!r}"
                for e in ledger.failures
            ]
            return Outcome(not problems, seconds, problems)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(spec["argv"] + ["--out", str(out)])
        seconds = clock() - start
        problems = [f"exit code {code}"] if code != 0 else CHECKS[spec["kind"]](spec, out)
        written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        return Outcome(not problems, seconds, problems, written)
    except Exception as exc:  # the program failed; record it and go on
        return Outcome(False, clock() - start, [f"{type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _check_fig2(spec: dict, out: Path) -> list[str]:
    series = json.loads((out / "fig2_summary.json").read_text())["series"]
    matched = {row["path_edges"]: row["matched"] for row in series}
    if sorted(matched) != [1, 2, 3]:
        return [f"fig2 reported path sizes {sorted(matched)}"]
    return [f"fig2 path {k} not matched" for k, ok in matched.items() if not ok]


def _check_simulate(spec: dict, out: Path) -> list[str]:
    n, m = spec["n"], spec["m"]
    report = json.loads((out / "report.json").read_text())
    rows = (out / "series.csv").read_text().splitlines()
    problems = []
    fp0 = float(rows[1].split(",")[1])
    expected = 2.0 * m / (n * (n + 1))
    if not abs(fp0 - expected) <= 1e-12 * expected:
        problems.append(f"fp[0]={fp0!r}, expected {expected!r}")
    fp_tf = report["fp_at_tf"]
    if fp_tf is None or not 0.0 <= fp_tf <= 1.0:
        problems.append(f"fp_at_tf={fp_tf!r} outside [0, 1]")
    if len(rows) != report["config"]["t_max"] + 2:
        problems.append(f"series has {len(rows) - 1} rows for t_max={report['config']['t_max']}")
    return problems


def _check_speedup(spec: dict, out: Path) -> list[str]:
    """The acceptance suite's criterion-7 bands, row by row."""
    rows = json.loads((out / "speedup.json").read_text())["rows"]
    if [r["n"] for r in rows] != spec["n_list"]:
        return [f"speedup rows for n={[r['n'] for r in rows]}"]
    problems = [
        f"n={r['n']}: t_c*m/n^2={r['t_c_normalized']!r} outside [0.45, 1.1]"
        for r in rows
        if not 0.45 <= r["t_c_normalized"] <= 1.1
    ]
    tf_norm = [r["t_f"] / r["n"] for r in rows]
    if max(tf_norm) / min(tf_norm) > 1.6:
        problems.append(f"t_f/n spreads by {max(tf_norm) / min(tf_norm):.3f} > 1.6")
    # Criterion 7 asks t_c/t_f to grow at least 1.8x when n doubles, i.e. by
    # at least 0.9 of the growth in n; the same share applies to other steps.
    for prev, row in zip(rows, rows[1:]):
        growth = (row["t_c"] / row["t_f"]) / (prev["t_c"] / prev["t_f"])
        if growth < 0.9 * row["n"] / prev["n"]:
            problems.append(f"t_c/t_f grew {growth:.3f}x from n={prev['n']} to {row['n']}")
    return problems


def _check_classical(spec: dict, out: Path) -> list[str]:
    report = json.loads((out / "report.json").read_text())
    problems = []
    if not abs(report["t_c"] - spec["exact_t_c"]) <= 1e-12:
        problems.append(f"t_c={report['t_c']!r}, expected {spec['exact_t_c']!r}")
    mc = report["mc_estimate"]
    z = (mc["mean"] - spec["exact_t_c"]) / mc["standard_error"]
    if not (math.isfinite(z) and abs(z) <= MC_Z_LIMIT):
        problems.append(f"Monte-Carlo mean {mc['mean']!r} is {z:.2f} standard errors off")
    return problems


CHECKS = {
    "fig2": _check_fig2,
    "simulate": _check_simulate,
    "speedup": _check_speedup,
    "classical": _check_classical,
}
