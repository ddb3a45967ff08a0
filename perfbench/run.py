"""Benchmark of edgewalk: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload ledger_sweep --seed 20240809 --seconds 25 --trace 0
    python3 perfbench/run.py --record perfbench/BENCH_baseline.json --seeds 20240809,7

Run from the root of a source tree: the package is imported from ``src/``
there, never from an installed copy.  A single closed-loop client runs one
operation at a time.  After set-up, whole passes over the workload's
operations repeat until ``--seconds`` would be exceeded (at least one pass).

With ``--trace 0`` the run reports the end-to-end metrics: ``wall_s``
(median pass time), ``op_p50_s`` (median operation time), ``setup_s``
(median of three set-ups, each a fresh import of edgewalk, drawing the
inputs and one untimed warm-up operation) and ``peak_rss_mb``.  With
``--trace 1`` it times untraced passes for half the budget, then one pass
with every public function of edgewalk wrapped, and reports the per-layer
metrics of ``layers.py``.  Every operation's output is checked; the last
line of standard output is the JSON result.

``--record`` runs every workload at each seed, untraced and traced, each in
its own process, and writes all results with their provenance to one file.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy can load: one thread, which is
# at most the core count on any machine and keeps runs steady on a shared one.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans
from workloads import WORKLOADS, Outcome, run_checked

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
DEFAULT_SEED = 20240809
DEFAULT_SECONDS = 25
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 180

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Time of the reference kernel on the 2-core machine the baseline was
# recorded on.  Every reported time is calibrated: raw seconds times
# KERNEL_REF_S over the kernel's median time measured alongside them.
KERNEL_REF_S = 0.035
SETUP_KERNEL_SAMPLES = 5


class ReferenceKernel:
    """Fixed work that never touches edgewalk, timed between operations.

    The machine is shared: the same operation runs up to 1.5x slower in one
    minute than in the next, and the slowdown hits streaming numpy code,
    LAPACK and the interpreter alike.  The kernel does a little of each
    (about 35 ms), so the ratio of an operation's time to the kernel's time
    next to it stays steady while both swing.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._stream = rng.random(1 << 19)
        self._buffer = np.empty_like(self._stream)
        half = rng.random((150, 150))
        self._symmetric = half + half.T

    def time(self) -> float:
        np = self._np
        start = time.perf_counter()
        for _ in range(16):
            np.multiply(self._stream, 1.0001, out=self._buffer)
            np.add(self._buffer, 0.5, out=self._buffer)
            self._buffer.sum()
        for _ in range(4):
            np.linalg.eigh(self._symmetric)
        total = 0
        for i in range(150_000):
            total += i * i
        return time.perf_counter() - start


def scale(kernel_times: list[float]) -> float:
    """Factor from raw to calibrated seconds."""
    return KERNEL_REF_S / statistics.median(kernel_times)


class Run:
    """Outcomes of every checked operation of one run."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.outcomes: list[Outcome] = []
        self.kernel: ReferenceKernel | None = None
        self._last_kernel_s: float | None = None

    def start_kernel(self, samples: int) -> list[float]:
        """Create the reference kernel and time it ``samples`` times."""
        self.kernel = ReferenceKernel()
        times = [self.kernel.time() for _ in range(samples)]
        self._last_kernel_s = times[-1]
        return times

    def op(self, spec: dict) -> Outcome:
        """Run and check one operation.

        Once the kernel exists, the operation's kernel time is the mean of
        the kernel runs just before and just after it.
        """
        outcome = run_checked(spec, self.workdir)
        if self.kernel is not None:
            after = self.kernel.time()
            outcome.kernel_s = 0.5 * (self._last_kernel_s + after)
            self._last_kernel_s = after
        self.outcomes.append(outcome)
        for problem in outcome.problems:
            print(f"FAILED {spec['kind']}: {problem}", file=sys.stderr)
        return outcome

    def passes(self, specs: list[dict], budget_s: float) -> list[list[Outcome]]:
        """Whole passes until the next one would end past ``budget_s``."""
        began = time.perf_counter()
        done: list[list[Outcome]] = []
        while True:
            done.append([self.op(spec) for spec in specs])
            spent = time.perf_counter() - began
            if spent + statistics.median(raw_seconds(p) for p in done) > budget_s:
                return done

    @property
    def failed(self) -> int:
        return sum(not o.ok for o in self.outcomes)


def raw_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def calibrated(outcome: Outcome) -> float:
    return outcome.seconds * KERNEL_REF_S / outcome.kernel_s


def calibrated_seconds(outcomes: list[Outcome]) -> float:
    return sum(calibrated(o) for o in outcomes)


def set_up(workload: str, seed: int, run: Run) -> tuple[float, float, list[dict]]:
    """Import edgewalk, draw the inputs and run the warm-up operation.

    Returns the raw and calibrated set-up seconds, which count the import
    and the warm-up but not the drawing of inputs, and the inputs.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SOURCE))
    import edgewalk

    imported = time.perf_counter() - start
    origin = Path(edgewalk.__file__).resolve()
    if SOURCE.resolve() not in origin.parents:
        raise SystemExit(f"edgewalk was imported from {origin}, not from {SOURCE}")
    spec = WORKLOADS[workload]
    specs = spec.specs(seed)
    seconds = imported + run.op(specs[spec.warm_up_index]).seconds
    factor = scale(run.start_kernel(SETUP_KERNEL_SAMPLES))
    return seconds, seconds * factor, specs


def probe_set_up(workload: str, seed: int) -> dict:
    """One set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up probe failed:\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def _git_commit() -> str | None:
    """HEAD of the source tree, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, specs: list[dict]) -> dict:
    import edgewalk
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    sources = sorted((SOURCE / "edgewalk").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "package": f"edgewalk {edgewalk.__version__}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "inputs_sha256": inputs_digest(specs),
    }


def inputs_digest(specs: list[dict]) -> str:
    return hashlib.sha256(json.dumps(specs, sort_keys=True).encode()).hexdigest()


def end_to_end(args, run: Run) -> tuple[list[dict], dict, dict]:
    raw, setup_s, specs = set_up(args.workload, args.seed, run)
    setups = [{"raw_s": raw, "setup_s": setup_s}]
    for _ in range(SETUP_SAMPLES - 1):
        probe = probe_set_up(args.workload, args.seed)
        setups.append({"raw_s": probe["raw_s"], "setup_s": probe["setup_s"]})
        run.outcomes.append(Outcome(probe["ok"], probe["raw_s"], probe["problems"]))
    done = run.passes(specs, args.seconds)
    ops = [calibrated(o) for p in done for o in p]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(calibrated_seconds(p) for p in done),
        "op_p50_s": statistics.median(ops),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    details = {
        "passes": len(done),
        "operations": len(ops),
        "raw_wall_s": statistics.median(raw_seconds(p) for p in done),
        "raw_op_p50_s": statistics.median(o.seconds for p in done for o in p),
        "kernel_p50_s": statistics.median(o.kernel_s for p in done for o in p),
        "setups": setups,
    }
    return specs, metrics, details


def traced(args, run: Run) -> tuple[list[dict], dict, dict]:
    _, _, specs = set_up(args.workload, args.seed, run)
    untraced = [calibrated_seconds(p) for p in run.passes(specs, args.seconds / 2.0)]
    recorder = spans.SpanRecorder()
    with layers.traced(recorder):
        traced_pass = [run.op(spec) for spec in specs]
    wall = calibrated_seconds(traced_pass)
    metrics = layers.layer_metrics(
        recorder,
        raw_seconds(traced_pass),
        wall,
        wall - statistics.median(untraced),
        sum(o.bytes_written for o in traced_pass),
    )
    trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_path.write_text(
        json.dumps(
            {
                "provenance": provenance(args.workload, args.seed, specs),
                "untraced_pass_s": untraced,
                "traced_wall_s": wall,
                "traced_raw_wall_s": raw_seconds(traced_pass),
                "layers": layers.span_summary(recorder),
                "spans": recorder.to_json(),
            }
        )
    )
    details = {
        "untraced_passes": len(untraced),
        "spans": len(recorder),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return specs, metrics, details


def run_workload(args) -> int:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workdir)
        if args.setup_probe:
            raw, setup_s, _ = set_up(args.workload, args.seed, run)
            problems = [p for o in run.outcomes for p in o.problems]
            print(json.dumps({"raw_s": raw, "setup_s": setup_s,
                              "ok": not problems, "problems": problems}))
            return 0
        measure = traced if args.trace else end_to_end
        specs, metrics, details = measure(args, run)
        units = dict(END_TO_END) if not args.trace else layers.UNITS
        for name, value in metrics.items():
            print(f"{name} = {value!r} {units[name]}")
        print("details: " + json.dumps(details))
        print("provenance: " + json.dumps(provenance(args.workload, args.seed, specs)))
        result = {
            "correct": run.failed == 0,
            "attempted": len(run.outcomes),
            "failed": run.failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def record(args) -> int:
    """Run every workload at every seed, untraced and traced, in fresh
    processes, print every metric and write them all to one file."""
    runs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            for trace in (0, 1):
                argv = [sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", str(trace)]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=RUN_TIMEOUT_S)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                lines = proc.stdout.splitlines()
                result = json.loads(lines[-1])
                prefixed = {
                    key: json.loads(line[len(key) + 2:])
                    for line in lines
                    for key in ("details", "provenance")
                    if line.startswith(key + ": ")
                }
                runs.append({"workload": workload, "seed": seed, "trace": trace,
                             **prefixed, "result": result})
                print(f"[{workload} seed={seed} trace={trace}] correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
                for name, metric in result["metrics"].items():
                    print(f"  {name} = {metric['value']!r} {metric['unit']}")
    args.record.write_text(json.dumps({"seconds": args.seconds, "runs": runs}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record", type=Path,
                        help="run every workload and write all results to this file")
    parser.add_argument("--seeds", default=f"{DEFAULT_SEED},7",
                        type=lambda text: [int(tok) for tok in text.split(",")],
                        help="comma-separated seeds for --record")
    args = parser.parse_args(argv)
    if not (SOURCE / "edgewalk" / "__init__.py").is_file():
        print(f"no edgewalk sources under {SOURCE}", file=sys.stderr)
        return 2
    if args.record:
        return record(args)
    if args.workload is None:
        parser.error("--workload is required unless --record is given")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
