"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py``, so the repository's own test run does
not collect it; it takes about fifteen seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# inputs_digest(ledger_specs(20240809)): the instances the default seed
# times.  A change here means records before and after are not comparable.
DEFAULT_LEDGER_DIGEST = "ac6f0fe78995882c10b3b5f7c01f39e97631f671eb9677de58ed50b3d3a229cd"


def test_self_times_of_a_call_tree_add_up_to_its_root():
    # root [0, 10] calls a [1, 4] (which calls c [2, 3]) and b [5, 9].
    parents = [-1, 0, 0, 1]
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 9.0, 3.0]
    own = spans.self_times(parents, starts, ends)
    assert own == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert sum(own) == pytest.approx(10.0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    own = spans.self_times([-1, 0, 0], [0.0, 1.0, 3.0], [10.0, 4.0, 6.0])
    assert own[0] == pytest.approx(10.0 - 5.0)


def test_self_time_clips_children_to_parent():
    assert spans.self_times([-1, 0], [0.0, -1.0], [2.0, 1.0]) == pytest.approx([1.0, 2.0])


def test_recorder_nesting_and_descendants():
    recorder = spans.SpanRecorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap("m.leaf", leaf, lambda a, k, r: {"value": r})

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = recorder.wrap("m.middle", middle)
    outer = recorder.wrap("m.outer", lambda: traced_middle() + traced_leaf())
    assert outer() == 3
    assert recorder.names == ["m.outer", "m.middle", "m.leaf", "m.leaf", "m.leaf"]
    assert recorder.parents == [-1, 0, 1, 1, 0]
    assert recorder.descendants_named("m.middle", "m.leaf") == 2
    assert recorder.descendants_named("m.outer", "m.leaf") == 3
    summary = layers.span_summary(recorder)
    assert summary["m.leaf"]["calls"] == 3
    assert summary["m.leaf"]["attrs"] == {"value": 3}


def test_instrumented_restores_every_binding():
    import edgewalk
    from edgewalk import bounds, spectral

    originals = (edgewalk.verify_all, bounds.eigh, spectral.eigh)
    recorder = spans.SpanRecorder()
    with layers.traced(recorder):
        assert bounds.eigh is spectral.eigh is not originals[1]
        assert edgewalk.verify_all is bounds.verify_all is not originals[0]
    assert (edgewalk.verify_all, bounds.eigh, spectral.eigh) == originals


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_fixed_seed_gives_the_same_inputs(name):
    specs = workloads.WORKLOADS[name].specs
    assert run.inputs_digest(specs(11)) == run.inputs_digest(specs(11))
    assert run.inputs_digest(specs(11)) != run.inputs_digest(specs(12))


def test_default_seed_ledger_digest_is_pinned():
    specs = workloads.ledger_specs(run.DEFAULT_SEED)
    assert len(specs) == 2 * workloads.LEDGER_N_BANDS
    assert run.inputs_digest(specs) == DEFAULT_LEDGER_DIGEST


def _smoke_specs():
    ledger = workloads.ledger_specs(run.DEFAULT_SEED)
    walk = workloads.walk_specs(run.DEFAULT_SEED)
    classical = workloads.classical_specs(run.DEFAULT_SEED)
    speedup = dict(classical[0], n_list=[64, 128])
    speedup["argv"] = ["speedup", "--n-list", "64,128", *classical[0]["argv"][3:]]
    return [ledger[0], *walk, speedup, *classical[1:3]]


def test_smoke_operations_pass_their_checks(tmp_path):
    """One cheap operation of every kind, traced: each passes its check and
    the layer self times plus the unattributed rest cover the pass."""
    specs = _smoke_specs()
    recorder = spans.SpanRecorder()
    with layers.traced(recorder):
        outcomes = [workloads.run_checked(spec, tmp_path) for spec in specs]
    assert [o.problems for o in outcomes] == [[] for _ in specs]
    raw = sum(o.seconds for o in outcomes)
    written = sum(o.bytes_written for o in outcomes)
    metrics = layers.layer_metrics(recorder, raw, raw, 0.0, written)
    assert list(metrics) == [name for name, _, _ in layers.METRICS]
    shares = [metrics[f"{layer}.self_pct"] for layer in layers.LAYERS]
    assert sum(shares) + metrics["unattributed_pct"] == pytest.approx(100.0)
    assert 0.0 <= metrics["unattributed_pct"] < 5.0
    assert metrics["bounds.verify_all.entries_checked"] > 30
    assert metrics["spectral.eigh.T_per_instance"] > 0
    assert metrics["quantum_search.asymptotic_diagnostics.apply_U_per_tf"] == 2.0
    assert metrics["spectral.line_principal_pair.dense_calls"] >= 1
    assert metrics["spectral.line_principal_pair.lanczos_calls"] >= 1
    assert metrics["classical_search.mc_hitting_time.walker_steps"] > 0
    assert metrics["cli.main.bytes_written"] > 0


def test_checks_report_wrong_outputs(tmp_path):
    spec = workloads.classical_specs(1)[1]
    (tmp_path / "report.json").write_text(json.dumps(
        {"t_c": spec["exact_t_c"] + 1e-9,
         "mc_estimate": {"mean": spec["exact_t_c"] + 1.0, "standard_error": 0.1}}
    ))
    assert len(workloads.CHECKS["classical"](spec, tmp_path)) == 2
    rows = [{"n": n, "t_f": n // 2, "t_c": 0.3 * n * n, "t_c_normalized": 0.3}
            for n in (64, 128)]
    (tmp_path / "speedup.json").write_text(json.dumps({"rows": rows}))
    problems = workloads.CHECKS["speedup"]({"n_list": [64, 128]}, tmp_path)
    assert len(problems) == 2


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        layers.METRICS
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_the_contract_result(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "walk_series",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.END_TO_END if not trace else [(n, u) for n, u, _ in layers.METRICS]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(expected)


def test_runner_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walk_series",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
