"""CLI contract: file formats, config echo, exit codes."""

import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgewalk import (
    build_instance,
    classical_search,
    cli,
    hitting_time,
    matching_edges,
    run_series,
    spectral,
    verify_all,
)
from edgewalk.cli import main
from edgewalk.errors import NoConvergence, SolverFailure
from spectral_oracle import reference_overlap


def read_json(path):
    return json.loads(path.read_text())


def read_series(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,probability"
    rows = [line.split(",") for line in lines[1:]]
    return [float(p) for _, p in rows]


def test_simulate_small(tmp_path):
    code = main(
        [
            "simulate",
            "--n", "2",
            "--subgraph", '{"kind": "edges", "edges": [[0, 1]]}',
            "--t-max", "3",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    fp = read_series(tmp_path / "series.csv")
    assert len(fp) == 4
    assert fp[0] == pytest.approx(1 / 3, abs=1e-15)
    report = read_json(tmp_path / "report.json")
    assert report["config"]["n"] == 2
    assert report["config"]["t_max"] == 3
    assert report["t_f"] == 1


def test_simulate_csv_roundtrip_bitwise(tmp_path):
    code = main(
        [
            "simulate",
            "--n", "12",
            "--subgraph", '{"kind": "path", "k": 1}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = read_json(tmp_path / "report.json")
    fp = read_series(tmp_path / "series.csv")
    assert fp[report["t_f"]] == report["fp_at_tf"]
    assert len(fp) == report["config"]["t_max"] + 1


def _series_csv_by_rows(fp):
    # the writer as it was, one numpy formatting call per row
    lines = ["t,probability"]
    lines.extend(f"{t},{cli._format_probability(p)}" for t, p in enumerate(fp))
    return "\n".join(lines) + "\n"


def test_series_csv_bytes_match_per_row_formatting(tmp_path):
    rng = np.random.default_rng(20240809)
    decades = np.array([0.1, 0.01, 0.001, 1e-4])
    series = {
        "ends": np.array([0.0, 1.0, 5e-324, 0.3, 0.9777214768]),
        # at and one ulp either side of each decade boundary
        "decades": np.concatenate(
            (decades, np.nextafter(decades, 0.0), np.nextafter(decades, 1.0))
        ),
        "below 1e-4": 10.0 ** rng.uniform(-6.0, -4.0, 5_000),
        "uniform": rng.random(20_000),
        "log-uniform": 10.0 ** rng.uniform(-12.0, 0.0, 20_000),
        # fewer digits than 12, exactly 12 and more, in every decade
        "rounded": np.concatenate(
            [np.round(10.0 ** rng.uniform(-5.0, 0.0, 500), d) for d in range(1, 18)]
        ),
        "real": run_series(build_instance(300, [(0, 1)]), 700).fp,
    }
    for name, fp in series.items():
        path = tmp_path / "series.csv"
        cli._write_series_csv(path, fp)
        assert path.read_text() == _series_csv_by_rows(fp), name


def test_simulate_degenerate_exit_code(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--n", "2",
            "--subgraph", '{"kind": "path", "k": 2}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "bipartite" in err


def test_simulate_negative_t_max_is_config_error(tmp_path, capsys):
    # refused by run_series before any output directory exists
    out = tmp_path / "out"
    code = main(
        ["simulate", "--n", "5", "--subgraph", '{"kind": "path", "k": 1}',
         "--t-max", "-1", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "config", "message": "t_max must be nonnegative, got -1"}
    assert not out.exists()


def test_bad_descriptor_exit_code(tmp_path):
    assert main(
        ["simulate", "--n", "5", "--subgraph", "nonsense", "--out", str(tmp_path)]
    ) == 2
    # malformed descriptors are configuration errors, not failed verifications
    for descriptor in (
        '{"kind": "edges", "edges": [[0]]}',
        '{"kind": "edges", "edges": [5]}',
        '{"kind": "edges", "edges": [[0.5, 1]]}',
        '{"kind": "edges", "edges": [[0, 1, 2]]}',
        '{"kind": "path", "k": null}',
        '{"kind": "path", "k": 1.7}',
        '{"kind": "path", "k": true}',
        '{"kind": "edges", "edges": [[true, 2]]}',
        '{"kind": "path", "k": 6}',
        '{"kind": ["path"], "k": 1}',
    ):
        code = main(
            ["spectrum", "--n", "5", "--subgraph", descriptor, "--out", str(tmp_path)]
        )
        assert code == 2, descriptor
    # a million-edge path cannot fit in K_6; it is refused before any edge
    # list is made
    descriptor = '{"kind": "path", "k": 1000000}'
    tracemalloc.start()
    try:
        code = main(
            ["spectrum", "--n", "5", "--subgraph", descriptor, "--out", str(tmp_path)]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak <= 2**20


def test_speedup_refuses_a_host_it_cannot_resolve(tmp_path, capsys):
    # a star of 3 edges at n = 10^7 and 10^9: 1 - lambda_max(T) is about
    # 12/n^2, below the 1e-12 that float64 resolves, and the star does not
    # span the host, so lambda_max < 1 and this is lost precision, not a
    # spanning complete bipartite subgraph: TooLarge (exit 2) with one JSON
    # error line and nothing written, where exit 3 would be a false verdict;
    # nothing of order n is allocated on the way, not even by spectrum,
    # which lists every eigenvalue of a host it accepts
    star = '{"kind": "star", "k": 3}'
    out = tmp_path / "out"
    for command, option, n in (
        ("speedup", "--n-list", "10000000"),
        ("speedup", "--n-list", "1000000000"),
        ("spectrum", "--n", "10000000"),
    ):
        tracemalloc.start()
        try:
            code = main([command, option, n, "--subgraph", star, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_CONFIG == 2, (command, n)
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        error = json.loads(lines[0])
        assert error["error"] == "config", error
        assert error["message"].startswith(f"n = {n}: lambda_max(T) = "), error
        assert "within 1e-12 of 1, the resolution" in error["message"], error
        assert not out.exists()
        assert peak <= 2**20, (command, n)
    # the hosts that resolve still run
    argv = ["speedup", "--n-list", "100000,1000000", "--subgraph", star, "--out", str(out)]
    assert main(argv) == 0
    assert [row["n"] for row in read_json(out / "speedup.json")["rows"]] == [10**5, 10**6]


def test_lift_limit_guards_every_order_n_read():
    # one vertex past the limit, with a star of 100 edges, whose rotation
    # angle still resolves there (1 - lambda_max about 400/n^2 = 1.4e-12):
    # the quotient's reads of O(s) and the summary still serve, the whole
    # list of eigenvalues, the lifted f and any lifted vector are refused
    from edgewalk import build_instance, build_T, star_edges
    from edgewalk.errors import TooLarge

    g = build_instance(spectral.LIFT_LIMIT, star_edges(100))
    spectrum = spectral.quotient_spectrum(build_T(g))
    assert spectrum.descending(2).size == 2 and spectrum.lambda_max < 1.0
    assert spectrum.principal.size == 102
    summary = spectrum.summary()
    assert summary.principal.size == 102 and 0.0 < summary.theta_max < 1e-5
    assert summary.lambda_max == spectrum.lambda_max and summary.overlap <= 1.0
    for read in (
        spectrum.descending,
        lambda: summary.eigenvalues,
        lambda: summary.f,
        lambda: spectrum.lift(spectrum.values),
    ):
        with pytest.raises(TooLarge, match="exceed the limit of 16777216"):
            read()


@pytest.mark.parametrize(
    "exc",
    [
        AssertionError("vertex companion disagrees with incidence identity"),
        MemoryError(),
        NoConvergence("eigensolver did not converge"),
        SolverFailure("residual above tolerance"),
        IndexError("index 7 is out of bounds"),
        TypeError("unsupported operand"),
    ],
)
def test_internal_errors_exit_code(tmp_path, capsys, monkeypatch, exc):
    # internal and solver failures must not read as "verification failed"
    # (1) or as a configuration error (2)
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_series", fail)
    code = main(
        ["simulate", "--n", "5", "--subgraph", '{"kind": "path", "k": 1}',
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_INTERNAL == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal"
    assert type(exc).__name__ in err["message"]


def _exits_internal(argv, capsys, name):
    assert main(argv) == cli.EXIT_INTERNAL == 4
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal" and err["message"].startswith(f"{name}: "), err
    return err["message"]


def test_failed_block_solve_exits_4(tmp_path, capsys, monkeypatch):
    # t_c's order-s solve, raising or returning a solution whose residual
    # is above RESIDUAL_TOL, is a solver failure
    argv = ["classical", "--n", "5", "--subgraph", '{"kind": "path", "k": 2}',
            "--out", str(tmp_path)]
    solve = np.linalg.solve

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert "block solve failed" in _exits_internal(argv, capsys, "SolverFailure")
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-6))
    assert "above 1e-10" in _exits_internal(argv, capsys, "SolverFailure")
    assert not (tmp_path / "report.json").exists()


def test_failed_eigensolve_exits_4(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    _exits_internal(
        ["spectrum", "--n", "5", "--subgraph", '{"kind": "path", "k": 1}',
         "--out", str(tmp_path)],
        capsys,
        "NoConvergence",
    )


def test_verify_prints_each_failure(tmp_path, capsys, monkeypatch):
    # two entries turned into failures: exit 1, one FAILED line for each
    def failing(g):
        ledger = verify_all(g)
        entries = [
            replace(e, passed=False) if e.name in ("gap_T", "norm_l2") else e
            for e in ledger
        ]
        return replace(ledger, entries=tuple(entries))

    monkeypatch.setattr(cli, "verify_all", failing)
    code = main(
        ["verify", "--n", "5", "--subgraph", '{"kind": "path", "k": 1}',
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_VERIFY == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert all(line.startswith("FAILED: ") for line in lines), lines
    failed = [json.loads(line[len("FAILED: "):]) for line in lines]
    assert [(e["name"], e["passed"]) for e in failed] == [
        ("gap_T", False), ("norm_l2", False)
    ]
    assert read_json(tmp_path / "report.json")["failed"] == 2


def test_module_entry_point_exits_4_on_a_defect(tmp_path):
    # a fresh ``python -m edgewalk`` whose ledger raises IndexError, planted
    # by a sitecustomize module that the interpreter imports at start-up
    (tmp_path / "sitecustomize.py").write_text(
        "import edgewalk.cli\n"
        "def fail(*args, **kwargs):\n"
        "    raise IndexError('planted')\n"
        "edgewalk.cli.verify_all = fail\n"
    )
    source = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tmp_path), str(source)])}
    done = subprocess.run(
        [sys.executable, "-m", "edgewalk", "verify", "--n", "5",
         "--subgraph", '{"kind": "path", "k": 1}', "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == cli.EXIT_INTERNAL == 4
    err = json.loads(done.stderr.strip().splitlines()[-1])
    assert err == {"error": "internal", "message": "IndexError: planted"}


PATH1 = '{"kind": "path", "k": 1}'


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "5", "--subgraph", PATH1, "--trials", "-5", "--seed", "-3"],
        ["verify", "--n", "5", "--subgraph", PATH1, "--t-max", "3"],
        ["simulate", "--n", "5", "--subgraph", PATH1, "--seed", "1"],
        ["speedup", "--n-list", "8", "--seed", "1"],
    ],
    ids=["spectrum-trials-seed", "verify-t-max", "simulate-seed", "speedup-seed"],
)
def test_option_a_command_does_not_read_is_usage_error(tmp_path, capsys, argv):
    # these options used to be accepted, ignored and echoed as configuration;
    # simulate --t-max and classical --trials/--seed are exercised by
    # test_simulate_small and test_classical_with_mc
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == cli.EXIT_CONFIG == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv,report",
    [
        (["spectrum", "--n", "5", "--subgraph", PATH1], "spectrum.json"),
        (["verify", "--n", "5", "--subgraph", PATH1], "report.json"),
        (["speedup", "--n-list", "8", "--subgraph", PATH1], "speedup.json"),
    ],
)
def test_config_keeps_every_key(tmp_path, argv, report):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    config = read_json(tmp_path / report)["config"]
    assert {k: config[k] for k in ("t_max", "trials", "seed", "out")} == {
        "t_max": None, "trials": 0, "seed": 0, "out": str(tmp_path),
    }
    assert config["subgraph"] == {"kind": "path", "k": 1}
    assert config["n"] == (None if argv[0] == "speedup" else 5)


def test_subgraph_from_file(tmp_path):
    descriptor = tmp_path / "gamma.json"
    descriptor.write_text('{"kind": "matching", "k": 2}')
    code = main(
        [
            "spectrum",
            "--n", "9",
            "--subgraph", str(descriptor),
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "spectrum.json")
    assert payload["config"]["subgraph"] == {"kind": "matching", "k": 2}
    assert len(payload["eigenvalues"]) == 10
    assert not payload["degenerate"]


# An explicit 40-edge path, 409 bytes of inline JSON: longer than the 255
# bytes a file name may take, so probing it as a path raises OSError.
LONG_DESCRIPTOR = {"kind": "edges", "edges": [[i, i + 1] for i in range(40)]}


@pytest.mark.parametrize(
    "argv,report",
    [
        (["spectrum", "--n", "60"], "spectrum.json"),
        (["verify", "--n", "60"], "report.json"),
        (["speedup", "--n-list", "60,64"], "speedup.json"),
    ],
)
def test_long_inline_descriptor(tmp_path, argv, report):
    text = json.dumps(LONG_DESCRIPTOR)
    assert len(text.encode()) > 255
    code = main(argv + ["--subgraph", text, "--out", str(tmp_path)])
    assert code == 0
    assert read_json(tmp_path / report)["config"]["subgraph"] == LONG_DESCRIPTOR


def test_spectrum_solves_T_once(tmp_path, monkeypatch):
    orders = []
    real_eigh = spectral.eigh

    def counting_eigh(matrix):
        orders.append(len(matrix))
        return real_eigh(matrix)

    # one solve of T's order-(s+1) quotient
    monkeypatch.setattr(spectral, "eigh", counting_eigh)
    code = main(
        ["spectrum", "--n", "9", "--subgraph", '{"kind": "path", "k": 2}',
         "--out", str(tmp_path)]
    )
    assert code == 0
    assert orders == [4]


def test_classical_with_mc(tmp_path):
    code = main(
        [
            "classical",
            "--n", "3",
            "--subgraph", '{"kind": "edges", "edges": [[0, 1]]}',
            "--trials", "20000",
            "--seed", "7",
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = read_json(tmp_path / "report.json")
    assert report["t_c"] == pytest.approx(5.2, abs=1e-12)
    mc = report["mc_estimate"]
    assert mc["trials"] == 20000
    assert abs(mc["mean"] - 5.2) <= 3 * mc["standard_error"]


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_classical_seed_out_of_range_is_config_error(tmp_path, capsys, seed):
    # the Philox key is two unsigned 64-bit words; an out-of-range seed used
    # to escape as OverflowError and exit 1 ("verification failed")
    code = main(
        [
            "classical",
            "--n", "3",
            "--subgraph", '{"kind": "edges", "edges": [[0, 1]]}',
            "--trials", "10",
            "--seed", seed,
            "--out", str(tmp_path),
        ]
    )
    assert code == cli.EXIT_CONFIG == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "seed" in err["message"]


def test_classical_negative_trials_is_config_error(tmp_path, capsys):
    # used to skip the Monte-Carlo check silently and exit 0
    code = main(
        [
            "classical",
            "--n", "3",
            "--subgraph", '{"kind": "edges", "edges": [[0, 1]]}',
            "--trials", "-5",
            "--out", str(tmp_path),
        ]
    )
    assert code == cli.EXIT_CONFIG == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config" and "trials" in err["message"]
    assert not (tmp_path / "report.json").exists()


def test_classical_above_dense_limit(tmp_path):
    # 3239 unmarked edges; exited 2 ("config error") while the solve asked
    # for a dense kernel above its size guard
    code = main(
        [
            "classical",
            "--n", "80",
            "--subgraph", '{"kind": "path", "k": 1}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    report = read_json(tmp_path / "report.json")
    assert report["solver_residual"] <= 1e-10
    assert report["mc_estimate"] is None


def test_verify_and_classical_on_degenerate_kernels(tmp_path):
    # K_4 minus a 4-cycle leaves P = 0; K_3 minus one edge leaves two edges
    code = main(
        ["verify", "--n", "3", "--subgraph", '{"kind": "cycle", "k": 4}',
         "--out", str(tmp_path / "verify")]
    )
    assert code == 0
    entries = read_json(tmp_path / "verify" / "ledger.json")
    assert entries and all(e["passed"] is not False for e in entries)
    code = main(
        ["classical", "--n", "2", "--subgraph", '{"kind": "path", "k": 1}',
         "--out", str(tmp_path / "classical")]
    )
    assert code == 0
    assert abs(read_json(tmp_path / "classical" / "report.json")["t_c"] - 2.0) <= 1e-12


def test_verify_exit_zero_and_ledger(tmp_path):
    code = main(
        [
            "verify",
            "--n", "64",
            "--subgraph", '{"kind": "path", "k": 1}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    entries = read_json(tmp_path / "ledger.json")
    assert isinstance(entries, list)
    assert all(e["passed"] in (True, None) for e in entries)


def test_verify_gated_entries_marked_skipped(tmp_path):
    code = main(
        [
            "verify",
            "--n", "4",
            "--subgraph", '{"kind": "path", "k": 3}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    text = (tmp_path / "ledger.json").read_text()
    assert "NaN" not in text  # skipped entries serialize as null
    entries = json.loads(text)
    skipped = [e for e in entries if e["passed"] is None]
    assert skipped
    assert all(not e["hypothesis_holds"] for e in skipped)


def test_fig2_summary(tmp_path):
    code = main(["fig2", "--out", str(tmp_path)])
    assert code == 0
    summary = read_json(tmp_path / "fig2_summary.json")["series"]
    assert [row["t_f"] for row in summary] == [55, 39, 32]
    assert all(row["matched"] for row in summary)
    for k, row in zip((1, 2, 3), summary):
        fp = read_series(tmp_path / f"fig2_path{k}.csv")
        assert len(fp) == 101
        assert fp[row["t_f"] - 1] == row["fp_at_tf_minus_1"]


def test_speedup_small(tmp_path):
    code = main(
        ["speedup", "--n-list", "8,12", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = read_json(tmp_path / "speedup.json")["rows"]
    assert [row["n"] for row in rows] == [8, 12]
    csv_lines = (tmp_path / "speedup.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "n,gamma_edges,t_f,t_f_normalized,t_c,t_c_normalized"
    assert len(csv_lines) == 3


def test_speedup_solves_no_companion(tmp_path, monkeypatch):
    # t_c alone, from the order-s solve: lambda_max(P), which speedup never
    # printed, is not solved, and every byte stays as hitting_time gave it,
    # on a perfect matching (t = 0) and on a host with two rest vertices
    argv = ["speedup", "--n-list", "199,201", "--subgraph", '{"kind": "matching", "k": 100}']
    assert main([*argv, "--out", str(tmp_path / "solved")]) == 0

    def fail(g):
        raise AssertionError("speedup solved the line kernel's companion")

    monkeypatch.setattr(classical_search, "companion_spectra", fail)
    monkeypatch.setattr(spectral, "companion_spectra", fail)
    assert main([*argv, "--out", str(tmp_path / "unsolved")]) == 0
    solved, unsolved = tmp_path / "solved", tmp_path / "unsolved"
    csv = (unsolved / "speedup.csv").read_text()
    assert csv == (solved / "speedup.csv").read_text()
    assert read_json(unsolved / "speedup.json")["rows"] == read_json(
        solved / "speedup.json"
    )["rows"]
    monkeypatch.undo()
    t_c = [hitting_time(build_instance(n, matching_edges(100))).t_c for n in (199, 201)]
    assert [float(line.split(",")[4]) for line in csv.splitlines()[1:]] == t_c


def test_speedup_empty_n_list(tmp_path):
    assert main(["speedup", "--n-list", " ", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "n_list,subgraph",
    [
        ("200,8", '{"kind": "path", "k": 10}'),
        ("64,1", '{"kind": "path", "k": 1}'),
        ("200,8", '{"kind": "edges", "edges": [[0, 9]]}'),
    ],
    ids=["host-too-small-for-path", "n-below-2", "host-too-small-for-edge"],
)
def test_speedup_checks_every_host_before_any_row(tmp_path, capsys, n_list, subgraph):
    code = main(
        ["speedup", "--n-list", n_list, "--subgraph", subgraph, "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_CONFIG == 2
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "speedup.json").exists()


def test_speedup_prints_no_row_before_a_degenerate_host(tmp_path, capsys):
    # C_4 spans K_4 as K_{2,2}: the n = 3 row has no quantum time, and the
    # n = 200 row before it must not be printed or written either
    code = main(
        ["speedup", "--n-list", "200,3", "--subgraph", '{"kind": "cycle", "k": 4}',
         "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_DEGENERATE == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "degenerate_spectrum"
    assert not (tmp_path / "speedup.json").exists()
    assert not (tmp_path / "speedup.csv").exists()


@pytest.mark.parametrize(
    "command,n,descriptor,report",
    [
        ("spectrum", 5, PATH1, "spectrum.json"),
        ("spectrum", 9, '{"kind": "matching", "k": 2}', "spectrum.json"),
        ("spectrum", 60, json.dumps(LONG_DESCRIPTOR), "spectrum.json"),
        ("simulate", 300, PATH1, "report.json"),
        ("simulate", 400, '{"kind": "star", "k": 3}', "report.json"),
    ],
)
def test_reported_overlap_matches_a_50_digit_solve(
    tmp_path, command, n, descriptor, report
):
    # the overlap that spectrum.json and report.json print is read on the
    # quotient, within 1e-15 of mpmath's eigensolve of the same quotient
    from edgewalk import build_instance, build_T, edges_from_descriptor

    argv = [command, "--n", str(n), "--subgraph", descriptor, "--out", str(tmp_path)]
    assert main(argv + (["--t-max", "3"] if command == "simulate" else [])) == 0
    payload = read_json(tmp_path / report)
    overlap = (payload if command == "spectrum" else payload["spectral"])["overlap"]
    edges = edges_from_descriptor(json.loads(descriptor), n=n)
    assert abs(overlap - reference_overlap(build_T(build_instance(n, edges)))) <= 1e-15


def test_spectrum_degenerate_reports(tmp_path):
    code = main(
        [
            "spectrum",
            "--n", "2",
            "--subgraph", '{"kind": "path", "k": 2}',
            "--out", str(tmp_path),
        ]
    )
    assert code == 0
    payload = read_json(tmp_path / "spectrum.json")
    assert payload["degenerate"] is True
    assert payload["t_f"] is None


# ``main`` builds its parser once per process; these calls share it, so none
# may see an option, a default or an error left by an earlier call.


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_simulate_default_t_max_after_an_explicit_one(tmp_path):
    argv = ["simulate", "--n", "12", "--subgraph", PATH1]
    assert main(argv + ["--t-max", "5", "--out", str(tmp_path / "a")]) == 0
    assert read_json(tmp_path / "a" / "report.json")["config"]["t_max"] == 5
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    report = read_json(tmp_path / "b" / "report.json")
    assert report["config"]["t_max"] == 2 * report["t_f"]


def test_classical_defaults_after_explicit_trials_and_seed(tmp_path):
    argv = ["classical", "--n", "3", "--subgraph", PATH1]
    out = tmp_path / "a"
    assert main(argv + ["--trials", "10", "--seed", "4", "--out", str(out)]) == 0
    config = read_json(out / "report.json")["config"]
    assert (config["trials"], config["seed"]) == (10, 4)
    out = tmp_path / "b"
    assert main(argv + ["--out", str(out)]) == 0
    report = read_json(out / "report.json")
    assert (report["config"]["trials"], report["config"]["seed"]) == (0, 0)
    assert report["mc_estimate"] is None


def test_usage_error_leaves_later_calls_as_a_first_call(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["simulate", "--n", "12", "--subgraph", PATH1, "--out", str(out)]
    # the first call of a fresh process, whose parser is new; the inherited
    # path stays behind the source, so a sitecustomize on it still loads
    source = Path(cli.__file__).resolve().parent.parent
    path = [str(source), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-m", "edgewalk", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    files = ("series.csv", "report.json")
    first = {name: (out / name).read_bytes() for name in files}
    for name in files:
        (out / name).unlink()
    assert main(argv) == 0
    assert {name: (out / name).read_bytes() for name in files} == first
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--subgraph", PATH1, "--out", str(out)])
    assert exc.value.code == cli.EXIT_CONFIG == 2
    assert "--n" in capsys.readouterr().err
    assert main(argv) == 0
    assert {name: (out / name).read_bytes() for name in files} == first


def test_help_after_a_call(tmp_path, capsys):
    assert main(["simulate", "--n", "12", "--subgraph", PATH1, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == cli.EXIT_OK == 0
    assert capsys.readouterr().out.startswith("usage: edgewalk")
