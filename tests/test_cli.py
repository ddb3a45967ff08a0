"""CLI contract: file formats, config echo, exit codes."""

import json

import pytest

from edgewalk import cli
from edgewalk.cli import main
from edgewalk.errors import NoConvergence, SolverFailure


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


def test_bad_descriptor_exit_code(tmp_path):
    code = main(
        ["simulate", "--n", "5", "--subgraph", "nonsense", "--out", str(tmp_path)]
    )
    assert code == 2


@pytest.mark.parametrize(
    "exc",
    [
        AssertionError("vertex companion disagrees with incidence identity"),
        MemoryError(),
        NoConvergence("eigensolver did not converge"),
        SolverFailure("residual above tolerance"),
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


def test_speedup_empty_n_list(tmp_path):
    assert main(["speedup", "--n-list", " ", "--out", str(tmp_path)]) == 2


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
