"""Which entry points load scipy: only the edge-space names, whose module
``edge_space`` is the one that imports it; every command, the ledger
(``verify``, ``verify_all``) among them, needs numpy alone.  Each case runs
in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import edgewalk

SOURCE = Path(edgewalk.__file__).resolve().parent.parent
PATH1 = '{"kind": "path", "k": 1}'

# ``python -m edgewalk <argv>``, which must exit 0
CLI = (
    "import runpy, sys\n"
    "sys.argv = ['edgewalk', *{argv!r}]\n"
    "try:\n"
    "    runpy.run_module('edgewalk', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
)


def _scipy_modules_after(statement: str, cwd: Path) -> list[str]:
    """The scipy modules in ``sys.modules`` after a fresh interpreter has
    run ``statement``."""
    probe = (
        f"{statement}\n"
        "import sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


NUMPY_ONLY = {
    "import": "import edgewalk",
    "build_P_quotient": "import edgewalk\nedgewalk.build_P_quotient",
    "verify": CLI.format(argv=["verify", "--n", "20", "--subgraph", PATH1, "--out", "out"]),
    # path 2 at n = 300: the line kernel on 5 edge orbits
    "verify300": CLI.format(
        argv=["verify", "--n", "300", "--subgraph", '{"kind": "path", "k": 2}', "--out", "out"]
    ),
    "speedup": CLI.format(argv=["speedup", "--n-list", "64,128", "--out", "out"]),
    "simulate": CLI.format(argv=["simulate", "--n", "60", "--subgraph", PATH1, "--out", "out"]),
    "spectrum": CLI.format(argv=["spectrum", "--n", "20", "--subgraph", PATH1, "--out", "out"]),
    "fig2": CLI.format(argv=["fig2", "--out", "out"]),
    "classical": CLI.format(
        argv=["classical", "--n", "20", "--subgraph", PATH1, "--trials", "100", "--out", "out"]
    ),
}


@pytest.mark.parametrize("statement", NUMPY_ONLY.values(), ids=NUMPY_ONLY.keys())
def test_loads_no_scipy(statement, tmp_path):
    assert _scipy_modules_after(statement, tmp_path) == []


LOADS_SCIPY = {
    "build_P": "import edgewalk\nedgewalk.build_P",
}


@pytest.mark.parametrize("statement", LOADS_SCIPY.values(), ids=LOADS_SCIPY.keys())
def test_loads_scipy(statement, tmp_path):
    assert "scipy.sparse.linalg" in _scipy_modules_after(statement, tmp_path)


def test_public_names_resolve_without_change():
    # every exported name, the lazy edge-space ones among them
    from edgewalk import build_P, edge_space

    assert build_P is edge_space.build_P
    assert all(hasattr(edgewalk, name) for name in edgewalk.__all__)
    with pytest.raises(AttributeError, match="no attribute 'build_p'"):
        edgewalk.build_p
