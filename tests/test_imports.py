"""Importing tdalab loads numpy and no scipy module: flag-complex work never
needs scipy, and the grid sweep loads ``scipy.ndimage`` at its first call.
Each case runs in a fresh interpreter, since this test session has scipy
loaded already."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str, *args) -> list:
    """The lines a fresh interpreter prints running ``code`` on ``args``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_cloud_ph_loads_no_scipy(tmp_path):
    cloud = tmp_path / "square.csv"
    cloud.write_text("0,0\n1,0\n1,1\n0,1\n0.5,1.6\n")
    out = _python(
        "import sys\n"
        "import tdalab, tdalab.cli\n"
        "code = tdalab.cli.main(['ph', sys.argv[1], '--filtration', 'rips', '--out', sys.argv[2]])\n"
        "print(code)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n",
        cloud, tmp_path / "pd.csv",
    )
    assert out[-2:] == ["0", "[]"]
    assert (tmp_path / "pd.csv").exists()


def test_first_sweep_loads_ndimage():
    out = _python(
        "import sys\n"
        "import numpy as np\n"
        "from tdalab.complexes import FilteredCubicalGrid\n"
        "from tdalab.persistence import PersistenceDiagram, compute_ph, naive_reduction_oracle, sublevel_ph0_stack\n"
        "top = np.round(np.random.default_rng(0).random((8, 8)), 1)\n"
        "top[2:4, 3:6] = np.inf\n"
        "print('scipy.ndimage' in sys.modules)\n"
        "_, births, deaths = sublevel_ph0_stack(top[None])\n"
        "print('scipy.ndimage' in sys.modules)\n"
        "swept = PersistenceDiagram(np.column_stack([np.zeros(len(births)), births, deaths])).multiset()\n"
        "grid = FilteredCubicalGrid(top)\n"
        "print(swept == compute_ph(grid, 0).multiset() == naive_reduction_oracle(grid, 0).multiset())\n",
    )
    assert out == ["False", "True", "True"]


def test_complexes_imports_nothing_from_persistence():
    # a flag complex owns its filtration order, and persistence reads it:
    # the import runs one way only, lazy imports inside functions included
    tree = ast.parse((SRC / "tdalab" / "complexes.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("persistence" in name.split(".") for name in names), ast.unparse(node)
