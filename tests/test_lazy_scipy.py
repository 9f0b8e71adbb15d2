"""The package loads only what a call uses: no code path loads SciPy, and
classify, solve, poly and verify load no NumPy."""

import os
import subprocess
import sys
from pathlib import Path

import kippenhahn
from kippenhahn import verify


def run_fresh(code):
    """Run `code` in a new interpreter on this package; return its stdout."""
    env = {**os.environ, "PYTHONPATH": str(Path(kippenhahn.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_classify_and_solve_load_no_scipy():
    out = run_fresh(
        "import sys\n"
        "from kippenhahn import cli, cubic_roots, manifold\n"
        "assert cli.main(['classify', '--A', '2,3,4,5,6']) == 0\n"
        "assert manifold.solve_uv(cubic_roots()[2]).line is not None\n"
        "print('scipy' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_curve_path_loads_no_scipy(tmp_path):
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from kippenhahn import (ReciprocalParams, build_reciprocal, cli, eig_all,\n"
        "                        params_to_matrix, realified_pencil, sample_curve,\n"
        "                        symmetry_residual)\n"
        "s = sample_curve(build_reciprocal([1.5, 2, 2.5]), m=64)\n"
        "assert symmetry_residual(s) <= 1e-8\n"
        "# A_1 = 1 splits the pencil at pi/2, so eig_all solves two blocks\n"
        "M = params_to_matrix(ReciprocalParams(A=(1.0, 2.0, 3.0)))\n"
        "T = realified_pencil(M, np.pi / 2)\n"
        "assert T.e[0] == 0.0 and eig_all(T).vectors.shape == (4, 4)\n"
        "assert sample_curve(M, m=720).gap.min() <= 1e-12\n"
        "assert cli.main(['curve', '--b', '1.5,2,2.5', '--m', '721', '--fit',\n"
        f"                 '--out', {str(tmp_path / 'c')!r}]) == 0\n"
        "print('scipy' in sys.modules)\n")
    assert out.splitlines()[-1] == "False"


def test_algebraic_commands_load_no_numpy(tmp_path):
    out = run_fresh(
        "import sys\n"
        "from kippenhahn import cli, verify\n"
        "runs = [['classify', '--A', '2,3,4,5,6'], ['classify', '--b', '1.5,2,2.5'],\n"
        "        ['solve', '--fix', 'A1=20', 'A5=40'], ['solve', '--uv'],\n"
        "        ['poly', '--A', '3/2,5/4'],\n"
        "        *(['verify', '--check', name, '--n', '5', '--trials', '2']\n"
        "          for name in verify.CHECKS),\n"
        f"        ['curve', '--b', '1.5,2', '--m', '8', '--out', {str(tmp_path / 'c')!r}]]\n"
        "for argv in runs:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    print('numpy loaded', argv[0], 'numpy' in sys.modules)\n")
    loaded = [line.split()[2:] for line in out.splitlines() if line.startswith("numpy loaded")]
    commands = ["classify"] * 2 + ["solve"] * 2 + ["poly"] + ["verify"] * len(verify.CHECKS)
    assert loaded == [[command, "False"] for command in commands] + [["curve", "True"]]


def test_curve_names_bind_on_first_use():
    out = run_fresh(
        "import sys\n"
        "import kippenhahn\n"
        "assert 'numpy' not in sys.modules and 'kippenhahn.curve' not in sys.modules\n"
        "listed = set(dir(kippenhahn))\n"
        "star = {}\n"
        "exec('from kippenhahn import *', star)\n"
        "from kippenhahn import CurveSamples, sample_curve\n"
        "assert kippenhahn.curve.sample_curve is sample_curve\n"
        "assert kippenhahn.curve.CurveSamples is CurveSamples\n"
        "assert not hasattr(kippenhahn, 'nosuch')\n"
        "print(sorted(set(kippenhahn.__all__) - listed), sorted(set(kippenhahn.__all__) - set(star)),\n"
        "      'curve' in listed)\n")
    assert out.splitlines()[-1] == "[] [] True"
