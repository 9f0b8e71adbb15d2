"""SciPy is imported on first use: classifying and solving never load it."""

import os
import subprocess
import sys
from pathlib import Path

import kippenhahn


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


def test_symmetry_residual_imports_scipy_on_first_call():
    out = run_fresh(
        "import sys\n"
        "from kippenhahn import build_reciprocal, sample_curve, symmetry_residual\n"
        "s = sample_curve(build_reciprocal([1.5, 2, 2.5]), m=64)\n"
        "before = 'scipy' in sys.modules\n"
        "print(before, symmetry_residual(s) <= 1e-8, 'scipy' in sys.modules)\n")
    assert out.split() == ["False", "True", "True"]
