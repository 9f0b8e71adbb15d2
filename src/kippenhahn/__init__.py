"""Kippenhahn curves and numerical ranges of tridiagonal reciprocal matrices.

Construction and analysis of tridiagonal matrices with constant main
diagonal and reciprocal off-diagonal pairs: exact generating-polynomial
arithmetic, closed-form ellipticity classifiers for sizes 3 to 6, curve
sampling through symmetric tridiagonal eigensolves, and constructive
solvers for the parameter manifolds on which the curves decompose into
ellipses.

The curve names (and the submodule curve, which imports NumPy) bind on first
use, so classify, the solvers and the exact layer load without NumPy.
"""

import importlib

from .classify import (Classification, EllipseComponent, NotToeplitzCase,
                       WrongSize, classify, classify3, classify4, classify5,
                       contains_ellipse6, ellipse_centers_z, three_ellipses6,
                       toeplitz_components)
from .manifold import (M6Solution, NotRealizable, UVSolveResult, realize,
                       residuals_m6, solve_m6, solve_uv)
from .nrpoly import (BivariatePoly, DegenerateInput, UniPoly, cubic_roots,
                     divide_by_linear, eval_residual, generating_poly,
                     reduce_mod_cubic, resultant_in_z)
from .trimat import (InvalidParam, NotReciprocal, ReciprocalParams,
                     SymTridiagonal, TridiagonalMatrix, ZeroSuperdiagonal,
                     a_params, build_reciprocal, params_to_matrix,
                     realified_pencil)

__all__ = [
    "BivariatePoly", "Classification", "CurveSample", "CurveSamples",
    "DegenerateBranch", "DegenerateInput", "EllipseComponent", "FitResult",
    "InvalidParam", "M6Solution", "NotRealizable", "NotReciprocal",
    "NotToeplitzCase", "ReciprocalParams", "Spectrum", "SymTridiagonal",
    "TridiagonalMatrix", "UVSolveResult", "UniPoly", "WrongSize",
    "ZeroSuperdiagonal", "a_params", "branch_points", "build_reciprocal",
    "classify", "classify3", "classify4", "classify5", "contains_ellipse6",
    "cubic_roots", "divide_by_linear", "eig_all", "ellipse_centers_z",
    "eval_residual", "fit_ellipse_axis_aligned", "generating_poly",
    "params_to_matrix", "realize", "realified_pencil", "reduce_mod_cubic",
    "residuals_m6", "resultant_in_z", "sample_curve", "solve_m6",
    "solve_uv", "symmetry_residual", "three_ellipses6",
    "toeplitz_components",
]

__version__ = "0.1.0"

_CURVE_NAMES = frozenset((
    "CurveSample", "CurveSamples", "DegenerateBranch", "FitResult", "Spectrum",
    "branch_points", "eig_all", "fit_ellipse_axis_aligned", "sample_curve",
    "symmetry_residual"))


def __getattr__(name):
    # PEP 562: called only for names the namespace lacks.  Importing the
    # submodule binds "curve"; each curve name is bound on its first lookup
    if name == "curve" or name in _CURVE_NAMES:
        curve = importlib.import_module(".curve", __name__)
        return curve if name == "curve" else globals().setdefault(name, getattr(curve, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "curve", *_CURVE_NAMES})
