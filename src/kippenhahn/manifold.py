"""Closed forms for the 6-by-6 ellipticity manifolds.

The three-ellipse variety, cut out by two quadratics and one cubic in
(A_1, ..., A_5), is the union of twelve planes span{(1, 1, 1, 1, 1), d(x)}:
one for each root x of the slope cubic and each of the four directions in
``ELL3_DIRECTIONS``.  Substituting A = 1 + t d(x) into the three conditions
leaves t-coefficients that all vanish modulo the slope cubic (the tests
certify this over Q(x)), the twelve planes are pairwise distinct, and by
Bezout (degrees 2 * 2 * 3 = 12) the variety has no other component.  Fixing
two of A1, A2, A4, A5 therefore cuts exactly one point from each plane.

The single-ellipse slice A_1 = A_5 = u A_3, A_2 = A_4 = v A_3 at a root x_t
is the line u - 1 + (2 x_t - 1)(v - 1) = 0: there R1 = (2 - 4x^2) L L' with
L that line, and R2 restricted to L' is a multiple of (v - 1)^3, so L' meets
the locus only at the all-equal point (1, 1), which L carries too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from . import rtables
from .nrpoly import cubic_roots
from .trimat import InvalidParam, ReciprocalParams, TridiagonalMatrix, _real, params_to_matrix

PARAM_NAMES = ("A1", "A2", "A3", "A4", "A5")

# slack below the A_j >= 1 floor that still counts as realizable
REALIZABLE_SLACK = 1e-9
# fixed values a, b with |a - b| <= EQUAL_PAIR_TOL max(|a|, |b|) count as an
# equal pair: relative, as the variety is homogeneous
EQUAL_PAIR_TOL = 1e-12

# The four plane directions d(x), coordinate by coordinate, each coordinate
# the ascending coefficients (c0, c1, c2) of c0 + c1 x + c2 x^2.
ELL3_DIRECTIONS = (
    ((0, 0, 0), (1, 0, 0), (-1, 2, 0), (0, -2, 4), (0, 4, -4)),
    ((0, 0, 0), (1, 0, 0), (-1, 2, 0), (2, -2, 0), (-5, 10, -4)),
    ((0, 0, 0), (1, 0, 0), (0, 4, -4), (-3, 8, -4), (2, -2, 0)),
    ((0, 0, 0), (1, 0, 0), (0, 4, -4), (0, 2, 0), (1, -6, 4)),
)

# (label, d) for each of the twelve planes, d as floats at its root
_PLANES = tuple(
    (f"plane d{k} at x{r} = {x:.9g}",
     tuple(c0 + c1 * x + c2 * x * x for c0, c1, c2 in direction))
    for k, direction in enumerate(ELL3_DIRECTIONS, start=1)
    for r, x in enumerate(cubic_roots(), start=1))


class NotRealizable(ValueError):
    """No reciprocal matrix attains parameters with A_j < 1."""


@dataclass(frozen=True)
class M6Solution:
    """A point of the three-ellipse variety with its residuals."""

    A: tuple
    residuals: tuple  # quad_a, quad_b, cubic, quad_diff
    branch: str = ""

    @property
    def realizable(self) -> bool:
        return all(a >= 1.0 - REALIZABLE_SLACK for a in self.A)

    def scaled_norm(self) -> float:
        """Residuals divided by sum |A_j| (unlike sum A_j, 0 only at the origin,
        where they are 0) as often as their degree, forming no power."""
        s = sum(abs(a) for a in self.A) or 1.0
        qa, qb, cu, _ = self.residuals
        return max(abs(qa) / s / s, abs(qb) / s / s, abs(cu) / s / s / s)


def _past_range(A):
    return ValueError(f"a residual at A = {tuple(A)} is past the float range")


def _finite(values, A):
    """values, residuals at A; ValueError where one is past the float range."""
    if not all(map(math.isfinite, values)):
        raise _past_range(A)
    return values


def _rounded_rows(rows, L, points):
    """Float residuals at each point from its integer row over L
    (``rtables._ell3_numerators``), each value divided once, which rounds
    it correctly; ValueError where one is past the float range."""
    L2 = L * L
    L3 = 8 * L2 * L
    out = []
    for (qa, qb, cubic, qd), A in zip(rtables._ell3_numerators(rows), points):
        try:
            out.append((qa / L2, qb / L2, cubic / L3, qd / L2))
        except OverflowError:
            raise _past_range(A) from None
    return out


def residuals_m6(A, exact: bool = False):
    """The two quadratic conditions, the cubic one, and their difference.

    Evaluation is exact (floats convert losslessly to rationals), so the
    identity quad_a - quad_b = quad_diff holds with no rounding; results
    come back as Fractions with exact=True, else as their correctly rounded
    floats (integers over one denominator, divided once), which raise
    ValueError where one is past the float range.
    """
    if exact:
        return rtables.ell3_residuals(A)
    X, L = rtables._scaled(A)
    return _rounded_rows([X], L, [A])[0]


def solve_m6(fixed: dict):
    """Every point of the three-ellipse variety with two parameters fixed.

    fixed maps two names among A1, A2, A4, A5 to finite reals a and b, read
    by trimat._real (str, bytes, bool, complex, Decimal: InvalidParam).  For
    a != b (beyond EQUAL_PAIR_TOL relative to the larger) each of the twelve
    planes gives one point, so exactly twelve solutions come back, sorted;
    for a == b the only one is the all-equal point.  Solutions with any
    A_j < 1 are returned but flagged not realizable; fixed values, plane
    points and residuals past the float range raise ValueError.
    """
    names = sorted(fixed)
    for nm in names:
        if nm not in ("A1", "A2", "A4", "A5"):
            what = "cannot fix" if nm in PARAM_NAMES else "unknown parameter"
            raise ValueError(f"{what} {nm!r}; fix two of A1, A2, A4, A5")
    if len(names) != 2:
        raise ValueError("fix exactly two of A1, A2, A4, A5")
    values = []
    for nm in names:
        try:
            values.append(float(_real(fixed[nm])))
        except TypeError:
            raise InvalidParam(f"A_{nm[1]} = {fixed[nm]!r} is not a real number") from None
        except ValueError:
            raise ValueError(f"fixed values must be finite, got {fixed}") from None
        except OverflowError:
            raise ValueError(f"fixed {nm} is past the float range") from None
    (i, a), (j, b) = zip(map(PARAM_NAMES.index, names), values)
    if abs(a - b) <= EQUAL_PAIR_TOL * max(abs(a), abs(b)):
        if set(names) in ({"A1", "A5"}, {"A2", "A4"}):
            warnings.warn("fixed pair imposes a symmetry hyperplane; only the "
                          "all-equal ray lies on the three-ellipse variety there",
                          stacklevel=2)
        A = (a,) * 5
        return [M6Solution(A=A, residuals=residuals_m6(A), branch="all-equal point")]
    # A = s 1 + t d with A_i = a and A_j = b on each plane
    free = [k for k in range(5) if k != i and k != j]
    points = []
    for _, d in _PLANES:
        t = (a - b) / (d[i] - d[j])
        s = a - t * d[i]
        A = [s + t * dk for dk in d]
        A[i], A[j] = a, b
        points.append(tuple(A))
    coords = [A[k] for A in points for k in free]
    if not all(map(math.isfinite, coords)):
        bad = next(n for n, x in enumerate(coords) if not math.isfinite(x)) // 3
        raise ValueError(f"the point on {_PLANES[bad][0]} is past the float range")
    # the pair and every free coordinate read once as an integer ratio n / q;
    # float denominators are powers of two, so the largest, L, is a multiple
    # of each, the one denominator of all sixty, and n L / q is a shift
    ratios = [x.as_integer_ratio() for x in (a, b, *coords)]
    bits = max(q for _, q in ratios).bit_length()
    X = [n << (bits - q.bit_length()) for n, q in ratios]
    rows = []
    for m in range(2, len(X), 3):
        row = X[m:m + 3]
        row.insert(i, X[0])
        row.insert(j, X[1])
        rows.append(row)
    solutions = [M6Solution(A=A, residuals=r, branch=label) for A, r, (label, _)
                 in zip(points, _rounded_rows(rows, 1 << (bits - 1), points), _PLANES)]
    return sorted(solutions, key=lambda sol: sol.A)


@dataclass(frozen=True)
class UVSolveResult:
    """Solution locus of the single-ellipse conditions on the symmetric slice.

    line holds (a, b, c) with a u + b v + c = 0, unit (a, b) and a > 0; the
    locus is exactly that line, and it carries the all-equal point (1, 1).
    """

    root: float
    line: tuple
    all_equal_point: tuple = (1.0, 1.0)

    def residuals(self, u, v):
        """(R1, R2) at A = (u, v, 1, v, u) and the root, exact at their
        binary values and rounded once; ValueError past the float range."""
        A = (u, v, 1.0, v, u)
        return _finite(rtables.eval_resultants_at(A, self.root), A)

    def distance(self, u, v) -> float:
        """Distance from (u, v) to the locus."""
        a, b, c = self.line
        return abs(a * u + b * v + c)

    @staticmethod
    def realizable(u, v) -> bool:
        """Positive pairs scale (A_3 > 1) to admissible parameter vectors."""
        return u > 0 and v > 0


def solve_uv(x_target: float):
    """All (u, v) with both reduced resultants vanishing at x_target.

    x_target must be (close to) one of the slope-cubic roots x_t; the locus
    is the line u + (2 x_t - 1) v - 2 x_t = 0.
    """
    x_t = min(cubic_roots(), key=lambda r: abs(r - x_target))
    if not abs(x_t - x_target) <= 1e-6:  # nan fails every comparison
        raise ValueError(f"x_target must be a root of the slope cubic, got {x_target}")
    slope = 2.0 * x_t - 1.0
    norm = math.hypot(1.0, slope)
    return UVSolveResult(root=x_t, line=(1.0 / norm, slope / norm, -2.0 * x_t / norm))


def realize(sol) -> TridiagonalMatrix:
    """Reciprocal matrix attaining the solution's parameters.

    Raises NotRealizable when some A_j < 1 (no reciprocal matrix exists).
    """
    A = sol.A if isinstance(sol, M6Solution) else tuple(sol)
    if any(a < 1.0 - REALIZABLE_SLACK for a in A):
        raise NotRealizable(f"parameters below the A_j >= 1 floor: {A}")
    return params_to_matrix(ReciprocalParams(A=tuple(max(a, 1.0) for a in A)))
