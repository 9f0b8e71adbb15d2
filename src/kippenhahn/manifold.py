"""Constructive solvers on the 6-by-6 ellipticity manifolds.

The three-ellipse variety is cut out by two quadratics and one cubic in
(A_1, ..., A_5) (all homogeneous); nontrivial points are constructed by
fixing two of the outer parameters, solving the quadratic pair for the
remaining two along an A_3 sweep, and bisecting the cubic condition.

The single-ellipse slice A_1 = A_5 = u A_3, A_2 = A_4 = v A_3 turns out to
be a line in the (u, v) plane for each root of the slope cubic (both
reduced resultants share a linear factor there), so the dedicated solver
returns a one-dimensional locus rather than isolated points.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import rtables
from .nrpoly import cubic_roots
from .trimat import ReciprocalParams, TridiagonalMatrix, params_to_matrix

log = logging.getLogger(__name__)

PARAM_NAMES = ("A1", "A2", "A3", "A4", "A5")

# solve_m6 runs its independent sweep starts in blocks of at most this many
# rows, which bounds the temporaries of one batched Newton step
_BLOCK_ROWS = 256


class NoBracket(RuntimeError):
    """The cubic condition never changes sign along the sweep."""


class NotRealizable(ValueError):
    """No reciprocal matrix attains parameters with A_j < 1."""


@dataclass(frozen=True)
class SolverStats:
    """What the Newton runs of one solve did.

    starts counts every Newton run (sweep starts, bisection steps and the
    final polish for solve_m6; grid starts for solve_uv); converged and
    diverged split them, diverged including singular Jacobians and runs out
    of iterations; max_iterations is the most Newton steps any run took.
    """

    starts: int
    converged: int
    diverged: int
    max_iterations: int


@dataclass(frozen=True)
class M6Solution:
    """A point of the three-ellipse variety with its residuals."""

    A: tuple
    residuals: tuple  # quad_a, quad_b, cubic, quad_diff
    branch: str = ""
    stats: Optional[SolverStats] = field(default=None, compare=False)

    @property
    def realizable(self) -> bool:
        return all(a >= 1.0 - 1e-9 for a in self.A)

    def scaled_norm(self) -> float:
        s = sum(self.A)
        qa, qb, cu, _ = self.residuals
        return max(abs(qa) / s ** 2, abs(qb) / s ** 2, abs(cu) / s ** 3)


def residuals_m6(A, exact: bool = False):
    """The two quadratic conditions, the cubic one, and their difference.

    Evaluation is exact (floats convert losslessly to rationals), so the
    identity quad_a - quad_b = quad_diff holds with no rounding; results
    come back as floats unless exact=True.
    """
    Aex = tuple(Fraction(a) if not isinstance(a, Fraction) else a for a in A)
    vals = rtables.ell3_residuals(Aex)
    if exact:
        return vals
    return tuple(float(v) for v in vals)


class _Tally:
    """Accumulates the ok-flags and iteration counts of Newton runs."""

    def __init__(self):
        self.starts = self.converged = self.max_iterations = 0

    def add(self, ok, iters):
        self.starts += len(ok)
        self.converged += int(np.count_nonzero(ok))
        self.max_iterations = max(self.max_iterations, int(iters.max(initial=0)))

    def stats(self) -> SolverStats:
        return SolverStats(self.starts, self.converged,
                           self.starts - self.converged, self.max_iterations)


def _solve_rows(J, F):
    """Newton steps J^-1 F row by row, and which rows had a solvable J."""
    try:
        return np.linalg.solve(J, F[..., None])[..., 0], np.ones(len(F), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(F)
    solvable = np.ones(len(F), dtype=bool)
    for r in range(len(F)):
        try:
            steps[r] = np.linalg.solve(J[r], F[r])
        except np.linalg.LinAlgError:
            solvable[r] = False
    return steps, solvable


def _newton(system, x0, converged, max_iter, bound=np.inf):
    """Newton's method on a batch of starts, every row on its own.

    system(rows, x) returns the residuals F (B, k) and Jacobians J (B, k, k)
    at the points x (B, k) of the given batch rows; converged(x, F) flags the
    rows that are done.  Each row checks convergence before each of its at
    most max_iter steps, and retires as failed when its Jacobian is singular
    or a step leaves the finite box |x_i| <= bound.  Returns the last
    iterates, the ok-flags and the number of steps each row took.
    """
    x = np.array(x0, dtype=float)
    ok = np.zeros(len(x), dtype=bool)
    iters = np.zeros(len(x), dtype=int)
    live = np.arange(len(x))
    for _ in range(max_iter):
        if not live.size:
            break
        xa = x[live]
        F, J = system(live, xa)
        done = converged(xa, F)
        ok[live[done]] = True
        going = ~done
        step, solvable = _solve_rows(J[going], F[going])
        live, xa = live[going][solvable], xa[going][solvable] - step[solvable]
        x[live] = xa
        iters[live] += 1
        live = live[np.all(np.isfinite(xa), axis=1) & (np.max(np.abs(xa), axis=1) <= bound)]
    return x, ok, iters


def _ell3_values(A):
    """Values and gradients of quad_a, quad_b and the cubic, shape (..., 3, 6)."""
    return rtables.eval_compiled(rtables.ELL3_COMPILED, A)


def _ell3_system(base, cols, n_eq):
    """The first n_eq three-ellipse conditions as a Newton system in the
    parameters cols, the others held at their values in the rows of base."""
    grad_cols = [c + 1 for c in cols]

    def system(rows, x):
        A = base[rows].copy()
        A[:, cols] = x
        vals = _ell3_values(A)[:, :n_eq]
        return vals[:, :, 0], vals[:, :, grad_cols]

    return system


def _solve_quad_pair(base, free_idx, starts, scale, tally, max_iter=60):
    """Newton on the two quadratic conditions in the two free parameters.

    base holds one full parameter row per start (fixed values and A_3 in
    place); returns the limits and their ok-flags.
    """
    tol = 1e-13 * scale ** 2
    x, ok, iters = _newton(_ell3_system(base, free_idx, 2), starts,
                           lambda x, F: np.max(np.abs(F), axis=1) <= tol,
                           max_iter, 1e8 * scale)
    tally.add(ok, iters)
    return x, ok


def _place(row, free_idx, free_vals):
    """A copy of the parameter row with the free pair set to free_vals."""
    A = np.array(row, dtype=float)
    A[free_idx] = free_vals
    return A


def _cubic_at(A):
    return float(_ell3_values(A)[2, 0])


def solve_m6(fixed: dict, a3_bracket=None, grid: int = 200):
    """Sweep A_3, solving the quadratic pair for the two free parameters and
    bisecting the cubic condition at its sign changes.

    fixed maps two names among A1, A2, A4, A5 to values; a3_bracket, when
    given, must have finite bounds 0 < lo < hi.  Solutions with
    any A_j < 1 are returned but flagged not realizable.  Raises NoBracket
    when the cubic condition never changes sign on any tracked branch.
    """
    names = sorted(fixed)
    if len(names) != 2 or any(nm not in ("A1", "A2", "A4", "A5") for nm in names):
        raise ValueError("fix exactly two of A1, A2, A4, A5")
    fixed_vals = [float(fixed[nm]) for nm in names]
    if not all(math.isfinite(v) for v in fixed_vals):
        raise ValueError(f"fixed values must be finite, got {fixed}")
    if set(names) in ({"A1", "A5"}, {"A2", "A4"}) and \
            abs(fixed_vals[0] - fixed_vals[1]) <= 1e-12:
        warnings.warn("fixed pair imposes a symmetry hyperplane; only the "
                      "all-equal ray lies on the three-ellipse variety there",
                      stacklevel=2)
    fixed_idx = [PARAM_NAMES.index(nm) for nm in names]
    free_idx = [i for i in (0, 1, 3, 4) if i not in fixed_idx]
    scale = max(fixed_vals)
    if a3_bracket is None:
        a3_bracket = (scale / 10.0, 10.0 * scale)
    a3_lo, a3_hi = (float(v) for v in a3_bracket)
    if not 0.0 < a3_lo < a3_hi < math.inf:
        raise ValueError(f"a3_bracket needs finite bounds 0 < lo < hi, got {a3_bracket}")
    a3_grid = np.linspace(a3_lo, a3_hi, grid)
    base = np.zeros((grid, 5))  # one parameter row per grid point
    base[:, fixed_idx] = fixed_vals
    base[:, 2] = a3_grid
    tally = _Tally()

    # the diagonal start and the fresh starts do not depend on the previous
    # grid point, so they run first, all grid points together, in blocks
    fresh_starts = [(scale, scale), (scale / 2, 2 * scale), (2 * scale, scale / 2),
                    (scale / 4, scale / 4), (3 * scale, 3 * scale)]
    per_point = 1 + len(fresh_starts)
    starts = np.empty((grid, per_point, 2))
    starts[:, 0] = a3_grid[:, None]
    starts[:, 1:] = fresh_starts
    starts = starts.reshape(-1, 2)
    rows = np.repeat(base, per_point, axis=0)
    cold, cold_ok = np.empty_like(starts), np.empty(len(starts), dtype=bool)
    for lo in range(0, len(starts), _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        cold[block], cold_ok[block] = _solve_quad_pair(
            rows[block], free_idx, starts[block], scale, tally)
    cold = cold.reshape(grid, per_point, 2)
    cold_ok = cold_ok.reshape(grid, per_point)

    diverged = int(np.count_nonzero(~cold_ok))
    track = []  # per grid point: list of free-pair solutions
    prev = []
    for g in range(grid):
        limits, oks = cold[g], cold_ok[g]
        if prev:
            warm, warm_ok = _solve_quad_pair(
                base[[g] * len(prev)], free_idx, np.array(prev), scale, tally)
            diverged += int(np.count_nonzero(~warm_ok))
            limits, oks = np.vstack([warm, limits]), np.concatenate([warm_ok, oks])
        found = []
        for sol in map(tuple, limits[oks]):
            if all(max(abs(sol[0] - f[0]), abs(sol[1] - f[1])) > 1e-6 * scale
                   for f in found):
                found.append(sol)
        track.append(found)
        prev = found
    if diverged:
        log.debug("solve_m6: %d Newton starts diverged", diverged)

    solutions = []
    seen = []
    for g_lo, (sols_lo, sols_hi) in enumerate(zip(track, track[1:])):
        g_hi = g_lo + 1
        for f_lo in sols_lo:
            # continue the same branch to the next grid point
            cands = [f for f in sols_hi
                     if max(abs(f[0] - f_lo[0]), abs(f[1] - f_lo[1])) < 0.25 * scale + 1e-6]
            if not cands:
                continue
            f_hi = min(cands, key=lambda f: max(abs(f[0] - f_lo[0]), abs(f[1] - f_lo[1])))
            c_lo = _cubic_at(_place(base[g_lo], free_idx, f_lo))
            c_hi = _cubic_at(_place(base[g_hi], free_idx, f_hi))
            if c_lo == 0.0:
                root = (a3_grid[g_lo], f_lo)
            elif c_lo * c_hi < 0:
                root = _bisect_cubic(base[g_lo], free_idx,
                                     (a3_grid[g_lo], f_lo, c_lo),
                                     (a3_grid[g_hi], f_hi, c_hi), scale, tally)
            else:
                continue
            if root is None:
                continue
            a3r, fr = root
            A = _place(base[g_lo], free_idx, fr)
            A[2] = a3r
            A = _polish_full(free_idx, A, scale, tally)
            if A is None:
                continue
            if any(max(abs(a - b) for a, b in zip(A, s)) <= 1e-8 * max(1.0, scale)
                   for s in seen):
                continue
            seen.append(A)
            solutions.append(M6Solution(
                A=A, residuals=residuals_m6(A),
                branch=f"free={PARAM_NAMES[free_idx[0]]},{PARAM_NAMES[free_idx[1]]}"
                       f"; A3 near {a3r:.6g}"))
    if not solutions:
        raise NoBracket("cubic condition has no sign change on the sweep")
    stats = tally.stats()
    return sorted((replace(s, stats=stats) for s in solutions), key=lambda s: s.A)


def _bisect_cubic(base_row, free_idx, lo, hi, scale, tally):
    a3_lo, f_lo, g_lo = lo
    a3_hi, f_hi, g_hi = hi
    base = np.array([base_row], dtype=float)
    for _ in range(80):
        a3_mid = 0.5 * (a3_lo + a3_hi)
        base[0, 2] = a3_mid
        start = (0.5 * (f_lo[0] + f_hi[0]), 0.5 * (f_lo[1] + f_hi[1]))
        x, ok = _solve_quad_pair(base, free_idx, [start], scale, tally)
        if not ok[0]:
            return None
        f_mid = tuple(x[0])
        g_mid = _cubic_at(_place(base[0], free_idx, f_mid))
        if g_mid == 0.0 or (a3_hi - a3_lo) <= 1e-14 * max(1.0, abs(a3_mid)):
            return a3_mid, f_mid
        if g_lo * g_mid < 0:
            a3_hi, f_hi, g_hi = a3_mid, f_mid, g_mid
        else:
            a3_lo, f_lo, g_lo = a3_mid, f_mid, g_mid
    return a3_mid, f_mid


def _polish_full(free_idx, A, scale, tally):
    """Final Newton on all three conditions in (free1, free2, A3)."""
    cols = [free_idx[0], free_idx[1], 2]
    base = np.array([A], dtype=float)
    tol = np.array([1e-12 * scale ** 2, 1e-12 * scale ** 2, 1e-12 * scale ** 3])
    x, ok, iters = _newton(_ell3_system(base, cols, 3), base[:, cols],
                           lambda x, F: np.all(np.abs(F) <= tol, axis=1), 50)
    tally.add(ok, iters)
    if not ok[0]:
        return None
    base[0, cols] = x[0]
    return tuple(float(a) for a in base[0])


@dataclass(frozen=True)
class UVSolveResult:
    """Solution locus of the single-ellipse conditions on the symmetric slice.

    pairs are deduplicated Newton limits; when they form a one-dimensional
    family, line holds (a, b, c) with a u + b v + c = 0 and unit (a, b).
    """

    root: float
    pairs: tuple
    line: Optional[tuple] = None
    all_equal_point: Optional[tuple] = None
    stats: Optional[SolverStats] = field(default=None, compare=False)

    def residuals(self, u, v):
        A = (u, v, 1.0, v, u)
        r1, r2 = rtables.eval_resultants_at(A, self.root)
        return float(r1), float(r2)

    def distance(self, u, v) -> float:
        """Distance from (u, v) to the returned locus."""
        if self.line is not None:
            a, b, c = self.line
            return abs(a * u + b * v + c)
        if not self.pairs:
            return float("inf")
        return min(max(abs(u - p[0]), abs(v - p[1])) for p in self.pairs)

    def contains(self, u, v, tol: float = 1e-8) -> bool:
        r1, r2 = self.residuals(u, v)
        s = abs(u) + abs(v) + 1.0
        return (abs(r1) <= tol * s ** 2 and abs(r2) <= tol * s ** 3
                and self.distance(u, v) <= max(tol, 1e-6))

    @staticmethod
    def realizable(u, v) -> bool:
        """Positive pairs scale (A_3 > 1) to admissible parameter vectors."""
        return u > 0 and v > 0


def _uv_system(x_t):
    """Residuals and Jacobians of both resultants at x_t on the symmetric
    slice A = (u, v, 1, v, u), for a batch of (u, v) rows."""
    weights = np.array([x_t * x_t, x_t, 1.0])

    def system(rows, x):
        u, v = x[:, 0], x[:, 1]
        A = np.stack([u, v, np.ones_like(u), v, u], axis=1)
        vals = rtables.eval_compiled(rtables.RESULTANTS_COMPILED, A)
        # (B, resultant, power, value + gradient), weighted by x_t^power
        vals = np.einsum("brpc,p->brc", vals.reshape(len(x), 2, 3, 6), weights)
        # chain rule through A = (u, v, 1, v, u)
        J = np.stack([vals[:, :, 1] + vals[:, :, 5], vals[:, :, 2] + vals[:, :, 4]], axis=2)
        return vals[:, :, 0], J

    return system


def _uv_converged(x, F):
    s = np.abs(x[:, 0]) + np.abs(x[:, 1]) + 1.0
    return (np.abs(F[:, 0]) <= 1e-13 * s ** 2) & (np.abs(F[:, 1]) <= 1e-13 * s ** 3)


def solve_uv(x_target: float, box=(-5.0, 12.0), grid: int = 12):
    """All (u, v) with both reduced resultants vanishing at x_target.

    x_target must be (close to) one of the slope-cubic roots.  Runs Newton
    from a coarse grid of starts, deduplicates, and detects the collinear
    structure of the converged set; the locus is in fact a full line for
    each root, carrying the distinguished all-equal point (1, 1).
    """
    roots = cubic_roots()
    x_t = min(roots, key=lambda r: abs(r - x_target))
    if abs(x_t - x_target) > 1e-6:
        raise ValueError(f"x_target must be a root of the slope cubic, got {x_target}")
    lo, hi = box
    ticks = [lo + (hi - lo) * i / grid for i in range(grid + 1)]
    starts = np.array([(u, v) for u in ticks for v in ticks])
    x, ok, iters = _newton(_uv_system(x_t), starts, _uv_converged, 80, 1e6)
    tally = _Tally()
    tally.add(ok, iters)
    sols = []
    for p in x[ok]:
        if lo - 1 <= p[0] <= hi + 1 and lo - 1 <= p[1] <= hi + 1:
            if all(max(abs(p[0] - q[0]), abs(p[1] - q[1])) > 1e-8 for q in sols):
                sols.append((float(p[0]), float(p[1])))
    sols.sort()
    line = _detect_line(sols, x_t)
    all_equal = None
    if line is not None:
        a, b, c = line
        if abs(a + b) > 1e-12:
            t = -c / (a + b)
            # the all-equal parameter point solves the system identically;
            # snap to it when the intersection with u = v confirms that
            if abs(t - 1.0) <= 1e-9 and all(
                    v == 0 for v in rtables.eval_resultants_at((1, 1, 1, 1, 1), 1)):
                t = 1.0
            all_equal = (t, t)
    elif any(max(abs(p[0] - 1), abs(p[1] - 1)) <= 1e-9 for p in sols):
        all_equal = (1.0, 1.0)
    return UVSolveResult(root=x_t, pairs=tuple(sols), line=line,
                         all_equal_point=all_equal, stats=tally.stats())


def _detect_line(sols, x_t=None):
    """Line through the bulk of the solutions, if they are collinear.

    Newton limits scatter near crossing points of the solution set (the
    all-equal point), which would tilt a plain least-squares fit, so the
    line is seeded from point pairs and kept only when it collects most of
    the cloud at tight tolerance; a detected line is then certified by
    exact evaluation of both resultants at fresh points along it.
    """
    if len(sols) < 3:
        return None
    pts = np.asarray(sols)
    step = max(1, len(pts) // 15)
    reps = pts[::step]
    best = None
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            chord = reps[j] - reps[i]
            length = np.hypot(*chord)
            if length < 1e-3:
                continue
            normal = np.array([-chord[1], chord[0]]) / length
            resid = np.abs((pts - reps[i]) @ normal)
            count = int((resid <= 1e-7).sum())
            if best is None or count > best[0]:
                best = (count, resid <= 1e-7)
    if best is None or best[0] < max(3, len(pts) // 2):
        return None  # isolated solutions, not a one-dimensional family
    sub = pts[best[1]]
    center = sub.mean(axis=0)
    _, sv, vt = np.linalg.svd(sub - center, full_matrices=False)
    if sv[1] > 1e-7 * max(1.0, sv[0]):
        return None
    a, b = vt[1] / np.linalg.norm(vt[1])
    c = -(a * center[0] + b * center[1])
    if a < 0 or (a == 0 and b < 0):
        a, b, c = -a, -b, -c
    line = (float(a), float(b), float(c))
    if x_t is not None and not _certify_line(line, x_t):
        return None
    return line


def _certify_line(line, x_t):
    """Both resultants must vanish along the candidate line, not just near
    the sampled solutions."""
    a, b, c = line
    for t in (-7.3, -2.1, 0.4, 3.9, 9.8):
        # point at parameter t along the line
        u = -a * c + b * t
        v = -b * c - a * t
        A = (u, v, 1.0, v, u)
        r1, r2 = rtables.eval_resultants_at(A, x_t)
        s = abs(u) + abs(v) + 1.0
        if abs(r1) > 1e-8 * s ** 2 or abs(r2) > 1e-8 * s ** 3:
            return False
    return True


def realize(sol) -> TridiagonalMatrix:
    """Reciprocal matrix attaining the solution's parameters.

    Raises NotRealizable when some A_j < 1 (no reciprocal matrix exists).
    """
    A = sol.A if isinstance(sol, M6Solution) else tuple(sol)
    if any(a < 1.0 - 1e-9 for a in A):
        raise NotRealizable(f"parameters below the A_j >= 1 floor: {A}")
    return params_to_matrix(ReciprocalParams(A=tuple(max(a, 1.0) for a in A)))
