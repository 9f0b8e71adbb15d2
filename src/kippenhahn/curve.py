"""Numerical sampling of Kippenhahn curves and axis-aligned ellipse fitting.

For every angle theta the eigenvectors of Re(e^{i theta} M) produce curve
points as quadratic-form values <M v, v>; the eigenvalue itself is the
support value of the tangent line at that angle.  Branches are labeled in
descending eigenvalue order.  This is Johnson's eigen-sweep (SIAM J. Numer.
Anal. 15, 1978), run on blocks of angles at once.  Since the main diagonal
is constant, the realified pencil is a shift of the Golub-Kahan form of a
bidiagonal matrix: its singular values, half as many, give the eigenvalues
in +- pairs, and each pair's tangent points sum to 2a.  They come from
one batched symmetric eigensolve of the k x k cross products, k = n // 2,
each angle's bidiagonal scaled by a power of two to a largest entry in
[1, 2); the angles where squaring the condition number, or a near tie of
two singular values, would cost accuracy take the SVD instead.  A block
holds as many angles as fit in BLOCK_ENTRIES entries of those
bidiagonals, which at n <= 20 is a whole curve.  The dense
eigensolver runs only at angles where the pencil splits into blocks.
trimat.pencil reduces the pencil for a whole block of angles in one call,
and an angle's reduction does not depend on the block it is in, so
neither do the samples.  Branches are fitted by the closed-form
least-squares ellipse u^2/p^2 + v^2/q^2 = 1.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .eigsolve import eig_all
from .trimat import TridiagonalMatrix, pencil, realified_pencil
# unused here since _sample_block takes the phase ratios from pencil;
# kept importable because the benchmark's tracer patches curve.phase_diagonal
from .trimat import phase_diagonal  # noqa: F401

# entries of the k x (n - k) bidiagonals B^T in one block, k = n // 2:
# bounds peak memory in n and m alike
BLOCK_ENTRIES = 2 ** 16
# the eigenvectors of the cross product B^T B move by about
# eps sigma_max^2 / (sigma_i^2 - sigma_j^2), (sigma_max / (sigma_i + sigma_j))^2
# times as far as the SVD's of the bidiagonal, so the angles with
# sigma_min <= COND_GUARD sigma_max, or with two singular values within
# TIE_GUARD sigma_max of each other, take the SVD of B^T.  On 3,000 random
# reciprocal curves (n = 2-20, A_j in [1, 10], 1 + 10^-u or 1) the two
# routes agree to 2.2e-13 scale at every angle that does not split,
# against 1.8e-12 without TIE_GUARD
COND_GUARD = 1e-2
TIE_GUARD = 1e-3


class DegenerateBranch(ValueError):
    """Branch collapses to a segment or point; an ellipse fit is meaningless."""


@dataclass(frozen=True)
class CurveSample:
    """One tangent-point sample: angle, branch (1 = largest eigenvalue),
    curve point (u, v), and the support value lambda."""

    theta: float
    branch: int
    point: complex
    lam: float


@dataclass(frozen=True, eq=False)
class CurveSamples(Sequence):
    """All branches on an angle grid, as arrays.

    theta (m,), lam (m, n) in descending order (column k - 1 is branch k),
    points (m, n) complex, and gap (m,), the smallest gap between
    consecutive eigenvalues at each angle: where it is (near) zero the
    tangent point is not unique and branch labels may swap.  As a sequence
    it holds m * n CurveSample views, angle-major.
    """

    theta: np.ndarray
    lam: np.ndarray
    points: np.ndarray
    gap: np.ndarray

    def __len__(self) -> int:
        return self.points.size

    def __getitem__(self, index):
        index = _as_index(index, "sample index")
        if not -len(self) <= index < len(self):
            raise IndexError(f"sample index {index} out of range")
        i, k = divmod(index % len(self), self.points.shape[1])
        return CurveSample(theta=float(self.theta[i]), branch=k + 1,
                           point=complex(self.points[i, k]), lam=float(self.lam[i, k]))


@dataclass(frozen=True)
class FitResult:
    semi_major: float
    semi_minor: float
    rms_residual: float
    max_radial_deviation: float
    # semi-axis along u and along v, before the major/minor reordering
    semi_u: float = 0.0
    semi_v: float = 0.0


def sample_curve(M: TridiagonalMatrix, m: int = 720) -> CurveSamples:
    """Sample all n branches on a uniform theta grid over [0, 2 pi).

    The angles are solved in blocks of max(1, BLOCK_ENTRIES // (k (n - k)))
    with k = n // 2, so peak memory grows with neither m nor n (up to
    n = 20 an m = 720 grid is one block), and two exact identities of
    H(theta) = Re(e^{i theta} M) skip most of the grid:

    - half-turn, every M: H(theta + pi) = -H(theta), so for even m the
      angle theta + pi has the same eigenvectors, hence the same tangent
      points, and the negated eigenvalues in reverse order;
    - mirror, real M (a and every b_j, c_j real): H(-theta) is the
      entrywise conjugate of H(theta), so the angle -theta has the same
      eigenvalues and conjugate tangent points.

    A real M solves theta in [0, pi/2] for even m and [0, pi] for odd m; a
    non-real M solves [0, pi) for even m and every angle for odd m.  Two
    passes fill the rest: the half-turn copies the solved rows to theta +
    pi, then for a real M the mirror fills every row still empty from a
    solved or half-turned one (pi - theta is the mirror of the half-turn).
    m must be an integer (operator.index), at least 8.
    """
    m = _as_index(m, "grid size m")
    if m < 8:
        raise ValueError("grid size m >= 8 required")
    theta = 2.0 * np.pi * np.arange(m) / m
    lam = np.empty((m, M.n))
    points = np.empty((m, M.n), dtype=complex)
    real = not np.imag([M.a, *M.b, *M.c]).any()
    h = m // 2 if m % 2 == 0 else m  # rows [h, m) are half-turns
    # rows [0, solved) are eigensolved, the rest copied
    solved = (m // 4 if m % 2 == 0 else m // 2) + 1 if real else h
    k = M.n // 2
    step = max(1, BLOCK_ENTRIES // max(1, k * (M.n - k)))
    for lo in range(0, solved, step):
        block = slice(lo, min(lo + step, solved))
        lam[block], points[block] = _sample_block(M, theta[block])
    gap = np.empty(m)
    gap[:solved] = np.min(lam[:solved, :-1] - lam[:solved, 1:], axis=1, initial=np.inf)
    # half-turn: row h + i is theta_i + pi, each row negated and reversed.
    # The copied rows keep their gap, as fl((-a) - (-b)) = fl(b - a).  A
    # direct solve at theta + pi lists exact ties (split angles) in the
    # order of a stable ascending sort, which differs from the reversal only
    # on rows without a positive gap
    turned = min(h + solved, m)
    lam[h:turned] = -lam[:turned - h, ::-1]
    points[h:turned] = points[:turned - h, ::-1]
    gap[h:turned] = gap[:turned - h]
    for i in np.flatnonzero(~(gap[:turned - h] > 0.0)):
        order = np.argsort(lam[i], kind="stable")
        lam[h + i], points[h + i] = -lam[i, order], points[i, order]
    if real:
        # mirror: row i is the angle -theta_{m - i}, solved or half-turned
        for lo, hi in ((solved, h), (turned, m)):
            lam[lo:hi] = lam[m - lo:m - hi:-1]
            points[lo:hi] = np.conj(points[m - lo:m - hi:-1])
            gap[lo:hi] = gap[m - lo:m - hi:-1]
    for a in (theta, lam, points, gap):
        a.flags.writeable = False  # frozen, and branch_points hands out views
    return CurveSamples(theta=theta, lam=lam, points=points, gap=gap)


def _sample_block(M: TridiagonalMatrix, theta: np.ndarray):
    """Descending eigenvalues and curve points at a block of angles.

    The realified pencil is d0 I + T0 with d0 = Re(e^{i theta} a) and T0
    zero-diagonal, so the odd/even permutation turns T0 into
    [[0, B], [B^T, 0]] with the ceil(n/2) x floor(n/2) bidiagonal
    B[(j+1)//2, j//2] = e_j (Golub and Kahan, SIAM J. Numer. Anal. B 2,
    1965).  For each singular triplet (sigma, u, v) of B, w = (u, v) in the
    (even, odd) slots over sqrt 2 is an eigenvector for d0 + sigma and
    (u, -v) one for d0 - sigma; odd n adds d0, with B's left null vector in
    the even slots.  Flipping the odd slots negates every w_j w_{j+1}, so
    the -sigma point is 2a minus the +sigma point and the middle point of
    odd n is a itself.  The triplets come from _singular_triplets of the
    upper bidiagonal B^T, so v is the left and u the right singular vector.
    d0, the snapped moduli e and the phase ratios r_j of the diagonal
    similarity that makes the pencil real all come from one trimat.pencil
    call.

    Angles whose e has an exact zero are then solved again by eig_all,
    which solves the decoupled blocks separately and so keeps each
    eigenvector inside one block: the canonical tangent points where two
    blocks share an eigenvalue.  realified_pencil at such an angle has
    the block's e row bit for bit, since pencil's entries do not depend on
    the batch.
    """
    n, k = M.n, M.n // 2
    d0, e, r = pencil(M, theta)
    if n == 1:  # nothing to pair: the eigenvalue is d0 and the point a
        return d0[:, None], np.full((len(theta), 1), M.a, dtype=complex)
    # <M v, v> for v = D w is a * sum w_j^2 + sum_j g_j w_j w_{j+1} with
    # g_j = b_j r_j + c_j conj(r_j) = p_j Re r_j + i q_j Im r_j, as
    # (real, imag) pairs from real products
    p, q = np.asarray(M.b) + np.asarray(M.c), np.asarray(M.b) - np.asarray(M.c)
    g = np.stack([p.real * r.real - q.imag * r.imag,
                  p.imag * r.real + q.real * r.imag], axis=-1)
    V, sigma, Ut = _singular_triplets(e)
    # w_j w_{j+1} for w = (u, v) unnormalised is u_i v_i at j = 2i and
    # u_{i+1} v_i at j = 2i + 1: contiguous slices of the rows of Ut and of
    # V^T, as (angle, k, i), against the even and the odd g_j
    Vt = V.transpose(0, 2, 1)
    acc = (Ut[:, :, :k] * Vt) @ g[:, 0::2]
    acc += (Ut[:, :, 1:] * Vt[:, :, :n - k - 1]) @ g[:, 1::2]
    top = M.a + 0.5 * acc.view(complex)[..., 0]
    lam = np.empty((len(theta), n))
    points = np.empty((len(theta), n), dtype=complex)
    lam[:, :k], points[:, :k] = d0[:, None] + sigma, top
    lam[:, n - k:] = d0[:, None] - sigma[:, ::-1]
    points[:, n - k:] = 2 * M.a - top[:, ::-1]
    if n % 2:
        lam[:, k], points[:, k] = d0, M.a
    for t in np.flatnonzero(np.any(e == 0.0, axis=1)):
        spectrum = eig_all(realified_pencil(M, float(theta[t])), vectors=True)
        # decoupled blocks can tie exactly; a stable order keeps ties in
        # eig_all's order
        order = np.argsort(-spectrum.values, kind="stable")
        w = spectrum.vectors[:, order]
        lam[t] = spectrum.values[order]
        points[t] = (M.a * np.einsum("jk,jk->k", w, w)
                     + ((w[:-1] * w[1:]).T @ g[t]).view(complex)[:, 0])
    return lam, points


def _singular_triplets(e: np.ndarray):
    """(V, sigma, U^T) with B^T = V diag(sigma) U^T, sigma descending, as
    np.linalg.svd gives them, for the k x (n - k) upper bidiagonal
    B^T[j // 2, (j + 1) // 2] = e_j of each row of e, k = n // 2.

    Each row of e is divided by the power of two at or below its largest
    entry, which is exact and leaves no square to over- or underflow, and
    one batched eigh of the k x k cross products B^T B gives V: the rows of
    V^T B^T then have norm sigma and direction u^T.  The angles with
    sigma_min <= COND_GUARD sigma_max, or with two norms within TIE_GUARD
    sigma_max of each other or out of order, are solved again by the SVD of
    the same scaled B^T, which gives the unscaled SVD's bits.
    """
    n = e.shape[1] + 1
    k, j = n // 2, np.arange(n - 1)
    scale = np.ldexp(1.0, np.frexp(e.max(axis=1))[1] - 1)
    Bt = np.zeros((len(e), k, n - k))
    Bt[:, j // 2, (j + 1) // 2] = e / scale[:, None]
    V = np.linalg.eigh(Bt @ Bt.transpose(0, 2, 1))[1][:, :, ::-1]  # eigh ascends
    Ut = V.transpose(0, 2, 1) @ Bt
    sigma = np.sqrt(np.einsum("tij,tij->ti", Ut, Ut))
    np.divide(Ut, sigma[..., None], out=Ut, where=sigma[..., None] > 0.0)
    tied = (sigma[:, :-1] - sigma[:, 1:] <= TIE_GUARD * sigma[:, :1]).any(axis=1)
    ill = np.flatnonzero((sigma[:, -1] <= COND_GUARD * sigma[:, 0]) | tied)
    if ill.size:
        V[ill], sigma[ill], Ut[ill] = np.linalg.svd(Bt[ill], full_matrices=False)
    sigma *= scale[:, None]
    return V, sigma, Ut


def branch_points(samples: CurveSamples, k: int) -> np.ndarray:
    """Complex points of branch k (1 = largest eigenvalue)."""
    k = _as_index(k, "branch")
    if not 1 <= k <= samples.points.shape[1]:
        raise IndexError(f"branch {k} outside 1..{samples.points.shape[1]}")
    return samples.points[:, k - 1]


def _as_index(index, name: str) -> int:
    """index as a Python int (operator.index), else a TypeError naming it."""
    try:
        return operator.index(index)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {index!r}") from None


def _as_points(samples) -> np.ndarray:
    if isinstance(samples, CurveSamples):
        return samples.points.reshape(-1)
    return np.asarray(samples, dtype=complex).reshape(-1)


def fit_ellipse_axis_aligned(samples) -> FitResult:
    """Least-squares fit of u^2/p^2 + v^2/q^2 = 1 to one branch.

    Linear in (alpha, beta) = (1/p^2, 1/q^2): in the coordinates divided by
    s = max |u|, |v| the 2 x 2 normal equations of the columns (u^2, v^2)
    against 1 are solved by Cramer's rule.  Scaling first means no square
    overflows or underflows: the semi-axes and the deviation scale with s,
    the algebraic rms residual does not.  Thin ellipses keep their minor
    axis: scaling the v^2 column by c scales the determinant and both
    numerators by powers of c, so their rounding does not depend on the
    axis ratio.  Raises ValueError on non-finite samples, and
    DegenerateBranch when the points have no spread along one of the axes,
    relative to s (segments, points).
    """
    pts = _as_points(samples)
    if pts.size < 8:
        raise ValueError("need at least 8 samples")
    # rows u, v (squared in place to x = u^2, y = v^2 once scaled) and 1:
    # one product gives the normal equations and the column sums
    X = np.empty((3, pts.size))
    X[0], X[1], X[2] = pts.real, pts.imag, 1.0
    uv = X[:2]
    (umin, vmin), (umax, vmax) = uv.min(axis=1).tolist(), uv.max(axis=1).tolist()
    if not all(map(math.isfinite, (umin, vmin, umax, vmax))):  # NaN and inf reach these
        i = np.flatnonzero(~np.isfinite(pts))[0]
        raise ValueError(f"sample {i} is not finite: {pts[i]}")
    s = max(-umin, umax, -vmin, vmax)
    if umax - umin <= 1e-10 * s or vmax - vmin <= 1e-10 * s:
        raise DegenerateBranch("branch has no area; fit skipped")
    uv /= s
    uv *= uv
    (xx, xy, sx), (_, yy, sy) = (uv @ X.T).tolist()
    det = xx * yy - xy * xy
    if det <= 0:  # u^2 proportional to v^2: the points lie on two lines
        raise DegenerateBranch("degenerate conic: points on two lines through 0")
    alpha, beta = (sx * yy - sy * xy) / det, (xx * sy - xy * sx) / det
    if alpha <= 0 or beta <= 0:
        raise DegenerateBranch("degenerate conic: nonpositive axis coefficient")
    q = np.array((alpha, beta)) @ uv
    resid = q - 1.0
    # max |r - r_fit| at a common polar angle: the ray through (u, v) meets
    # the ellipse at r / sqrt(q); the origin takes polar angle 0.  r_fit
    # reuses the ones row, which the product has consumed
    r = np.sqrt(uv[0] + uv[1])
    r_fit = X[2]
    r_fit.fill(1.0 / math.sqrt(alpha))
    np.divide(r, np.sqrt(q), out=r_fit, where=q > 0)
    r -= r_fit
    semi_u, semi_v = s / math.sqrt(alpha), s / math.sqrt(beta)
    return FitResult(semi_major=max(semi_u, semi_v), semi_minor=min(semi_u, semi_v),
                     rms_residual=math.sqrt(resid @ resid / resid.size),
                     max_radial_deviation=s * float(np.abs(r, out=r).max()),
                     semi_u=semi_u, semi_v=semi_v)


def symmetry_residual(samples: CurveSamples) -> float:
    """Largest support-value difference between the curve and its
    reflections in the two coordinate axes.

    The tangent line u cos theta - v sin theta = lambda reflects in the real
    axis to the line at -theta with the same lambda, and in the imaginary
    axis to the line at pi - theta, where spec H(pi - theta) =
    -spec H(-theta) for H(theta) = Re(e^{i theta} M).  So the curve is
    symmetric about both axes iff each row of lam equals the row at -theta
    and its negation reversed; -theta is on every uniform grid, odd m
    included, and the comparison needs no tangent points, so it is also
    well defined where the gap is zero.  Zero (to rounding) for reciprocal
    matrices; general zero-diagonal tridiagonal matrices only guarantee
    central symmetry.  An empty input gives 0.0.
    """
    if not isinstance(samples, CurveSamples):
        if np.size(samples) == 0:
            return 0.0
        raise TypeError("symmetry_residual needs the CurveSamples of sample_curve")
    lam = samples.lam
    mirror = lam[-np.arange(len(lam))]  # row i holds the angle -theta_i
    return float(max(np.abs(lam - mirror).max(), np.abs(lam + mirror[:, ::-1]).max()))


def sample_diameter(samples) -> float:
    pts = _as_points(samples)
    if pts.size == 0:
        return 0.0
    u, v = pts.real, pts.imag
    return float(math.hypot(u.max() - u.min(), v.max() - v.min()))
