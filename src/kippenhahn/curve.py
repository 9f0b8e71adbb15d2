"""Numerical sampling of Kippenhahn curves and axis-aligned ellipse fitting.

For every angle theta the eigenvectors of Re(e^{i theta} M) produce curve
points as quadratic-form values <M v, v>; the eigenvalue itself is the
support value of the tangent line at that angle.  Branches are labeled in
descending eigenvalue order.  This is Johnson's eigen-sweep (SIAM J. Numer.
Anal. 15, 1978), run on blocks of angles at once.  Since the main diagonal
is constant, the realified pencil is a shift of the Golub-Kahan form of a
bidiagonal matrix: its singular values, half as many, give the eigenvalues
in +- pairs, and each pair's tangent points sum to 2a.  Two kernels find
them, chosen by size alone:

- _closed_form, for 2 <= n <= 7 (k = n // 2 <= 3, the paper's sizes), with
  no eigensolve: the squared singular values are the roots of the path's
  matching polynomial, whose coefficients M_t sum products of pairwise
  non-adjacent e_j^2, all positive; the quadratic or trigonometric
  formula and one Newton step on the three-term recurrence find them, and
  the tangent points come from their derivatives in theta by implicit
  differentiation.  On 3,080 random curves at n = 2-7, from uniform A_j to
  2^+-600 scales and general M, it agrees with the cross product to
  2.4e-14 of the scale at every angle it accepts.  The angles where the
  cross product would take the SVD, the angles near a split and non-finite
  rows go on to
- _cross_product, for every other n: one batched symmetric eigensolve of
  the k x k cross products, each angle's bidiagonal scaled by a power of
  two to a largest entry in [1, 2); the angles where squaring the
  condition number, or a near tie of two singular values, would cost
  accuracy take the SVD instead.

A block holds as many angles as fit in BLOCK_ENTRIES entries of those
bidiagonals, which at n <= 20 is a whole curve.  The dense eigensolver,
eig_all, runs only at angles where the pencil splits into blocks.
trimat.pencil and trimat.pencil_products reduce the pencil for a whole
block of angles in one call, and neither an angle's reduction nor either
kernel's result depends on the block it is in, so neither do the samples.
Branches are fitted by the closed-form least-squares ellipse
u^2/p^2 + v^2/q^2 = 1.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .trimat import (SPLIT_TOL, SymTridiagonal, TridiagonalMatrix, pencil, pencil_products,
                     realified_pencil)
# unused here since _cross_product takes the phase ratios from pencil;
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


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues paired with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]


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
    real = not any(v.imag for v in (M.a, *M.b, *M.c))
    h = m // 2 if m % 2 == 0 else m  # rows [h, m) are half-turns
    # rows [0, solved) are eigensolved, the rest copied
    solved = (m // 4 if m % 2 == 0 else m // 2) + 1 if real else h
    k = M.n // 2
    step = max(1, BLOCK_ENTRIES // max(1, k * (M.n - k)))
    for lo in range(0, solved, step):
        block = slice(lo, min(lo + step, solved))
        lam[block], points[block] = _sample_block(M, theta[block])
    gap = np.empty(m)
    # the differences with one row per pair of branches, so the minimum
    # runs along the angles
    diff = np.subtract(lam[:solved, :-1].T, lam[:solved, 1:].T, out=np.empty((M.n - 1, solved)))
    gap[:solved] = np.min(diff, axis=0, initial=np.inf)
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
    1965).  Its eigenvalues are d0 +- sigma for the k = n // 2 singular
    values sigma of B, and d0 for odd n.  Flipping the odd slots of an
    eigenvector negates every w_j w_{j+1}, so the -sigma point is 2a minus
    the +sigma point and the middle point of odd n is a itself.

    For 2 <= n <= 7 (k <= 3) _closed_form solves the angles and passes the
    ones it does not accept on to _cross_product; other n go to
    _cross_product whole.
    """
    if not 2 <= M.n <= 7:
        return _cross_product(M, theta)
    lam, points, ok = _closed_form(M, theta)
    rest = np.flatnonzero(~ok)
    if rest.size:
        lam[rest], points[rest] = _cross_product(M, theta[rest])
    return lam, points


def _branches(M: TridiagonalMatrix, d0, sigma, top):
    """lam and points of all n branches from the descending sigma and the
    points top of the d0 + sigma branches."""
    n, k = M.n, M.n // 2
    lam = np.empty((len(d0), n))
    points = np.empty((len(d0), n), dtype=complex)
    lam[:, :k], points[:, :k] = d0[:, None] + sigma, top
    lam[:, n - k:] = d0[:, None] - sigma[:, ::-1]
    points[:, n - k:] = 2 * M.a - top[:, ::-1]
    if n % 2:
        lam[:, k], points[:, k] = d0, M.a
    return lam, points


def _closed_form(M: TridiagonalMatrix, theta):
    """(lam, points, ok) at each angle from the roots of a polynomial of
    degree k = n // 2 <= 3, with no eigensolve; rows where ok is False
    hold no result.

    The squares zeta = sigma^2 are the roots of P = sum_t (-1)^t M_t
    zeta^(k - t), the matching polynomial of the path: M_t sums the
    products of t pairwise non-adjacent x_j = e_j^2 = hr_j^2 + hi_j^2,
    every term positive, so each M_t is as accurate as the x_j; _roots
    finds the roots.  The tangent point of the support line at theta is
    e^{-i theta} (lambda - i lambda') for lambda = d0 + sigma, that is
    a + e^{-i theta} (sigma - i sigma'), with sigma' = zeta' / (2 sigma)
    and zeta' = -P_theta / P_zeta by implicit differentiation.  P_theta
    takes x_j' / 2 = hr_j hr_j' + hi_j hi_j', from the products of
    pencil_products and their derivatives, so the points stay as accurate
    as e_j where the curve is thin.  Each angle's h is first divided by the
    power of two at or below its largest |hr_j|, |hi_j|, as in
    _singular_triplets: nothing over- or underflows, and 2^k M gives 2^k
    times the results bit for bit.

    ok is False where _singular_triplets would take the SVD
    (sigma_min <= COND_GUARD sigma_max, or two singular values within
    TIE_GUARD sigma_max of each other), where a result is not finite, and
    near a split: where some |hr_j|, |hi_j| are both at most twice pencil's
    snap, so every angle that pencil splits goes on to eig_all.
    """
    n1 = M.n - 1
    # a row that comes out non-finite is not accepted, so nothing here warns
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w, d0, hr, hi = pencil_products(M, theta)
        cos, sin = w.real, w.imag
        b, c = np.asarray(M.b)[:, None], np.asarray(M.c)[:, None]
        p, q = (b + c) / 2.0, (b - c) / 2.0  # pencil's p, q halved
        split = 2.0 * SPLIT_TOL * (np.abs(b) + np.abs(c))
        # one row per edge or root, one column per angle: contiguous rows, and
        # reductions over the short axis run along the angles
        hr, hi = hr.T.copy(), hi.T.copy()
        big = np.maximum(np.abs(hr), np.abs(hi))
        # h' = i (w b - conj(w c)) / 2 = -(sin p.real + cos p.imag) + i (cos q.real - sin q.imag):
        # rows [p.imag; q.real] times cos and [p.real; q.imag] times sin
        dc = cos * np.concatenate([p.imag, q.real])
        ds = sin * np.concatenate([p.real, q.imag])
        scale = np.ldexp(1.0, np.frexp(big.max(axis=0))[1] - 1)
        hr /= scale
        hi /= scale
        x = hr * hr + hi * hi
        y = (hi * (dc[n1:] - ds[n1:]) - hr * (ds[:n1] + dc[:n1])) / scale  # x' / 2
        coef, dcoef = _matching_sums(x, y)
        zeta = _roots(coef, x)
        sigma = np.sqrt(zeta)
        # sigma' = -P_theta / (2 sigma P_zeta): -P_theta / 2 = D_1 zeta^(k-1)
        # - D_2 zeta^(k-2) + ... with D_t = M_t' / 2, and P_zeta at a root is
        # the product of its differences from the other roots
        dsigma, den = dcoef[0], sigma
        for t in range(1, len(zeta)):
            dsigma = dsigma * zeta - dcoef[t] if t % 2 else dsigma * zeta + dcoef[t]
            den = den * (zeta - np.concatenate((zeta[t:], zeta[:t])))
        dsigma = dsigma / den
        # NaN fails every comparison
        ok = ((sigma[-1] > COND_GUARD * sigma[0])
              & (np.min(sigma[:-1] - sigma[1:], axis=0, initial=np.inf) > TIE_GUARD * sigma[0])
              & np.isfinite(dsigma).all(axis=0) & (big > split).all(axis=0))
        sigma *= scale
        dsigma *= scale
        top = np.empty(sigma.shape, dtype=complex)
        top.real = M.a.real + (cos * sigma - sin * dsigma)
        top.imag = M.a.imag - (sin * sigma + cos * dsigma)
    return *_branches(M, d0, sigma.T, top.T), ok


def _matching_sums(x, y):
    """[M_1, ..., M_k] of the path with edge weights x (edge, angle),
    k = (len(x) + 1) // 2, and their derivatives for derivatives y of the
    x.  Vertex by vertex: M_t of j + 2 vertices is M_t of j + 1 vertices
    plus x_j times M_(t - 1) of j vertices."""
    older, old, dolder, dold = [], [], [], []
    for j, (xj, yj) in enumerate(zip(x, y)):
        new, dnew = [xj], [yj]
        for t in range(1, (j + 2) // 2):
            new.append(xj * older[t - 1])
            dnew.append(yj * older[t - 1] + xj * dolder[t - 1])
        for t in range(len(old)):
            new[t] = old[t] + new[t]
            dnew[t] = dold[t] + dnew[t]
        older, old, dolder, dold = old, new, dold, dnew
    return old, dold


def _roots(coef, x):
    """The k descending roots (root, angle) of P = zeta^k - M_1 zeta^(k-1)
    + M_2 zeta^(k-2) - ... for coef = [M_1, ..., M_k] of the edge weights
    x, k <= 3, all real and nonnegative.

    M_1 is the root for k = 1.  For k = 2 and 3 the quadratic formula or
    the trigonometric formula starts one Newton step, which evaluates P
    and P_zeta by the three-term recurrence of the path,
    P_j = zeta^(1 - j % 2) P_(j-1) - x_(j-2) P_(j-2) with P_0 = P_1 = 1:
    its rounding errors amount to small relative changes of the x_j and
    of zeta, so the roots come out to a few units in the last place even
    where two of them are close, which the coefficients alone fix only to
    about eps over the gap.  A row whose roots are too close for the
    formulas comes out NaN."""
    if len(coef) == 1:
        return coef[0][None]
    if len(coef) == 2:
        m1, m2 = coef
        big = (m1 + np.sqrt(m1 * m1 - 4.0 * m2)) / 2.0
        zeta = np.stack([big, m2 / big])
    else:
        # zeta = mid + t with t^3 - 3 rho^2 t - 2 rho^3 cos(phi) = 0
        m1, m2, m3 = coef
        mid = m1 / 3.0
        rho = np.sqrt(mid * mid - m2 / 3.0)
        phi = np.arccos(((2.0 * mid * mid - m2) * mid + m3) / (2.0 * rho ** 3)) / 3.0
        zeta = mid + 2.0 * rho * np.cos(phi - np.array([[0.0], [2.0 * math.pi / 3.0],
                                                       [4.0 * math.pi / 3.0]]))
    # P_2 = zeta - x_0 and P_3 = P_2 - x_1, both of slope 1
    p0 = zeta - x[0]
    p1, d0, d1 = p0 - x[1], 1.0, 1.0
    for j, xj in enumerate(x[2:], 4):
        if j % 2:
            p0, p1, d0, d1 = p1, p1 - xj * p0, d1, d1 - xj * d0
        else:
            p0, p1, d0, d1 = p1, zeta * p1 - xj * p0, d1, p1 + zeta * d1 - xj * d0
    return zeta - p1 / d1


def _cross_product(M: TridiagonalMatrix, theta):
    """lam and points at each angle from the singular triplets of B.

    For each singular triplet (sigma, u, v) of B, w = (u, v) in the (even,
    odd) slots over sqrt 2 is an eigenvector for d0 + sigma and (u, -v) one
    for d0 - sigma; odd n adds d0, with B's left null vector in the even
    slots.  The triplets come from _singular_triplets of the upper
    bidiagonal B^T, so v is the left and u the right singular vector.

    Angles whose e has an exact zero are then solved again by eig_all,
    which solves the decoupled blocks separately and so keeps each
    eigenvector inside one block: the canonical tangent points where two
    blocks share an eigenvalue.  realified_pencil at such an angle has
    the block's e row bit for bit, since pencil's entries do not depend on
    the batch.  d0, the snapped moduli e and the phase ratios r_j of the
    diagonal similarity that makes the pencil real all come from one
    trimat.pencil call.
    """
    n, k = M.n, M.n // 2
    d0, e, r = pencil(M, theta)
    if n == 1:  # nothing to pair: the eigenvalue is d0 and the point a
        return d0[:, None], np.full((len(theta), 1), M.a, dtype=complex)
    # <M v, v> for v = D w is a * sum w_j^2 + sum_j g_j w_j w_{j+1} with
    # g_j = b_j r_j + c_j conj(r_j) = p_j Re r_j + i q_j Im r_j, as
    # (real, imag) pairs from real products
    p, q = np.asarray(M.b) + np.asarray(M.c), np.asarray(M.b) - np.asarray(M.c)
    g = np.empty(r.shape + (2,))
    g[..., 0] = p.real * r.real - q.imag * r.imag
    g[..., 1] = p.imag * r.real + q.real * r.imag
    V, sigma, Ut = _singular_triplets(e)
    # w_j w_{j+1} for w = (u, v) unnormalised is u_i v_i at j = 2i and
    # u_{i+1} v_i at j = 2i + 1: contiguous slices of the rows of Ut and of
    # V^T, as (angle, k, i), against the even and the odd g_j
    Vt = V.transpose(0, 2, 1)
    acc = (Ut[:, :, :k] * Vt) @ g[:, 0::2]
    acc += (Ut[:, :, 1:] * Vt[:, :, :n - k - 1]) @ g[:, 1::2]
    lam, points = _branches(M, d0, sigma, M.a + 0.5 * acc.view(complex)[..., 0])
    for t in np.flatnonzero(np.any(e == 0.0, axis=1)):
        spectrum = eig_all(realified_pencil(M, float(theta[t])))
        # decoupled blocks can tie exactly; a stable order keeps ties in
        # eig_all's order
        order = np.argsort(-spectrum.values, kind="stable")
        w = spectrum.vectors[:, order]
        lam[t] = spectrum.values[order]
        points[t] = (M.a * np.einsum("jk,jk->k", w, w)
                     + ((w[:-1] * w[1:]).T @ g[t]).view(complex)[:, 0])
    return lam, points


def _blocks(e):
    """Index ranges [i0, i1) of irreducible blocks split at e_j == 0."""
    out = []
    start = 0
    for j, ej in enumerate(e):
        if ej == 0.0:
            out.append((start, j + 1))
            start = j + 1
    out.append((start, len(e) + 1))
    return out


def eig_all(T: SymTridiagonal) -> Spectrum:
    """All eigenvalues of T ascending, with their eigenvectors: each block
    split at an exact zero of e is solved densely by numpy.linalg.eigh, so
    every eigenvector lies inside one block."""
    dense = T.dense()
    vals = np.empty(T.n)
    vecs = np.zeros((T.n, T.n))
    for i0, i1 in _blocks(T.e):
        vals[i0:i1], vecs[i0:i1, i0:i1] = np.linalg.eigh(dense[i0:i1, i0:i1])
    order = np.argsort(vals, kind="stable")
    return Spectrum(values=vals[order], vectors=vecs[:, order])


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
    k = n // 2
    scale = np.ldexp(1.0, np.frexp(e.max(axis=1))[1] - 1)[:, None]
    Bt = np.zeros((len(e), k, n - k))
    # in each row of the flat view, e_2i is entry i (n - k + 1) and e_2i+1
    # the entry after it
    flat = Bt.reshape(len(e), -1)
    flat[:, 0::n - k + 1] = e[:, 0::2] / scale
    flat[:, 1::n - k + 1] = e[:, 1::2] / scale
    V = np.linalg.eigh(Bt @ Bt.transpose(0, 2, 1))[1][:, :, ::-1]  # eigh ascends
    Ut = V.transpose(0, 2, 1) @ Bt
    sigma = np.sqrt(np.einsum("tij,tij->ti", Ut, Ut))
    np.divide(Ut, sigma[..., None], out=Ut, where=sigma[..., None] > 0.0)
    tied = (sigma[:, :-1] - sigma[:, 1:] <= TIE_GUARD * sigma[:, :1]).any(axis=1)
    ill = np.flatnonzero((sigma[:, -1] <= COND_GUARD * sigma[:, 0]) | tied)
    if ill.size:
        V[ill], sigma[ill], Ut[ill] = np.linalg.svd(Bt[ill], full_matrices=False)
    sigma *= scale
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
    # row i >= 1 mirrors row m - i, and row 0 (theta = 0) itself
    mirror = lam[:0:-1]
    return float(max(np.abs(lam[1:] - mirror).max(), np.abs(lam[1:] + mirror[:, ::-1]).max(),
                     np.abs(lam[0] + lam[0, ::-1]).max()))


def sample_diameter(samples) -> float:
    pts = _as_points(samples)
    if pts.size == 0:
        return 0.0
    u, v = pts.real, pts.imag
    return float(math.hypot(u.max() - u.min(), v.max() - v.min()))
