"""Tridiagonal matrices with constant main diagonal and their reciprocal subclass.

A matrix here is determined by (n, a, b, c): size, the scalar main diagonal,
and the super-/subdiagonal entry vectors.  "Reciprocal" means a = 0 and
b_j * c_j = 1 for every j; that class is closed under the A_j parameters
A_j = (|b_j|^2 + |c_j|^2) / 2, which are a complete unitary invariant for
everything computed downstream.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

RECIPROCAL_TOL = 1e-12
# slack in comparing A_j with the floor 1, with 1, and (relative) with each other
PARAM_TOL = 1e-12


class ZeroSuperdiagonal(ValueError):
    """A reciprocal matrix needs every superdiagonal entry nonzero."""


class NotReciprocal(ValueError):
    """Operation defined only for reciprocal matrices."""


class InvalidParam(ValueError):
    """Parameters must be finite, and A_j parameters must satisfy A_j >= 1."""


@dataclass(frozen=True)
class TridiagonalMatrix:
    """Tridiagonal matrix with constant main diagonal a.

    b holds the n-1 superdiagonal entries, c the n-1 subdiagonal entries;
    every entry must be finite.
    """

    n: int
    a: complex
    b: tuple
    c: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be positive")
        if len(self.b) != self.n - 1 or len(self.c) != self.n - 1:
            raise ValueError("off-diagonals must have length n-1")
        object.__setattr__(self, "b", tuple(complex(v) for v in self.b))
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))
        if not cmath.isfinite(self.a):
            raise InvalidParam(f"diagonal entry a = {self.a} is not finite")
        for name, entries in (("b", self.b), ("c", self.c)):
            for j, v in enumerate(entries, start=1):
                if not cmath.isfinite(v):
                    raise InvalidParam(f"entry {name}_{j} = {v} is not finite")

    @property
    def is_reciprocal(self) -> bool:
        if self.a != 0:
            return False
        return all(abs(bj * cj - 1.0) <= RECIPROCAL_TOL
                   for bj, cj in zip(self.b, self.c))

    def dense(self) -> np.ndarray:
        """Dense complex ndarray; n is small everywhere in this package."""
        M = np.zeros((self.n, self.n), dtype=complex)
        np.fill_diagonal(M, self.a)
        for j in range(self.n - 1):
            M[j, j + 1] = self.b[j]
            M[j + 1, j] = self.c[j]
        return M


@dataclass(frozen=True)
class ReciprocalParams:
    """The vector A_j = (|b_j|^2 + |c_j|^2)/2 of a reciprocal matrix.

    Exact rational entries are kept exact; everything else becomes float.
    """

    A: tuple
    n: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(
            self, "A",
            tuple(v if isinstance(v, (Fraction, int)) else float(v) for v in self.A))
        if self.n == 0:
            object.__setattr__(self, "n", len(self.A) + 1)
        if self.n != len(self.A) + 1:
            raise ValueError("n must equal len(A) + 1")
        # one pass rejects both A_j < 1 and non-finite entries (nan fails
        # every comparison, inf fails the upper one)
        if not all(1.0 - PARAM_TOL <= v < math.inf for v in self.A):
            raise InvalidParam(f"finite A_j >= 1 required, got {self.A}")

    @property
    def all_equal(self) -> bool:
        return max(self.A) - min(self.A) <= PARAM_TOL * max(1.0, max(self.A))

    @property
    def all_ones(self) -> bool:
        return all(abs(v - 1.0) <= PARAM_TOL for v in self.A)


@dataclass(frozen=True)
class SymTridiagonal:
    """Real symmetric tridiagonal matrix: diagonal d, nonnegative off-diagonal e."""

    d: tuple
    e: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(float(v) for v in self.d))
        object.__setattr__(self, "e", tuple(float(v) for v in self.e))
        if len(self.e) != len(self.d) - 1:
            raise ValueError("off-diagonal must have length n-1")
        if any(v < 0 for v in self.e):
            raise ValueError("off-diagonal entries must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.d)

    def dense(self) -> np.ndarray:
        T = np.diag(np.asarray(self.d, dtype=float))
        for j, ej in enumerate(self.e):
            T[j, j + 1] = T[j + 1, j] = ej
        return T


def build_reciprocal(b) -> TridiagonalMatrix:
    """Reciprocal matrix with superdiagonal b and subdiagonal 1/b."""
    b = [complex(v) for v in b]
    if any(v == 0 for v in b):
        raise ZeroSuperdiagonal("all superdiagonal entries must be nonzero")
    c = [1.0 / v for v in b]
    return TridiagonalMatrix(n=len(b) + 1, a=0.0, b=tuple(b), c=tuple(c))


def a_params(M: TridiagonalMatrix) -> ReciprocalParams:
    """A_j parameters of a reciprocal matrix; raises NotReciprocal otherwise."""
    if not M.is_reciprocal:
        raise NotReciprocal("A_j parameters are defined for reciprocal matrices only")
    A = [(abs(bj) ** 2 + abs(cj) ** 2) / 2.0 for bj, cj in zip(M.b, M.c)]
    return ReciprocalParams(A=tuple(A), n=M.n)


def params_to_matrix(p: ReciprocalParams) -> TridiagonalMatrix:
    """Canonical positive-real representative with the given A_j parameters.

    b_j = sqrt(A_j + sqrt(A_j^2 - 1)) gives |b_j|^2 + |b_j|^-2 = 2 A_j; the
    phase of b_j is immaterial for every classifier, so the real positive
    choice is fixed once and for all.
    """
    b = []
    for Aj in p.A:
        Aj = float(Aj)
        if Aj < 1.0 - PARAM_TOL:
            raise InvalidParam(f"A_j >= 1 required, got {Aj}")
        s = max(Aj * Aj - 1.0, 0.0)
        b.append(float(np.sqrt(Aj + np.sqrt(s))))
    return build_reciprocal(b)


def hermitian_offdiag(M: TridiagonalMatrix, theta) -> np.ndarray:
    """Superdiagonal h_j of Re(e^{i theta} M), a Hermitian tridiagonal matrix.

    theta may be an array of angles; the result then has shape
    theta.shape + (n - 1,).
    """
    w = np.exp(1j * theta)
    if np.ndim(w):  # one row of h per angle
        w = w[..., None]
    b = np.asarray(M.b)
    c = np.asarray(M.c)
    return (w * b + np.conj(w * c)) / 2.0


def phase_diagonal(M: TridiagonalMatrix, theta) -> np.ndarray:
    """Unit diagonal D with D* Re(e^{i theta} M) D real symmetric tridiagonal.

    Eigenvectors of the realified pencil map back through v = D w.  theta
    may be an array of angles; the result then has shape theta.shape + (n,).
    """
    h = hermitian_offdiag(M, theta)
    mod = np.abs(h)
    # d_{j+1} / d_j = conj(h_j) / |h_j|, or 1 where h_j vanishes
    ratio = np.divide(np.conj(h), mod, out=np.ones_like(h), where=mod > 0)
    first = np.ones(h.shape[:-1] + (1,), dtype=complex)
    return np.concatenate([first, np.cumprod(ratio, axis=-1)], axis=-1)


def snap_offdiag(M: TridiagonalMatrix, mod: np.ndarray) -> np.ndarray:
    """The moduli |h_j| with rounding noise snapped to exact zeros.

    An entry at or below 8e-16 max(1, |b_j| + |c_j|) is zero in exact
    arithmetic at a hermitian-degenerate angle, so the eigensolver sees
    genuinely decoupled blocks.  Returns a new array.
    """
    scale = np.abs(np.asarray(M.b)) + np.abs(np.asarray(M.c))
    return np.where(mod <= 8e-16 * np.maximum(1.0, scale), 0.0, mod)


def realified_offdiag(M: TridiagonalMatrix, theta) -> np.ndarray:
    """Off-diagonal |h_j| of the realified pencil, for one angle or an array,
    snapped by snap_offdiag."""
    return snap_offdiag(M, np.abs(hermitian_offdiag(M, theta)))


def realified_pencil(M: TridiagonalMatrix, theta: float) -> SymTridiagonal:
    """Real symmetric tridiagonal matrix co-spectral with Re(e^{i theta} M).

    Diagonal entries are Re(e^{i theta} a); off-diagonal entries are the
    moduli |h_j| of the Hermitian pencil's superdiagonal, which a diagonal
    phase similarity removes without touching the spectrum.
    """
    d0 = float(np.real(np.exp(1j * theta) * M.a))
    return SymTridiagonal(d=(d0,) * M.n, e=tuple(realified_offdiag(M, theta)))

