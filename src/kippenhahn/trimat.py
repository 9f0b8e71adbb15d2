"""Tridiagonal matrices with constant main diagonal and their reciprocal subclass.

A matrix here is determined by (n, a, b, c): size, the scalar main diagonal,
and the super-/subdiagonal entry vectors.  "Reciprocal" means a = 0 and
b_j * c_j = 1 for every j; that class is closed under the A_j parameters
A_j = (|b_j|^2 + |c_j|^2) / 2, which are a complete unitary invariant for
everything computed downstream.  pencil is the one reduction of
Re(e^{i theta} M) to a real d0 I + tridiag(e), from the real products of
pencil_products; realified_pencil and phase_diagonal read it.  NumPy is
imported by the array builders (dense, pencil_products, pencil,
phase_diagonal) on first call, so the parameter layer loads without it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction

RECIPROCAL_TOL = 1e-12
# pencil snaps e_j to 0 at or below SPLIT_TOL (|b_j| + |c_j|)
SPLIT_TOL = 8e-16
# slack in comparing A_j with the floor 1, with 1, and (relative) with each other
PARAM_TOL = 1e-12
FLOAT_MAX = sys.float_info.max


# the bounds on A_j as exact integer ratios, for exact entries:
# 1 - PARAM_TOL = _FLOOR_NUM / _FLOOR_DEN, FLOAT_MAX = _MAX_INT
_FLOOR_NUM, _FLOOR_DEN = (1.0 - PARAM_TOL).as_integer_ratio()
_MAX_INT = int(FLOAT_MAX)


def _real(v):
    """v as every real input is read: int, Fraction and float (tested first)
    as they are, other rationals as int or Fraction, other reals as float;
    TypeError on str, bytes, bool, complex and Decimal, ValueError on nan, inf."""
    cls = type(v)
    if cls is not float:
        if cls is int or cls is Fraction:
            return v
        if cls is bool or not isinstance(v, numbers.Real):
            raise TypeError(f"cannot take {cls.__name__} as a real number")
        if isinstance(v, numbers.Rational):
            return int(v) if v.denominator == 1 else Fraction(int(v.numerator), int(v.denominator))
        v = float(v)
    if not math.isfinite(v):
        raise ValueError(f"cannot take the non-finite value {v} as a real number")
    return v


def _ratio(v):
    """(numerator, denominator) of _real(v) as Python ints."""
    return _real(v).as_integer_ratio()


class ZeroSuperdiagonal(ValueError):
    """A reciprocal matrix needs every superdiagonal entry nonzero."""


class NotReciprocal(ValueError):
    """Operation defined only for reciprocal matrices."""


class InvalidParam(ValueError):
    """Parameters must be finite, and A_j parameters must satisfy A_j >= 1."""


def _entry(v, name, j=0):
    """A matrix entry (a, or name_j for j > 0) as a finite complex number.
    It takes numbers.Complex values other than bool, complex and float
    tested first; text, bytes, bool and Decimal raise InvalidParam."""
    if type(v) is complex or type(v) is float or (
            type(v) is not bool and isinstance(v, numbers.Complex)):
        v = complex(v)
        if cmath.isfinite(v):
            return v
        what = "is not finite"
    else:
        what = "is not a number"
    where = f"entry {name}_{j}" if j else "diagonal entry a"
    raise InvalidParam(f"{where} = {v!r} {what}")


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
        object.__setattr__(self, "a", _entry(self.a, "a"))
        for name in ("b", "c"):
            entries = tuple([_entry(v, name, j) for j, v in enumerate(getattr(self, name), 1)])
            object.__setattr__(self, name, entries)

    @classmethod
    def _unchecked(cls, n, a, b, c):
        """The matrix with entries that __post_init__ would leave as they
        are: a complex, b and c tuples of n - 1 finite complex numbers."""
        M = cls.__new__(cls)
        for name, v in (("n", n), ("a", a), ("b", b), ("c", c)):
            object.__setattr__(M, name, v)
        return M

    @property
    def is_reciprocal(self) -> bool:
        if self.a != 0:
            return False
        return all(abs(bj * cj - 1.0) <= RECIPROCAL_TOL
                   for bj, cj in zip(self.b, self.c))

    def dense(self) -> np.ndarray:
        """Dense complex ndarray; n is small everywhere in this package."""
        import numpy as np

        M = np.zeros((self.n, self.n), dtype=complex)
        np.fill_diagonal(M, self.a)
        for j in range(self.n - 1):
            M[j, j + 1] = self.b[j]
            M[j + 1, j] = self.c[j]
        return M


@dataclass(frozen=True)
class ReciprocalParams:
    """The vector A_j = (|b_j|^2 + |c_j|^2)/2 of a reciprocal matrix.

    Entries are read by _real: rationals (NumPy ints too) stay exact, other
    reals become float, and str, bytes, bool, complex and Decimal entries
    raise InvalidParam.  The matrix size n is len(A) + 1.
    """

    A: tuple
    # set where an exact A_j is above the largest float: generating_poly
    # takes it exactly, the float paths raise ValueError
    past_float_range = False

    def __post_init__(self):
        A = list(self.A)
        # nan fails every comparison and inf the upper one; exact entries
        # meet the bounds as exact rationals
        for j, v in enumerate(A):
            try:
                A[j] = v = v if type(v) is float else _real(v)
            except TypeError:
                raise InvalidParam(f"A_{j + 1} = {v!r} is not a real number") from None
            except ValueError:  # a non-finite NumPy float
                v = math.nan
            if not (1.0 - PARAM_TOL <= v <= FLOAT_MAX if type(v) is float
                    else v.numerator * _FLOOR_DEN >= _FLOOR_NUM * v.denominator):
                raise InvalidParam(f"finite A_j >= 1 required, got {self.A}")
            if type(v) is not float and v.numerator > _MAX_INT * v.denominator:
                object.__setattr__(self, "past_float_range", True)
        object.__setattr__(self, "A", tuple(A))

    @property
    def n(self) -> int:
        return len(self.A) + 1

    def check_float_range(self):
        """ValueError where an exact A_j is past the float range.  Every
        float path calls it: params_to_matrix, and each classifier through
        all_ones or all_equal."""
        if self.past_float_range:
            raise ValueError("an exact A_j is past the float range")

    @property
    def all_equal(self) -> bool:
        self.check_float_range()
        return max(self.A) - min(self.A) <= PARAM_TOL * max(1.0, max(self.A))

    @property
    def all_ones(self) -> bool:
        self.check_float_range()
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
        import numpy as np

        T = np.diag(np.asarray(self.d, dtype=float))
        for j, ej in enumerate(self.e):
            T[j, j + 1] = T[j + 1, j] = ej
        return T


def build_reciprocal(b) -> TridiagonalMatrix:
    """Reciprocal matrix with superdiagonal b and subdiagonal 1/b."""
    b = [_entry(v, "b", j) for j, v in enumerate(b, 1)]
    if any(v == 0 for v in b):
        raise ZeroSuperdiagonal("all superdiagonal entries must be nonzero")
    c = [1.0 / v for v in b]
    return TridiagonalMatrix(n=len(b) + 1, a=0.0, b=tuple(b), c=tuple(c))


def a_params(M: TridiagonalMatrix) -> ReciprocalParams:
    """A_j parameters of a reciprocal matrix; raises NotReciprocal otherwise."""
    if not M.is_reciprocal:
        raise NotReciprocal("A_j parameters are defined for reciprocal matrices only")
    # (|b|/2)|b| is finite wherever A_j is; |b|^2 overflows past |b| = 1.3e154
    A = [abs(bj) / 2 * abs(bj) + abs(cj) / 2 * abs(cj) for bj, cj in zip(M.b, M.c)]
    return ReciprocalParams(A=tuple(A))


def params_to_matrix(p: ReciprocalParams) -> TridiagonalMatrix:
    """Canonical positive-real representative with the given A_j parameters.

    b_j = sqrt((A_j + 1)/2) + sqrt((A_j - 1)/2), whose square is
    A_j + sqrt(A_j^2 - 1), gives |b_j|^2 + |b_j|^-2 = 2 A_j without forming
    A_j^2, which overflows past about 1.3e154 and loses digits near 1; the
    phase of b_j is immaterial for every classifier, so the real positive
    choice is fixed once and for all.
    """
    p.check_float_range()
    b = []
    for Aj in p.A:
        Aj = float(Aj)
        b.append(complex(math.sqrt((Aj + 1.0) / 2) + math.sqrt(max(Aj - 1.0, 0.0) / 2)))
    # each b_j is a finite float of about 1 or more, so b_j and 1 / b_j are
    # finite and nonzero: build_reciprocal's checks would pass them unchanged
    return TridiagonalMatrix._unchecked(len(b) + 1, 0j, tuple(b), tuple([1.0 / v for v in b]))


def pencil_products(M: TridiagonalMatrix, theta):
    """(w, d0, hr, hi) for the angles theta: w = e^{i theta}, d0 = Re(w a),
    and the real and imaginary parts of the Hermitian superdiagonal
    h_j = (w b_j + conj(w c_j)) / 2 of Re(e^{i theta} M).  For an array
    theta, w and d0 have its shape and hr, hi one more axis of n - 1.  h is
    formed from real products with p = b + c and q = b - c, each correctly
    rounded, so no angle's entries depend on the batch it is in.
    """
    import numpy as np

    w = np.exp(1j * np.asarray(theta, dtype=float))
    b, c = np.asarray(M.b), np.asarray(M.c)
    p, q = b + c, b - c
    cos, sin = w.real[..., None], w.imag[..., None]
    hr = (cos * p.real - sin * p.imag) / 2.0
    hi = (cos * q.imag + sin * q.real) / 2.0
    return w, np.real(w * M.a), hr, hi


def pencil(M: TridiagonalMatrix, theta):
    """The reduction of Re(e^{i theta} M) to d0 I + tridiag(e), as (d0, e, r).

    d0 and h = hr + i hi are those of pencil_products; e_j = |h_j|, snapped
    to 0 at or below SPLIT_TOL (|b_j| + |c_j|) (zero in exact arithmetic at
    a degenerate angle, so the eigensolver sees decoupled blocks; relative
    to the entries, so 2^k M splits at the same angles as M); and
    r_j = conj(h_j) / |h_j| (1 where h_j = 0), the ratios d_{j+1} / d_j of
    the unit diagonal D that makes D* Re(e^{i theta} M) D real.  For an
    array theta, d0 has its shape and e, r one more axis of n - 1.
    """
    import numpy as np

    _, d0, hr, hi = pencil_products(M, theta)
    mod = np.hypot(hr, hi)
    e = np.where(mod <= SPLIT_TOL * (np.abs(M.b) + np.abs(M.c)), 0.0, mod)
    r = np.ones(mod.shape, dtype=complex)
    np.divide(hr, mod, out=r.real, where=mod > 0)
    np.divide(-hi, mod, out=r.imag, where=mod > 0)
    return d0, e, r


def phase_diagonal(M: TridiagonalMatrix, theta) -> np.ndarray:
    """Unit diagonal D with D* Re(e^{i theta} M) D real symmetric tridiagonal.

    Eigenvectors of the realified pencil map back through v = D w.  theta
    may be an array of angles; the result then has shape theta.shape + (n,).
    """
    import numpy as np

    r = pencil(M, theta)[2]
    first = np.ones(r.shape[:-1] + (1,), dtype=complex)
    return np.concatenate([first, np.cumprod(r, axis=-1)], axis=-1)


def realified_pencil(M: TridiagonalMatrix, theta: float) -> SymTridiagonal:
    """Real symmetric tridiagonal matrix co-spectral with Re(e^{i theta} M):
    the d0 I + tridiag(e) of pencil at one angle."""
    d0, e, _ = pencil(M, theta)
    return SymTridiagonal(d=(float(d0),) * M.n, e=tuple(e))
