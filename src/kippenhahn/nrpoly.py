"""Exact polynomial layer: generating polynomials, linear division, resultants.

The generating polynomial of a reciprocal n-by-n matrix, written in
zeta = lambda^2 and tau = cos(2 theta), is monic in zeta of degree
floor(n/2) with coefficients that are polynomials in the A_j parameters.
generating_poly runs the determinant recursion on Python integers, with
the A_j over the lcm L of their denominators, and divides each
coefficient by its power of 2L once at the end.  The n = 6 factor test
substitutes zeta = x tau + z (substitution_tau_coeffs, a binomial
expansion), eliminates z against the tau^1-coefficient, which is linear
in z (so the resultant is a substitution), and reduces the result modulo
the slope cubic by rewriting x^3.  Everything in this module runs in
exact rational arithmetic (fractions convert floats losslessly);
floating point enters only at root finding and in det_pencil, the
numeric determinant used as an independent oracle, which works on the
matrix entries rather than trimat's pencil.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .trimat import ReciprocalParams, TridiagonalMatrix

# 8 x^3 - 20 x^2 + 12 x - 1, ascending coefficients.  Its roots are the
# tau-slopes of the candidate linear factors for n = 6; they coincide with
# 1 + cos(2 j pi / 7) = 2 cos^2(j pi / 7), j = 3, 2, 1.
CUBIC_COEFFS = (Fraction(-1), Fraction(12), Fraction(-20), Fraction(8))
_ZERO = Fraction(0)


class DegenerateInput(ValueError):
    """Resultant input that is the zero polynomial."""


def _to_exact(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(v)  # exact binary-to-rational conversion
    raise TypeError(f"cannot convert {type(v).__name__} to exact rational")


def _is_zero(c):
    if isinstance(c, UniPoly):
        return c.is_zero
    return c == 0


class UniPoly:
    """Dense univariate polynomial; coefficients may be exact rationals,
    floats, or UniPoly instances in another variable (for the tower Q[x][z])."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, var, value):
        return cls(var, [value])

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def _coerce(self, other):
        if isinstance(other, UniPoly) and other.var == self.var:
            return other
        # scalars and polynomials in another variable embed as constants
        return UniPoly(self.var, [other])

    def __add__(self, other):
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        return UniPoly(self.var, [self.coeff(k) + o.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return UniPoly(self.var, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, UniPoly) or other.var != self.var:
            return UniPoly(self.var, [c * other for c in self.coeffs])
        if self.is_zero or other.is_zero:
            return UniPoly(self.var, [])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return UniPoly(self.var, out)

    def __rmul__(self, other):
        return UniPoly(self.var, [other * c for c in self.coeffs])

    def __eq__(self, other):
        if isinstance(other, UniPoly):
            return self.var == other.var and self.coeffs == other.coeffs
        return self.degree <= 0 and self.coeff(0) == other

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def __call__(self, value):
        """Horner evaluation; value may itself be a ring element."""
        result = 0
        for c in reversed(self.coeffs):
            result = result * value + c
        return result

    def map_coeffs(self, f):
        return UniPoly(self.var, [f(c) for c in self.coeffs])

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"


@dataclass(frozen=True)
class BivariatePoly:
    """P(zeta, tau) = sum_i p_i(tau) zeta^i with exact coefficients.

    For an n-by-n reciprocal matrix the generating polynomial is monic of
    zeta-degree floor(n/2), and for odd n the discarded -lambda factor is
    recorded in origin_component.
    """

    zeta_coeffs: tuple  # tuple of UniPoly in tau, index = zeta power
    origin_component: bool = False
    n: int = field(default=0)

    @property
    def deg_zeta(self):
        return len(self.zeta_coeffs) - 1

    @property
    def deg_tau(self):
        return max((p.degree for p in self.zeta_coeffs if not p.is_zero), default=-1)

    def coeff(self, i, j):
        """Exact coefficient of zeta^i tau^j."""
        if 0 <= i < len(self.zeta_coeffs):
            return self.zeta_coeffs[i].coeff(j)
        return Fraction(0)

    def coeff_table(self):
        return [[self.coeff(i, j) for j in range(self.deg_tau + 1)]
                for i in range(self.deg_zeta + 1)]

    def eval(self, zeta, tau):
        result = 0.0 if isinstance(zeta, float) or isinstance(tau, float) else Fraction(0)
        for p in reversed(self.zeta_coeffs):
            result = result * zeta + p(tau)
        return result


def generating_poly(p: ReciprocalParams) -> BivariatePoly:
    """Generating polynomial of the reciprocal matrix with parameters p.

    Runs the tridiagonal determinant recursion with the squared
    off-diagonal beta_j = (A_j + tau)/2, splitting off one factor of
    -lambda whenever the size is odd, so only even powers of lambda
    (i.e. powers of zeta) ever appear.  The recursion runs on Python
    integers: with L the lcm of the denominators of the A_j, it uses
    2 L beta_j = L A_j + L tau in place of beta_j.  It is
    weight-homogeneous (the zeta^i coefficient of the m-by-m section has
    beta-degree floor(m/2) - i), so the integer zeta^i coefficient is
    (2L)^(floor(n/2) - i) times the true one, and each output coefficient
    is one Fraction over that power.
    """
    if p.n < 2:
        raise ValueError("n >= 2 required")
    A = [_to_exact(Aj) for Aj in p.A]
    L = math.lcm(*(a.denominator for a in A))
    LA = [L // a.denominator * a.numerator for a in A]
    # G[m] = -zeta^(1 - m mod 2) G[m-1] - (L A_j + L tau) G[m-2] as integer
    # tau-coefficient lists per zeta power, the ith of degree floor(m/2) - i
    g_prev, g_cur = [[1]], [[-1]]
    for m in range(2, p.n + 1):
        shifted = [[0] * (m // 2 + 1)] + g_cur if m % 2 == 0 else g_cur
        la = LA[m - 2]
        g_next = []
        for i, q in enumerate(shifted):
            out = [-c for c in q]
            if i < len(g_prev):
                for j, c in enumerate(g_prev[i]):
                    out[j] -= la * c
                    out[j + 1] -= L * c
            g_next.append(out)
        g_prev, g_cur = g_cur, g_next
    sign = 1 if p.n % 2 == 0 else -1
    k, two_l = p.n // 2, 2 * L
    coeffs = tuple(UniPoly("tau", [Fraction(sign * c, two_l ** (k - i)) for c in q])
                   for i, q in enumerate(g_cur))
    return BivariatePoly(zeta_coeffs=coeffs, origin_component=(p.n % 2 == 1), n=p.n)


def det_pencil(M: TridiagonalMatrix, theta: float, lam: float) -> float:
    """det(Re(e^{i theta} M) - lambda I) by the tridiagonal three-term recursion,
    on M's own entries (2 h_j = w b_j + conj(w c_j), w = e^{i theta}) rather
    than trimat.pencil, so the oracle stays independent of the sampler's."""
    w = cmath.exp(1j * theta)
    d = (w * M.a).real - lam
    dm2, dm1 = 1.0, d
    for bj, cj in zip(M.b, M.c):
        h2 = w * bj + (w * cj).conjugate()
        dm2, dm1 = dm1, d * dm1 - abs(h2) ** 2 / 4.0 * dm2
    return dm1


def eval_residual(P: BivariatePoly, M: TridiagonalMatrix, theta: float, lam: float) -> float:
    """Relative gap between the polynomial and the numeric pencil determinant.

    For odd n the polynomial is premultiplied by -lambda before comparison.
    """
    tau = math.cos(2 * theta)
    pval = float(P.eval(float(lam) ** 2, tau))
    if P.origin_component:
        pval *= -lam
    dval = det_pencil(M, theta, lam)
    return abs(pval - dval) / max(1.0, abs(pval), abs(dval))


def divide_by_linear(P: BivariatePoly, x, z):
    """Synthetic division of P by zeta - (x tau + z).

    Returns (quotient, remainder); the remainder is P(x tau + z, tau) as a
    polynomial in tau.  Exact when x and z are rational; float otherwise.
    """
    if isinstance(x, float) or isinstance(z, float):
        lin = UniPoly("tau", [float(z), float(x)])
        conv = lambda q: q.map_coeffs(float)
    else:
        lin = UniPoly("tau", [_to_exact(z), _to_exact(x)])
        conv = lambda q: q
    ps = [conv(q) for q in P.zeta_coeffs]
    k = len(ps) - 1
    quo = [None] * k
    carry = ps[k]
    for i in range(k - 1, -1, -1):
        quo[i] = carry
        carry = ps[i] + lin * carry
    quotient = BivariatePoly(zeta_coeffs=tuple(quo), origin_component=P.origin_component, n=P.n)
    return quotient, carry


def substitution_tau_coeffs(P: BivariatePoly):
    """Coefficients of tau^k in P(x tau + z, tau) with x and z symbolic.

    Returns a list indexed by tau power 0..deg_zeta + 1; each entry is a
    UniPoly in z whose coefficients are UniPoly in x over the rationals.
    By the binomial expansion of sum_ij p_ij tau^j (x tau + z)^i, the
    coefficient of tau^k z^a x^l is C(a + l, l) p_{a+l, k-l}.  This is the
    exact front half of the resultant pipeline.
    """
    rows = [q.coeffs for q in P.zeta_coeffs]
    kmax = len(rows) - 1

    def coeff(a, l, k):  # C(a + l, l) p_{a+l, k-l}, one Fraction
        row, j = rows[a + l], k - l
        if j >= len(row) or not row[j]:
            return _ZERO
        c, binom = row[j], math.comb(a + l, l)
        return c if binom == 1 else Fraction(binom * c.numerator, c.denominator)

    return [UniPoly("z", [UniPoly("x", [coeff(a, l, k) for l in range(min(k, kmax - a) + 1)])
                          for a in range(kmax + 1)])
            for k in range(kmax + 2)]


def resultant_in_z(f: UniPoly, g: UniPoly) -> UniPoly:
    """Resultant with respect to z of a linear f = f1 z + f0 and any g.

    Coefficients of f and g are polynomials in x (or rationals); the
    result is the UniPoly in x sum_k g_k (-f0)^k f1^(n-k), n = deg g: the
    Sylvester determinant with the f-rows first, which for monic
    f = z - a is g(a).  The n = 6 pipeline eliminates z only against the
    tau^1-coefficient, which is linear in z.
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInput("resultant of the zero polynomial")
    if f.degree != 1:
        raise ValueError(f"resultant_in_z needs f linear in z, got degree {f.degree}")

    def as_x(c):
        return c if isinstance(c, UniPoly) else UniPoly.const("x", _to_exact(c))

    f0, f1 = map(as_x, f.coeffs)
    out, f1_power = as_x(g.coeffs[-1]), UniPoly.const("x", Fraction(1))
    for c in reversed(g.coeffs[:-1]):  # Horner in -f0, homogenised by f1
        f1_power = f1_power * f1
        out = out * -f0 + as_x(c) * f1_power
    return out


def reduce_mod_cubic(f: UniPoly) -> UniPoly:
    """Remainder of f in x modulo 8x^3 - 20x^2 + 12x - 1, exact arithmetic.

    Rewrites x^3 = (20x^2 - 12x + 1)/8 from the top degree down.
    """
    if f.var != "x":
        raise ValueError(f"reduce_mod_cubic takes a polynomial in x, got {f.var!r}")
    *low, lead = CUBIC_COEFFS
    cs = [_to_exact(c) for c in f.coeffs]
    for k in range(len(cs) - 1, 2, -1):
        top = cs[k] / lead
        for i, ci in enumerate(low):
            cs[k - 3 + i] -= top * ci
    return UniPoly("x", cs[:3])


# The roots of CUBIC_COEFFS ascending: np.roots polished by three Newton
# steps, written out so that importing the package makes no LAPACK call
# (tests/test_nrpoly.py recomputes them bit for bit).
_CUBIC_ROOTS = (0.09903113209758087, 0.7774790660436857, 1.6234898018587336)


def cubic_roots():
    """Roots of 8x^3 - 20x^2 + 12x - 1 ascending, Newton-polished floats.

    A constant: every call returns the same tuple.
    """
    return _CUBIC_ROOTS
