"""Exact polynomial layer: generating polynomials, linear division, resultants.

The generating polynomial of a reciprocal n-by-n matrix, written in
zeta = lambda^2 and tau = cos(2 theta), is monic in zeta of degree
floor(n/2) with coefficients that are polynomials in the A_j parameters.
The exact layer has one number format, Python integers over one
denominator: trimat._ratio takes a real input exactly (a float at its
binary value) after trimat._real, the package's one accept set, has read
it; _cleared puts a list of inputs over the lcm of their denominators, and
a BivariatePoly holds integer tau-coefficient rows over one D.  The
n = 6 factor test substitutes zeta = x tau + z (substitution_tau_coeffs,
a binomial expansion), eliminates z against the tau^2-coefficient, which
is linear in z (so the resultant is a substitution), and reduces modulo
the slope cubic; those stages and divide_by_linear run on integer lists
and build one Fraction per returned coefficient.  A value at float inputs
is the exact value at their binary values, rounded once to the nearest
float (BivariatePoly.eval, eval_residual).  Floating-point arithmetic
enters only at root finding and in det_pencil, the numeric determinant
used as an independent oracle, which works on the matrix entries rather
than trimat's pencil.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .trimat import ReciprocalParams, TridiagonalMatrix, _ratio, _real

_ZERO = Fraction(0)


class DegenerateInput(ValueError):
    """Resultant input that is the zero polynomial."""


def _cleared(values):
    """(integers, L), values[i] == integers[i] / L, L the lcm of denominators."""
    ratios = [_ratio(v) for v in values]
    L = math.lcm(*(d for _, d in ratios))
    return [num * (L // d) for num, d in ratios], L


def _rounded(num, den):
    """num / den rounded once to the nearest float (den > 0); a value past
    the float range rounds to a signed infinity, as in float arithmetic."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


class UniPoly:
    """Dense univariate polynomial; coefficients may be exact rationals,
    floats, or UniPoly instances in another variable (for the tower Q[x][z])."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        cs = list(coeffs)
        while cs and (cs[-1].is_zero if isinstance(cs[-1], UniPoly) else cs[-1] == 0):
            cs.pop()
        self.var = var
        self.coeffs = tuple(cs)

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

    def __repr__(self):
        return f"UniPoly({self.var!r}, {list(self.coeffs)!r})"


@dataclass(frozen=True)
class BivariatePoly:
    """P(zeta, tau) = sum_i p_i(tau) zeta^i, whose zeta^i tau^j coefficient
    is rows[i][j] / D, with integer rows and D > 0.  The constructor puts
    (D, rows) in lowest terms and trims trailing zeros, so equality and
    hashing are those of the polynomial.  For an n-by-n reciprocal matrix
    the generating polynomial is monic of zeta-degree floor(n/2), and for
    odd n the discarded -lambda factor is recorded in origin_component.
    """

    D: int
    rows: tuple  # one integer tau-coefficient tuple per zeta power
    origin_component: bool = False
    n: int = 0

    def __post_init__(self):
        rows = [list(row) for row in self.rows]
        for row in rows:
            while row and not row[-1]:
                row.pop()
        g = math.gcd(self.D, *(c for row in rows for c in row))
        object.__setattr__(self, "D", self.D // g)
        object.__setattr__(self, "rows", tuple(tuple(c // g for c in row) for row in rows))

    @property
    def zeta_coeffs(self):
        """The rows as UniPoly in tau over Fraction, index = zeta power."""
        return tuple(UniPoly("tau", [Fraction(c, self.D) for c in row]) for row in self.rows)

    @property
    def deg_zeta(self):
        return len(self.rows) - 1

    @property
    def deg_tau(self):
        return max(len(row) for row in self.rows) - 1 if self.rows else -1

    def coeff(self, i, j):
        """Exact coefficient of zeta^i tau^j."""
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return Fraction(self.rows[i][j], self.D)
        return Fraction(0)

    def coeff_table(self):
        return [[self.coeff(i, j) for j in range(self.deg_tau + 1)]
                for i in range(self.deg_zeta + 1)]

    def _value_ratio(self, zn, zd, tn, td):
        """Integers (N, E), E > 0, with P(zn / zd, tn / td) = N / E.

        Homogeneous Horner: each row gives sum_j c_ij tn^j td^(m-j), m the
        tau-degree bound, and the rows combine as sum_i H_i zn^i zd^(k-i).
        """
        rows, k, m = self.rows, len(self.rows) - 1, max(self.deg_tau, 0)
        tpow = [1]
        for _ in range(m):
            tpow.append(tpow[-1] * td)
        zpow = [1]
        for _ in range(k):
            zpow.append(zpow[-1] * zd)
        total = 0
        for i in range(k, -1, -1):
            row, h = rows[i], 0
            for j in range(len(row) - 1, -1, -1):
                h = h * tn + row[j] * tpow[m - j]
            total = total * zn + h * zpow[k - i]
        return total, self.D * tpow[m] * zpow[k]

    def eval(self, zeta, tau):
        """P(zeta, tau), exact at the inputs.

        A Fraction for rational inputs (NumPy ints included); otherwise the
        exact value at the inputs' binary values, rounded once to the
        nearest float.  Inputs are read by trimat._real: a nan or inf raises
        ValueError; str, bytes, bool, complex and Decimal raise TypeError.
        """
        zeta, tau = _real(zeta), _real(tau)
        num, den = self._value_ratio(*zeta.as_integer_ratio(), *tau.as_integer_ratio())
        if type(zeta) is not float and type(tau) is not float:
            return Fraction(num, den)
        return _rounded(num, den)


def generating_poly(p: ReciprocalParams) -> BivariatePoly:
    """Generating polynomial of the reciprocal matrix with parameters p.

    Runs the tridiagonal determinant recursion with the squared
    off-diagonal beta_j = (A_j + tau)/2, splitting off one factor of
    -lambda whenever the size is odd, so only even powers of lambda
    (i.e. powers of zeta) ever appear.  The recursion runs on Python
    integers: with L the lcm of the denominators of the A_j, it uses
    2 L beta_j = L A_j + L tau in place of beta_j.  It is
    weight-homogeneous (the zeta^i coefficient of the m-by-m section has
    beta-degree floor(m/2) - i), so the integer zeta^i row is
    (2L)^(floor(n/2) - i) times the true one; times (2L)^i, every row is
    over the one denominator (2L)^floor(n/2).
    """
    if p.n < 2:
        raise ValueError("n >= 2 required")
    LA, L = _cleared(p.A)
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
    two_l, sign = 2 * L, 1 if p.n % 2 == 0 else -1
    rows = [[sign * two_l ** i * c for c in q] for i, q in enumerate(g_cur)]
    return BivariatePoly(two_l ** (p.n // 2), rows, origin_component=(p.n % 2 == 1), n=p.n)


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

    The polynomial is evaluated exactly at zeta = lambda^2 and
    tau = cos(2 theta), premultiplied by -lambda for odd n, and rounded
    once; only det_pencil's recursion and the final difference are float.
    """
    ln, ld = _ratio(lam)
    num, den = P._value_ratio(ln * ln, ld * ld, *_ratio(math.cos(2 * theta)))
    if P.origin_component:
        num, den = -ln * num, ld * den
    pval = _rounded(num, den)
    dval = det_pencil(M, theta, float(lam))
    return abs(pval - dval) / max(1.0, abs(pval), abs(dval))


def divide_by_linear(P: BivariatePoly, x, z):
    """Synthetic division of P by zeta - (x tau + z).

    Returns (quotient, remainder); the remainder is P(x tau + z, tau) as a
    polynomial in tau with Fraction coefficients, exact for every input
    that _ratio takes (floats at their binary values).
    """
    (Z, X), e = _cleared((z, x))
    rows, k = P.rows, len(P.rows) - 1
    # carry_i = p_i + (x tau + z) carry_(i+1), carry_k = p_k, held as integers
    # C_i = carry_i D e^(k-i); carry_(i+1) is the quotient's row i, which over
    # the quotient's denominator D e^(k-1) is C_(i+1) e^i
    carry, quo, epow = list(rows[k]), [], 1
    for i in range(k - 1, -1, -1):
        quo.append(carry)
        epow *= e
        carry = _int_add([c * epow for c in rows[i]], _int_mul([Z, X], carry))
    quo = [[c * e ** i for c in row] for i, row in enumerate(reversed(quo))]
    quotient = BivariatePoly(P.D * e ** max(k - 1, 0), quo, P.origin_component, P.n)
    return quotient, UniPoly("tau", [Fraction(c, P.D * epow) for c in carry])


def substitution_tau_coeffs(P: BivariatePoly):
    """Coefficients of tau^k in P(x tau + z, tau) with x and z symbolic.

    Returns a list indexed by tau power 0..deg_zeta + 1; each entry is a
    UniPoly in z whose coefficients are UniPoly in x over the rationals.
    By the binomial expansion of sum_ij p_ij tau^j (x tau + z)^i, the
    coefficient of tau^k z^a x^l is C(a + l, l) p_{a+l, k-l}.  This is the
    exact front half of the resultant pipeline.
    """
    rows, D = P.rows, P.D
    kmax = len(rows) - 1

    def coeff(a, l, k):  # C(a + l, l) p_{a+l, k-l}, one Fraction
        row, j = rows[a + l], k - l
        if j >= len(row) or not row[j]:
            return _ZERO
        return Fraction(math.comb(a + l, l) * row[j], D)

    return [UniPoly("z", [UniPoly("x", [coeff(a, l, k) for l in range(min(k, kmax - a) + 1)])
                          for a in range(kmax + 1)])
            for k in range(kmax + 2)]


def resultant_in_z(f: UniPoly, g: UniPoly) -> UniPoly:
    """Resultant with respect to z of a linear f = f1 z + f0 and any g.

    Coefficients of f and g are polynomials in x (or rationals); the
    result is the UniPoly in x sum_k g_k (-f0)^k f1^(n-k), n = deg g: the
    Sylvester determinant with the f-rows first, which for monic
    f = z - a is g(a).  The n = 6 pipeline eliminates z only against the
    tau^2-coefficient q11 z + q10, which is linear in z.  The sum runs on
    integer coefficient lists, f's and g's each over their own common
    denominator, and ends in one Fraction per coefficient.
    """
    if f.is_zero or g.is_zero:
        raise DegenerateInput("resultant of the zero polynomial")
    if f.degree != 1:
        raise ValueError(f"resultant_in_z needs f linear in z, got degree {f.degree}")

    (F0, F1), df = _integer_x_polys(f.coeffs)
    G, dg = _integer_x_polys(g.coeffs)
    neg_f0 = [-c for c in F0]
    out, f1_power = G[-1], [1]
    for c in reversed(G[:-1]):  # Horner in -f0, homogenised by f1
        f1_power = _int_mul(f1_power, F1)
        out = _int_add(_int_mul(out, neg_f0), _int_mul(c, f1_power))
    den = dg * df ** (len(G) - 1)
    return UniPoly("x", [Fraction(c, den) for c in out])


def _integer_x_polys(coeffs):
    """Integer coefficient lists of x-polynomials (or rationals) over their
    least common denominator d, as (lists, d)."""
    polys = [c.coeffs if isinstance(c, UniPoly) else (c,) for c in coeffs]
    ints, d = _cleared([a for p in polys for a in p])
    it = iter(ints)
    return [[next(it) for _ in p] for p in polys], d


def _int_mul(a, b):
    """Product of two integer coefficient lists, ascending."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int_add(a, b):
    """Sum of two integer coefficient lists, ascending."""
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b):]


def reduce_mod_cubic(f: UniPoly) -> UniPoly:
    """Remainder of f in x modulo 8x^3 - 20x^2 + 12x - 1, exact arithmetic.

    Rewrites x^3 = (20x^2 - 12x + 1)/8 from the top degree down on f's
    integer numerators, times 8 per step up front so each division is exact.
    """
    if f.var != "x":
        raise ValueError(f"reduce_mod_cubic takes a polynomial in x, got {f.var!r}")
    cs, d = _cleared(f.coeffs)
    shift = 3 * max(len(cs) - 3, 0)
    cs = [c << shift for c in cs]
    for k in range(len(cs) - 1, 2, -1):
        top = cs[k] >> 3
        cs[k - 1] += 20 * top
        cs[k - 2] -= 12 * top
        cs[k - 3] += top
    return UniPoly("x", [Fraction(c, d << shift) for c in cs[:3]])


# The roots of 8 x^3 - 20 x^2 + 12 x - 1 ascending, the tau-slopes of the
# candidate linear factors for n = 6: 1 + cos(2 j pi / 7), j = 3, 2, 1.
# np.roots polished by three Newton steps, written out so that importing the
# package makes no LAPACK call (tests/test_nrpoly.py recomputes them).
_CUBIC_ROOTS = (0.09903113209758087, 0.7774790660436857, 1.6234898018587336)


def cubic_roots():
    """Roots of 8x^3 - 20x^2 + 12x - 1 ascending, Newton-polished floats.

    A constant: every call returns the same tuple.
    """
    return _CUBIC_ROOTS
