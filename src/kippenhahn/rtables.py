"""Closed-form coefficient tables for the 6-by-6 ellipticity criteria.

Two reduced resultants, R1 and R2, govern whether the degree-3 generating
polynomial acquires a linear factor at a root of the slope cubic.  Their
coefficients in x and the three-ellipse conditions are ten polynomials in
(A_1, ..., A_5) that read A only through the six sums ``p6_sums`` of the
generating polynomial P6.  So do the forms the n = 6 classifier reads:
``_tau_coeffs``, the tau-coefficients of P6(x tau + z, tau), and
``_center_z``, the one constant z a factor zeta - (x tau + z) can have.
The three three-ellipse conditions are the one hand-written set, integer
forms in the six sums (``_ell3_forms``); R1's and R2's six coefficients
follow from them (``_r_from_ell3``).  These are the
source: ``resultant_quadratics`` and ``ell3_residuals`` evaluate them at
the integers L A_j (L the lcm of the denominators of the A_j) and divide
once, exact for any input; the corrected tables (``R1_X*``, ``R2_X*``,
``ELL3_*``, keyed by exponent tuple) are their expansions over monomials at
import.  The tests certify the R1 and R2 so derived against the Sylvester
pipeline, up to the scale factors recorded below.  ``eval_table`` and
``grad_table`` evaluate any table in the arithmetic of its input.

The published tables (``*_PRINTED``) are transcribed verbatim.  They differ
from the corrected set in exactly four places, all resolved against the
pipeline oracle: one monomial in R1_X1, one sign in R2_X2, and two monomials
in R2_X1 (including a stray degree-six term).

The ``ELL3_*`` tables are two quadratics and one cubic in the A_j, plus the
quadratics' difference: a reciprocal 6-by-6 matrix has a three-ellipse
Kippenhahn curve iff all three vanish and the parameters are not all 1.
They cut out the same set as R1 = R2 = 0 identically in x (the degree-3
parts of the two ideals agree, see the tests), which is what the n = 6
classifier's three passing roots mean, and they certify the manifold
solvers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .nrpoly import _cleared, _rounded
from .trimat import _real


# ---------------------------------------- the six sums of P6, and the forms

def p6_sums(A):
    """(S, T, E2, s1, s2, s3), in A's arithmetic: with beta_j = (A_j + tau) / 2,
    P6 is zeta^3 - (S + 5 tau)/2 zeta^2 + (E2 + T tau + 6 tau^2)/4 zeta
    - (s3 + s2 tau + s1 tau^2 + tau^3)/8, where S = sum A_j, E2 and T sum
    A_i A_j and A_i + A_j over the six pairs i + 1 < j, and s_k are the
    elementary symmetric functions of (A1, A3, A5)."""
    A1, A2, A3, A4, A5 = A
    return (A1 + A2 + A3 + A4 + A5,
            3 * A1 + 2 * A2 + 2 * A3 + 2 * A4 + 3 * A5,
            A1 * (A3 + A4 + A5) + A2 * (A4 + A5) + A3 * A5,
            A1 + A3 + A5, A1 * A3 + (A1 + A3) * A5, A1 * A3 * A5)


def _q11(x):
    """The z-slope of tau^2 in P6(x tau + z, tau): 1.034, -0.574, 1.290 at the roots."""
    return ((6 * x - 10) * x + 3) / 2


def _tau_coeffs(sums, x, z):
    """Coefficients of tau^3, tau^2, tau^1 and tau^0 in P6(x tau + z, tau)
    at numbers x and z, in their arithmetic (exact on Fractions)."""
    S, T, E2, s1, s2, s3 = sums
    return ((((8 * x - 20) * x + 12) * x - 1) / 8,
            _q11(x) * z - S / 2 * x * x + T / 4 * x - s1 / 8,
            ((6 * x - 5) / 2 * z + T / 4 - S * x) * z + E2 / 4 * x - s2 / 8,
            ((z - S / 2) * z + E2 / 4) * z - s3 / 8)


def _center_z(sums, x):
    """The zero of the tau^2 coefficient of P6(x tau + z, tau), the one
    linear in z (tau^3 has s(x) / 8 alone), for any numeric type."""
    S, T, _, s1, _, _ = sums
    return (S / 2 * x * x - T / 4 * x + s1 / 8) / _q11(x)


def _ell3_forms(S, T, E2, s1, s2, s3):
    """(qa, qb, cubic), in the arithmetic of the sums: the three-ellipse
    conditions are qa, qb (degree 2 in A) and cubic / 8 (degree 3)."""
    SS, ST, TT, Ss1, Ts1, s1s1 = S * S, S * T, T * T, S * s1, T * s1, s1 * s1
    return (7 * E2 + 15 * SS - 14 * ST + 6 * Ss1 + 3 * TT - 3 * Ts1 + s1s1,
            3 * SS - 3 * ST + 2 * Ss1 + TT - 3 * Ts1 + 2 * s1s1 + 7 * s2,
            S * (200 * Ss1 - 36 * ST + 34 * TT - 208 * Ts1 + 102 * s1s1 - 2 * s2)
            + T * (46 * Ts1 - 7 * TT - 39 * s1s1 + s2) + s1 * (8 * s1s1 - s2) + 393 * s3)


def _r_from_ell3(sums, qa, qb, cubic):
    """Numerators of R1's coefficients and of 8 R2's (x^2, x^1, x^0 each),
    from ``_ell3_forms`` (qa, qb, cubic) at the same six sums: R1 is a
    combination of qa and qb, and each R2 coefficient is a multiple of the
    cubic plus a linear form times qa (the identities that
    ``test_resultant_tables_span_the_three_ellipse_ideal`` proves)."""
    S, T, _, s1, _, _ = sums
    return (8 * qa - 4 * qb, 6 * (qb - qa), qa - 3 * qb,
            8 * (28 * S - 8 * T + 4 * s1) * qa - 4 * cubic,
            6 * cubic - 8 * (22 * S - 6 * T + 6 * s1) * qa,
            8 * (2 * S - T + 3 * s1) * qa - 2 * cubic)


# ------------------------------- the corrected tables, expanded from the forms

class _Poly(dict):
    """An integer polynomial in A_1..A_5, {exponent tuple: int}, with the
    ring operations the forms use: +, -, * and an int scalar."""

    def __add__(self, other):
        out = _Poly(self)
        for expo, c in other.items():
            out[expo] = out.get(expo, 0) + c
        return out

    def __sub__(self, other):
        return self + -1 * other

    def __mul__(self, other):
        if isinstance(other, int):
            return _Poly({expo: other * c for expo, c in self.items()})
        out = _Poly()
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                expo = tuple(map(add, e1, e2))
                out[expo] = out.get(expo, 0) + c1 * c2
        return out

    __rmul__ = __mul__


def _expanded(forms, denominators):
    """Each form over its denominator as a monomial table: exponent tuples in
    descending order, int values, no zero terms."""
    return tuple({expo: c // d for expo, c in sorted(form.items(), reverse=True) if c}
                 for form, d in zip(forms, denominators))


def _corrected_tables():
    sums = p6_sums([_Poly({tuple(int(i == j) for i in range(5)): 1}) for j in range(5)])
    qa, qb, cubic = _ell3_forms(*sums)
    return (_expanded(_r_from_ell3(sums, qa, qb, cubic), (1, 1, 1, 8, 8, 8))
            + _expanded((qa, qb, cubic, qa - qb), (1, 1, 8, 1)))


(R1_X2, R1_X1, R1_X0, R2_X2, R2_X1, R2_X0,
 ELL3_QUAD_A, ELL3_QUAD_B, ELL3_CUBIC, ELL3_QUAD_DIFF) = _corrected_tables()

R1_TABLES = (R1_X2, R1_X1, R1_X0)
R2_TABLES = (R2_X2, R2_X1, R2_X0)
ELL3_TABLES = (ELL3_QUAD_A, ELL3_QUAD_B, ELL3_CUBIC, ELL3_QUAD_DIFF)


# --------------------------------------------------- the published tables

R1_X2_PRINTED = {
    (2, 0, 0, 0, 0): -8,
    (1, 1, 0, 0, 0): -28,
    (1, 0, 1, 0, 0): 4,
    (1, 0, 0, 1, 0): 28,
    (1, 0, 0, 0, 1): 12,
    (0, 2, 0, 0, 0): -12,
    (0, 1, 1, 0, 0): -8,
    (0, 1, 0, 1, 0): 32,
    (0, 1, 0, 0, 1): 28,
    (0, 0, 2, 0, 0): 4,
    (0, 0, 1, 1, 0): -8,
    (0, 0, 1, 0, 1): 4,
    (0, 0, 0, 2, 0): -12,
    (0, 0, 0, 1, 1): -28,
    (0, 0, 0, 0, 2): -8,
}

R1_X1_PRINTED = {
    (1, 1, 0, 0, 0): 18,
    (1, 0, 1, 0, 0): 6,
    (1, 0, 0, 1, 0): -24,
    (0, 2, 0, 0, 0): 12,
    (0, 1, 0, 1, 0): -18,
    (0, 1, 0, 0, 1): -24,
    (0, 0, 2, 0, 0): -6,
    (0, 0, 1, 0, 1): 24,
    (0, 0, 0, 2, 0): 12,
}

R1_X0_PRINTED = {
    (2, 0, 0, 0, 0): 4,
    (1, 1, 0, 0, 0): -1,
    (1, 0, 1, 0, 0): -7,
    (1, 0, 0, 1, 0): 6,
    (1, 0, 0, 0, 1): -6,
    (0, 2, 0, 0, 0): -4,
    (0, 1, 1, 0, 0): 4,
    (0, 1, 0, 1, 0): -1,
    (0, 1, 0, 0, 1): 6,
    (0, 0, 2, 0, 0): 3,
    (0, 0, 1, 1, 0): 4,
    (0, 0, 1, 0, 1): -7,
    (0, 0, 0, 2, 0): -4,
    (0, 0, 0, 1, 1): -1,
    (0, 0, 0, 0, 2): 4,
}

R2_X2_PRINTED = {
    (3, 0, 0, 0, 0): -12,
    (2, 1, 0, 0, 0): -48,
    (2, 0, 0, 1, 0): 8,
    (2, 0, 0, 0, 1): 20,
    (1, 2, 0, 0, 0): -60,
    (1, 1, 1, 0, 0): -44,
    (1, 1, 0, 1, 0): -20,
    (1, 1, 0, 0, 1): 44,
    (1, 0, 2, 0, 0): 44,
    (1, 0, 1, 1, 0): 68,
    (1, 0, 1, 0, 1): -84,
    (1, 0, 0, 2, 0): 24,
    (1, 0, 0, 1, 1): 44,
    (1, 0, 0, 0, 2): 20,
    (0, 3, 0, 0, 0): -16,
    (0, 2, 1, 0, 0): -36,
    (0, 2, 0, 1, 0): 36,
    (0, 2, 0, 0, 1): 24,
    (0, 1, 2, 0, 0): -24,
    (0, 1, 1, 1, 0): 40,
    (0, 1, 1, 0, 1): 68,
    (0, 1, 0, 2, 0): 36,
    (0, 1, 0, 1, 1): 20,
    (0, 1, 0, 0, 2): 8,
    (0, 0, 3, 0, 0): -4,
    (0, 0, 2, 1, 0): -24,
    (0, 0, 2, 0, 1): 44,
    (0, 0, 1, 2, 0): -36,
    (0, 0, 1, 1, 1): -44,
    (0, 0, 0, 3, 0): -16,
    (0, 0, 0, 2, 1): -60,
    (0, 0, 0, 1, 2): -48,
    (0, 0, 0, 0, 3): -12,
}

R2_X1_PRINTED = {
    (3, 0, 0, 0, 3): 14,
    (2, 1, 0, 0, 0): 48,
    (2, 0, 1, 0, 0): -12,
    (2, 0, 0, 0, 1): -28,
    (2, 0, 0, 0, 0): -22,
    (1, 2, 0, 0, 0): 56,
    (1, 1, 1, 0, 0): 46,
    (1, 1, 0, 1, 0): -28,
    (1, 1, 0, 0, 1): -44,
    (1, 0, 2, 0, 0): -50,
    (1, 0, 1, 1, 0): -66,
    (1, 0, 1, 0, 1): 158,
    (1, 0, 0, 2, 0): -14,
    (1, 0, 0, 1, 1): -44,
    (1, 0, 0, 0, 2): -28,
    (0, 3, 0, 0, 0): 16,
    (0, 2, 1, 0, 0): 30,
    (0, 2, 0, 1, 0): -22,
    (0, 2, 0, 0, 1): -14,
    (0, 1, 2, 0, 0): 20,
    (0, 1, 1, 1, 0): -52,
    (0, 1, 1, 0, 1): -66,
    (0, 1, 0, 2, 0): -22,
    (0, 1, 0, 1, 1): -28,
    (0, 1, 0, 0, 2): -22,
    (0, 0, 3, 0, 0): 6,
    (0, 0, 2, 1, 0): 20,
    (0, 0, 2, 0, 1): -50,
    (0, 0, 1, 2, 0): 30,
    (0, 0, 1, 1, 1): 46,
    (0, 0, 1, 0, 2): -12,
    (0, 0, 0, 3, 0): 16,
    (0, 0, 0, 2, 1): 56,
    (0, 0, 0, 1, 2): 48,
}

R2_X0_PRINTED = {
    (3, 0, 0, 0, 0): -2,
    (2, 1, 0, 0, 0): -4,
    (2, 0, 1, 0, 0): 6,
    (2, 0, 0, 1, 0): 10,
    (2, 0, 0, 0, 1): 8,
    (1, 2, 0, 0, 0): -4,
    (1, 1, 1, 0, 0): -10,
    (1, 1, 0, 1, 0): 6,
    (1, 1, 0, 0, 1): 6,
    (1, 0, 2, 0, 0): 12,
    (1, 0, 1, 1, 0): 11,
    (1, 0, 1, 0, 1): -65,
    (1, 0, 0, 2, 0): -4,
    (1, 0, 0, 1, 1): 6,
    (1, 0, 0, 0, 2): 8,
    (0, 3, 0, 0, 0): -2,
    (0, 2, 1, 0, 0): -1,
    (0, 2, 0, 1, 0): -6,
    (0, 2, 0, 0, 1): -4,
    (0, 1, 2, 0, 0): -2,
    (0, 1, 1, 1, 0): 19,
    (0, 1, 1, 0, 1): 11,
    (0, 1, 0, 2, 0): -6,
    (0, 1, 0, 1, 1): 6,
    (0, 1, 0, 0, 2): 10,
    (0, 0, 3, 0, 0): -2,
    (0, 0, 2, 1, 0): -2,
    (0, 0, 2, 0, 1): 12,
    (0, 0, 1, 2, 0): -1,
    (0, 0, 1, 1, 1): -10,
    (0, 0, 1, 0, 2): 6,
    (0, 0, 0, 3, 0): -2,
    (0, 0, 0, 2, 1): -4,
    (0, 0, 0, 1, 2): -4,
    (0, 0, 0, 0, 3): -2,
}

R1_TABLES_PRINTED = (R1_X2_PRINTED, R1_X1_PRINTED, R1_X0_PRINTED)
R2_TABLES_PRINTED = (R2_X2_PRINTED, R2_X1_PRINTED, R2_X0_PRINTED)

# Coefficients of the quadratic R(x) whose values at the cubic roots give the
# ellipse center constants z_j (after dividing by 8 (x_j-x_i)(x_j-x_k)).
# The published linear coefficient has the 4(A2+A3+A4) group with the wrong
# sign; the corrected value below is confirmed by the direct 3x3 linear solve.
def z_quadratic_coeffs(A):
    A1, A2, A3, A4, A5 = A
    r2 = 4 * (A1 + A2 + A3 + A4 + A5)
    r1 = -4 * (A2 + A3 + A4) - 6 * (A1 + A5)
    r0 = A1 + A3 + A5
    return r2, r1, r0


def z_quadratic_coeffs_printed(A):
    A1, A2, A3, A4, A5 = A
    r2 = 4 * (A1 + A2 + A3 + A4 + A5)
    r1 = 4 * (A2 + A3 + A4) - 6 * (A1 + A5)
    r0 = A1 + A3 + A5
    return r2, r1, r0


def eval_table(table, A):
    """Evaluate a monomial table at A = (A_1, ..., A_5), in A's arithmetic.

    The reference evaluator: the tests check the expanded tables against
    the pipeline with it, and perfbench/tracing.py looks it up by name.
    """
    total = 0
    for expo, coef in table.items():
        term = coef
        for base, e in zip(A, expo):
            for _ in range(e):
                term = term * base
        total = total + term
    return total


def grad_table(table, A):
    """Gradient of a monomial table at A, in A's arithmetic; kept, like
    ``eval_table``, as a reference that perfbench/tracing.py looks up by name."""
    grads = []
    for k in range(5):
        total = 0
        for expo, coef in table.items():
            if expo[k] == 0:
                continue
            term = coef * expo[k]
            for i, (base, e) in enumerate(zip(A, expo)):
                ei = e - 1 if i == k else e
                for _ in range(ei):
                    term = term * base
            total = total + term
        grads.append(total)
    return grads


# pipeline(x) * scale == table quadratic(x), with the pipeline's f-rows-first
# Sylvester orientation (res(f, g) = g at the root of a monic linear f)
R1_PIPELINE_SCALE = Fraction(128)
R2_PIPELINE_SCALE = Fraction(512)


# ------------------------------------------------- exact values at A

def _scaled(A):
    """(X, L): the integers X_j = L A_j, L the lcm of the denominators of
    the A_j, each taken exactly (nrpoly._cleared)."""
    if len(A) != 5:
        raise ValueError(f"expected 5 parameters A_1..A_5, got {len(A)}")
    return _cleared(A)


def _resultant_ratios(A):
    """``resultant_quadratics`` as (numerator, denominator) integer pairs:
    ``_r_from_ell3`` at the six sums of L A, over L^2 (R1) and 8 L^3 (R2)."""
    X, L = _scaled(A)
    sums = p6_sums(X)
    n12, n11, n10, n22, n21, n20 = _r_from_ell3(sums, *_ell3_forms(*sums))
    L2, L3 = L * L, 8 * L * L * L
    return (((n12, L2), (n11, L2), (n10, L2)),
            ((n22, L3), (n21, L3), (n20, L3)))


def resultant_quadratics(A):
    """Coefficient triples (x^2, x^1, x^0) of both reduced resultants at A,
    as exact Fractions (``_resultant_ratios``)."""
    return tuple([tuple([Fraction(n, d) for n, d in r]) for r in _resultant_ratios(A)])


def _quadratic_at(coeffs, p, q):
    """c2 x^2 + c1 x + c0 at x = p / q (q > 0), for (numerator, denominator)
    integer pairs c_k, as one such pair."""
    (n2, d2), (n1, d1), (n0, d0) = coeffs
    D = math.lcm(d2, d1, d0)
    return ((n2 * (D // d2) * p + n1 * (D // d1) * q) * p + n0 * (D // d0) * q * q, D * q * q)


def eval_resultants_at(A, x):
    """(R1(x), R2(x)) from ``resultant_quadratics``, exact at x: Fractions
    for a rational x, otherwise the exact values at x's binary value, each
    rounded once to the nearest float (as ``BivariatePoly.eval``)."""
    x = _real(x)
    p, q = x.as_integer_ratio()
    values = [_quadratic_at(r, p, q) for r in _resultant_ratios(A)]
    if type(x) is not float:
        return tuple([Fraction(n, d) for n, d in values])
    return tuple([_rounded(n, d) for n, d in values])


def _ell3_numerators(rows):
    """The one evaluation of the three-ellipse conditions: for integer rows
    X = L A over one denominator L, each row's (qa, qb, cubic, qa - qb) from
    ``_ell3_forms``, the ``ell3_residuals`` at A over L^2, L^2, 8 L^3, L^2."""
    out = []
    for X in rows:
        qa, qb, cubic = _ell3_forms(*p6_sums(X))
        out.append((qa, qb, cubic, qa - qb))
    return out


def ell3_residuals(A):
    """The three three-ellipse conditions plus their difference, as exact
    Fractions (``_ell3_numerators`` at the one row L A)."""
    X, L = _scaled(A)
    qa, qb, cubic, qd = _ell3_numerators([X])[0]
    L2 = L * L
    return Fraction(qa, L2), Fraction(qb, L2), Fraction(cubic, 8 * L2 * L), Fraction(qd, L2)
