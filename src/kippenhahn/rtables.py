"""Closed-form coefficient tables for the 6-by-6 ellipticity criteria.

Two reduced resultants govern whether the degree-3 generating polynomial
acquires a linear factor at a root of the slope cubic.  Each table below
gives one coefficient of those quadratics in x as an integer-coefficient
polynomial in (A_1, ..., A_5), keyed by exponent tuple.

Two parallel sets are shipped:

* the corrected tables (``R1_X*``, ``R2_X*``), regenerated symbolically from
  the Sylvester pipeline and exactly equal to it up to the scale factors
  recorded below (pipeline R1 = T1/128, pipeline R2 = T2/512 in the
  pipeline's f-rows-first orientation);
* the published tables (``*_PRINTED``), transcribed verbatim.  They differ
  from the corrected set in exactly four places, all resolved against the
  pipeline oracle: one monomial in R1_X1, one sign in R2_X2, and two
  monomials in R2_X1 (including a stray degree-six term).

The ``ELL3_*`` tables are the three-ellipse conditions (two quadratics and
one cubic in the A_j, plus their difference); a reciprocal 6-by-6 matrix has
a three-ellipse Kippenhahn curve iff all three vanish and the parameters are
not all 1.  They cut out the same set as R1 = R2 = 0 identically in x (the
degree-3 parts of the two ideals agree, see the tests), which is what the
n = 6 classifier's three passing roots mean; the ``ELL3_*`` tables certify
the manifold solvers.

Every corrected and ``ELL3_*`` table reads A only through the six sums
``p6_sums`` of the generating polynomial P6.  ``resultant_quadratics`` and
``ell3_residuals`` evaluate fixed integer forms in those sums at the
integers L A_j (L the lcm of the denominators of the A_j) and divide once:
exact Fractions for any input.  The dict tables stay as data and as the
reference: ``eval_table`` and ``grad_table`` evaluate them in any
arithmetic and any degree, and the tests certify the forms equal to them.
"""

from __future__ import annotations

from fractions import Fraction

from .nrpoly import _cleared

R1_X2 = {
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

R1_X1 = {
    (1, 1, 0, 0, 0): 18,
    (1, 0, 1, 0, 0): 6,
    (1, 0, 0, 1, 0): -24,
    (0, 2, 0, 0, 0): 12,
    (0, 1, 0, 1, 0): -18,
    (0, 1, 0, 0, 1): -24,
    (0, 0, 2, 0, 0): -6,
    (0, 0, 1, 0, 1): 6,
    (0, 0, 0, 2, 0): 12,
    (0, 0, 0, 1, 1): 18,
}

R1_X0 = {
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

R2_X2 = {
    (3, 0, 0, 0, 0): -12,
    (2, 1, 0, 0, 0): -48,
    (2, 0, 0, 1, 0): 8,
    (2, 0, 0, 0, 1): 20,
    (1, 2, 0, 0, 0): -60,
    (1, 1, 1, 0, 0): -44,
    (1, 1, 0, 1, 0): 20,
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

R2_X1 = {
    (3, 0, 0, 0, 0): 14,
    (2, 1, 0, 0, 0): 48,
    (2, 0, 1, 0, 0): -12,
    (2, 0, 0, 1, 0): -22,
    (2, 0, 0, 0, 1): -28,
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
    (0, 0, 0, 0, 3): 14,
}

R2_X0 = {
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

ELL3_QUAD_A = {
    (2, 0, 0, 0, 0): -2,
    (1, 1, 0, 0, 0): -4,
    (1, 0, 1, 0, 0): 2,
    (1, 0, 0, 1, 0): 3,
    (1, 0, 0, 0, 1): 3,
    (0, 2, 0, 0, 0): -1,
    (0, 1, 1, 0, 0): -2,
    (0, 1, 0, 1, 0): 5,
    (0, 1, 0, 0, 1): 3,
    (0, 0, 1, 1, 0): -2,
    (0, 0, 1, 0, 1): 2,
    (0, 0, 0, 2, 0): -1,
    (0, 0, 0, 1, 1): -4,
    (0, 0, 0, 0, 2): -2,
}

ELL3_QUAD_B = {
    (2, 0, 0, 0, 0): -2,
    (1, 1, 0, 0, 0): -1,
    (1, 0, 1, 0, 0): 3,
    (1, 0, 0, 1, 0): -1,
    (1, 0, 0, 0, 1): 3,
    (0, 2, 0, 0, 0): 1,
    (0, 1, 1, 0, 0): -2,
    (0, 1, 0, 1, 0): 2,
    (0, 1, 0, 0, 1): -1,
    (0, 0, 2, 0, 0): -1,
    (0, 0, 1, 1, 0): -2,
    (0, 0, 1, 0, 1): 3,
    (0, 0, 0, 2, 0): 1,
    (0, 0, 0, 1, 1): -1,
    (0, 0, 0, 0, 2): -2,
}

ELL3_CUBIC = {
    (3, 0, 0, 0, 0): -1,
    (2, 1, 0, 0, 0): -2,
    (2, 0, 1, 0, 0): -4,
    (2, 0, 0, 1, 0): -2,
    (2, 0, 0, 0, 1): -3,
    (1, 2, 0, 0, 0): 1,
    (1, 1, 1, 0, 0): -3,
    (1, 1, 0, 1, 0): 2,
    (1, 1, 0, 0, 1): -4,
    (1, 0, 2, 0, 0): -3,
    (1, 0, 1, 1, 0): -3,
    (1, 0, 1, 0, 1): 41,
    (1, 0, 0, 2, 0): 1,
    (1, 0, 0, 1, 1): -4,
    (1, 0, 0, 0, 2): -3,
    (0, 3, 0, 0, 0): 1,
    (0, 2, 1, 0, 0): -1,
    (0, 2, 0, 1, 0): 3,
    (0, 2, 0, 0, 1): 1,
    (0, 1, 2, 0, 0): -2,
    (0, 1, 1, 1, 0): -2,
    (0, 1, 1, 0, 1): -3,
    (0, 1, 0, 2, 0): 3,
    (0, 1, 0, 1, 1): 2,
    (0, 1, 0, 0, 2): -2,
    (0, 0, 3, 0, 0): 1,
    (0, 0, 2, 1, 0): -2,
    (0, 0, 2, 0, 1): -3,
    (0, 0, 1, 2, 0): -1,
    (0, 0, 1, 1, 1): -3,
    (0, 0, 1, 0, 2): -4,
    (0, 0, 0, 3, 0): 1,
    (0, 0, 0, 2, 1): 1,
    (0, 0, 0, 1, 2): -2,
    (0, 0, 0, 0, 3): -1,
}

ELL3_QUAD_DIFF = {
    (1, 1, 0, 0, 0): -3,
    (1, 0, 1, 0, 0): -1,
    (1, 0, 0, 1, 0): 4,
    (0, 2, 0, 0, 0): -2,
    (0, 1, 0, 1, 0): 3,
    (0, 1, 0, 0, 1): 4,
    (0, 0, 2, 0, 0): 1,
    (0, 0, 1, 0, 1): -1,
    (0, 0, 0, 2, 0): -2,
    (0, 0, 0, 1, 1): -3,
}

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

    The reference evaluator: the tests check the forms in the six sums
    against it, and perfbench/tracing.py looks it up by name.
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
    """Gradient of a monomial table at A, same arithmetic as the input.

    Kept, like ``eval_table``, as a reference that perfbench/tracing.py
    looks up by name.
    """
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


R1_TABLES = (R1_X2, R1_X1, R1_X0)
R2_TABLES = (R2_X2, R2_X1, R2_X0)
R1_TABLES_PRINTED = (R1_X2_PRINTED, R1_X1_PRINTED, R1_X0_PRINTED)
R2_TABLES_PRINTED = (R2_X2_PRINTED, R2_X1_PRINTED, R2_X0_PRINTED)

# pipeline(x) * scale == table quadratic(x), with the pipeline's f-rows-first
# Sylvester orientation (res(f, g) = g at the root of a monic linear f)
R1_PIPELINE_SCALE = Fraction(128)
R2_PIPELINE_SCALE = Fraction(512)


# ------------------------------------------------- the six sums of P6

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


def _scaled_sums(A):
    """(L, p6_sums(X)) for the integers X_j = L A_j, L the lcm of the
    denominators of the A_j, each taken exactly (nrpoly._cleared)."""
    if len(A) != 5:
        raise ValueError(f"expected 5 parameters A_1..A_5, got {len(A)}")
    X, L = _cleared(A)
    return L, p6_sums(X)


def resultant_quadratics(A):
    """Coefficient triples (x^2, x^1, x^0) of both reduced resultants at A,
    as exact Fractions: integer forms in the six sums of L A, over L^2 (R1)
    and L^3 (R2).  Equal to ``eval_table`` of the corrected tables."""
    L, (S, T, E2, s1, s2, s3) = _scaled_sums(A)
    SS, ST, TT, Ss1, Ts1, s1s1 = S * S, S * T, T * T, S * s1, T * s1, s1 * s1
    L2, L3 = L * L, L * L * L
    r1 = (Fraction(56 * E2 + 108 * SS - 100 * ST + 40 * Ss1 + 20 * TT - 12 * Ts1
                   - 28 * s2, L2),
          Fraction(-42 * E2 - 72 * SS + 66 * ST - 24 * Ss1 - 12 * TT + 6 * s1s1
                   + 42 * s2, L2),
          Fraction(7 * E2 + 6 * SS - 5 * ST + 6 * Ts1 - 5 * s1s1 - 21 * s2, L2))
    r2 = (Fraction(196 * E2 * S - 56 * E2 * T + 28 * E2 * s1 + 136 * SS * T
                   - 292 * SS * s1 - 136 * S * TT + 336 * ST * s1 - 104 * S * s1s1
                   - 104 * S * s2 + 32 * TT * T - 92 * TT * s1 + 52 * T * s1s1
                   + 52 * T * s2 - 52 * s1 * s2 - 144 * s3, L3),
          Fraction(-308 * E2 * S + 84 * E2 * T - 84 * E2 * s1 - 248 * SS * T
                   + 516 * SS * s1 + 246 * S * TT - 600 * ST * s1 + 202 * S * s1s1
                   + 162 * S * s2 - 57 * TT * T + 162 * TT * s1 - 93 * T * s1s1
                   - 81 * T * s2 + 81 * s1 * s2 + 507 * s3, 2 * L3),
          Fraction(28 * E2 * S - 14 * E2 * T + 42 * E2 * s1 + 22 * SS * T
                   - 46 * SS * s1 - 22 * S * TT + 56 * ST * s1 - 26 * S * s1s1
                   - 14 * S * s2 + 5 * TT * T - 14 * TT * s1 + 7 * T * s1s1
                   + 7 * T * s2 + 2 * s1s1 * s1 - 7 * s1 * s2 - 189 * s3, 2 * L3))
    return r1, r2


def eval_resultants_at(A, x):
    """(R1(x), R2(x)) from the corrected tables, in the arithmetic of x."""
    (c12, c11, c10), (c22, c21, c20) = resultant_quadratics(A)
    return (c12 * x * x + c11 * x + c10, c22 * x * x + c21 * x + c20)


ELL3_TABLES = (ELL3_QUAD_A, ELL3_QUAD_B, ELL3_CUBIC, ELL3_QUAD_DIFF)


def ell3_residuals(A):
    """The three three-ellipse conditions plus their difference, as exact
    Fractions: integer forms in the six sums of L A, over L^2 and 8 L^3.
    Equal to ``eval_table`` of ``ELL3_TABLES``."""
    L, (S, T, E2, s1, s2, s3) = _scaled_sums(A)
    SS, ST, TT, Ss1, Ts1, s1s1 = S * S, S * T, T * T, S * s1, T * s1, s1 * s1
    qa = 7 * E2 + 15 * SS - 14 * ST + 6 * Ss1 + 3 * TT - 3 * Ts1 + s1s1
    qb = 3 * SS - 3 * ST + 2 * Ss1 + TT - 3 * Ts1 + 2 * s1s1 + 7 * s2
    cubic = (-36 * SS * T + 200 * SS * s1 + 34 * S * TT - 208 * ST * s1
             + 102 * S * s1s1 - 2 * S * s2 - 7 * TT * T + 46 * TT * s1
             - 39 * T * s1s1 + T * s2 + 8 * s1s1 * s1 - s1 * s2 + 393 * s3)
    L2 = L * L
    return (Fraction(qa, L2), Fraction(qb, L2), Fraction(cubic, 8 * L2 * L),
            Fraction(qa - qb, L2))
