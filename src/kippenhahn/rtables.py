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
degree-3 parts of the two ideals agree, see the tests), so the classifier
reads only the resultant tables and the ``ELL3_*`` tables certify the
manifold solvers.

The dict tables are the source of truth.  Tables of degree <= 3 are also
compiled, at import, into sparse integer rows over the 56 monomials of
degree <= 3 (``compile_rows``), and one loop evaluates those rows in the
arithmetic of its input:

* ``eval_exact`` gives their values at one point as Fractions from a single
  integer dot product per row, with no rational arithmetic per term;
* ``n6_values`` gives the six resultant coefficients the n = 6 classifier
  reads (``N6_ROWS``) at one point as floats.

``eval_table`` and ``grad_table`` stay the generic evaluators for any
arithmetic (floats, Fractions, polynomials) and any degree; the tests use
them as the reference the compiled rows are checked against.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import combinations_with_replacement

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

    The reference evaluator: the tests check the compiled rows against it,
    and perfbench/tracing.py looks it up by name.
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


def resultant_quadratics(A):
    """Coefficient triples (x^2, x^1, x^0) of both reduced resultants at A,
    as exact Fractions (floats convert losslessly)."""
    values = eval_exact(N6_ROWS, A)
    return values[:3], values[3:]


def eval_resultants_at(A, x):
    """(R1(x), R2(x)) from the corrected tables, in the arithmetic of x."""
    (c12, c11, c10), (c22, c21, c20) = resultant_quadratics(A)
    return (c12 * x * x + c11 * x + c10, c22 * x * x + c21 * x + c20)


# ------------------------------------------------------------- compiled tables
#
# A monomial of degree <= 3 in A_1..A_5 is a product X_i X_j X_k over
# X = (1, A_1, ..., A_5) with i <= j <= k: 56 index triples, one per monomial.
_TRIPLE_LIST = tuple(combinations_with_replacement(range(6), 3))
MONOMIALS = tuple(tuple(t.count(v) for v in range(1, 6)) for t in _TRIPLE_LIST)
_MONOMIAL_POS = {expo: m for m, expo in enumerate(MONOMIALS)}


def compile_rows(tables):
    """Sparse rows ((monomial index, coefficient), ...), one per table.

    Indices point into ``MONOMIALS``; a monomial of degree above 3 raises
    ValueError.
    """
    for table in tables:
        for expo in table:
            if expo not in _MONOMIAL_POS:
                raise ValueError(f"monomial {expo} has degree {sum(expo)}; compiled "
                                 "tables take degree <= 3 in A_1..A_5")
    return tuple(tuple((_MONOMIAL_POS[expo], coef) for expo, coef in table.items())
                 for table in tables)


def _dots(rows, X):
    """Each row's dot product with the monomials X_i X_j X_k, in X's arithmetic."""
    mono = [X[i] * X[j] * X[k] for i, j, k in _TRIPLE_LIST]
    out = []
    for row in rows:
        total = 0
        for m, c in row:
            total += c * mono[m]
        out.append(total)
    return out


def eval_exact(rows, A):
    """Exact values of compiled ``rows`` at A, one Fraction per row.

    With L the lcm of the denominators of the A_j, X = (L, L A_1, ...,
    L A_5) is integral and X_i X_j X_k is L^3 times a monomial of degree
    <= 3, so each value is one integer dot product over L^3.  Floats
    convert to Fraction losslessly; NumPy integers become Python ints, so
    nothing overflows.
    """
    if len(A) != 5:
        raise ValueError(f"expected 5 parameters A_1..A_5, got {len(A)}")
    A = [Fraction(a) for a in A]
    L = math.lcm(*(int(a.denominator) for a in A))
    X = [L] + [int(a.numerator) * (L // int(a.denominator)) for a in A]
    L3 = L * L * L
    return tuple(Fraction(v, L3) for v in _dots(rows, X))


ELL3_TABLES = (ELL3_QUAD_A, ELL3_QUAD_B, ELL3_CUBIC, ELL3_QUAD_DIFF)
ELL3_ROWS = compile_rows(ELL3_TABLES)


def ell3_residuals(A):
    """The three three-ellipse conditions plus their difference, as Fractions."""
    return eval_exact(ELL3_ROWS, A)


# what the n = 6 classifier reads: the six resultant coefficients
N6_TABLES = R1_TABLES + R2_TABLES
N6_ROWS = compile_rows(N6_TABLES)
# each N6 value is at most its row's sum of |coefficients| times (1 + sum |A_j|)^3,
# and so is every partial sum of the loop in _dots, so below this 1 + sum |A_j|
# every value, and that cube, is a finite float.
# The largest row sum, R2_X1's 1248, is above every ELL3 row's (at most 116),
# so the bound also keeps the float ELL3 residuals of residuals_m6 finite.
N6_MAX_SCALE = (sys.float_info.max
                / max(sum(abs(c) for _, c in row) for row in N6_ROWS)) ** (1 / 3)


def check_n6_scale(A):
    """Raise ValueError unless 1 + sum |A_j| is at most ``N6_MAX_SCALE``."""
    if 1 + sum(abs(a) for a in A) > N6_MAX_SCALE:
        raise ValueError(f"A = {tuple(A)} is past the float range of the n = 6 tables")


def n6_values(A):
    """Values of the six ``N6_TABLES`` at one point A, as floats.

    A is converted to float first, so exact input takes the float path too;
    the values agree with ``eval_table`` up to rounding, and
    ``resultant_quadratics`` is the exact path.
    """
    return tuple(_dots(N6_ROWS, (1.0, *map(float, A))))
