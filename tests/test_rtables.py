import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippenhahn import rtables, solve_m6
from kippenhahn.manifold import residuals_m6

# the six resultant coefficient tables
TABLES = rtables.R1_TABLES + rtables.R2_TABLES


@given(st.lists(st.fractions(min_value=1, max_value=100, max_denominator=50),
                min_size=5, max_size=5))
@settings(max_examples=30, deadline=None)
def test_eval_table_exact_on_fractions(A):
    for table in TABLES + rtables.ELL3_TABLES:
        value = rtables.eval_table(table, A)
        assert isinstance(value, Fraction)
        assert value == sum(c * A[0] ** e[0] * A[1] ** e[1] * A[2] ** e[2]
                            * A[3] ** e[3] * A[4] ** e[4] for e, c in table.items())
        assert all(isinstance(g, Fraction) for g in rtables.grad_table(table, A))


def test_forms_equal_the_tables_on_a_unisolvent_grid():
    # forms and tables have degree <= 3 in A_1..A_5, and a polynomial of
    # degree <= 3 that vanishes on the 56 points 1 + a, a in N^5, |a| <= 3,
    # is zero: exact equality there proves the forms equal the tables
    grid = [tuple(1 + k for k in a) for a in product(range(4), repeat=5) if sum(a) <= 3]
    assert len(grid) == 56
    for A in grid:
        Aex = [Fraction(a) for a in A]
        r1, r2 = rtables.resultant_quadratics(A)
        assert list(r1 + r2) == [rtables.eval_table(t, Aex) for t in TABLES], A
        assert list(rtables.ell3_residuals(A)) == [rtables.eval_table(t, Aex)
                                                   for t in rtables.ELL3_TABLES], A


def _iota(A):
    A1, A2, A3, A4, A5 = A
    return (A5, A2 + A1 - A5, A3, A4 + A5 - A1, A1)


@given(st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=60),
                min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_exact_values_are_invariant_under_reversal_and_iota(A):
    # reversal and iota keep the six sums of P6, so every corrected table
    # takes one value on the orbit {A, rev A, iota A}
    orbit = [tuple(A), tuple(reversed(A)), _iota(A)]
    assert len({rtables.resultant_quadratics(B) for B in orbit}) == 1
    assert len({rtables.ell3_residuals(B) for B in orbit}) == 1
    for table in TABLES + rtables.ELL3_TABLES:
        assert len({rtables.eval_table(table, B) for B in orbit}) == 1


exact_inputs = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e300]),
    st.builds(Fraction, st.integers(-10**9, 10**9),
              st.sampled_from([1, 3, 5, 6, 7, 9, 10, 49, 1000003])))


@given(st.lists(exact_inputs, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_resultant_quadratics_exact_for_every_input(A):
    got = rtables.resultant_quadratics(A)
    want = [rtables.eval_table(t, [Fraction(a) for a in A]) for t in TABLES]
    assert all(type(v) is Fraction for v in got[0] + got[1])
    assert list(got[0] + got[1]) == want


def test_exact_values_need_five_parameters():
    with pytest.raises(ValueError, match="5 parameters"):
        rtables.ell3_residuals((1, 2, 3, 4))
    with pytest.raises(ValueError, match="5 parameters"):
        rtables.resultant_quadratics((1, 2, 3, 4, 5, 6))


def test_exact_values_do_not_overflow_numpy_ints():
    A = (2**62, 2, -3, 4, 10**5)
    assert rtables.ell3_residuals(np.array(A)) == rtables.ell3_residuals(A)
    assert rtables.resultant_quadratics(np.array(A)) == rtables.resultant_quadratics(A)


REFERENCE_PAIRS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "data.json").read_text()
)["solve_references"]


@pytest.mark.parametrize("ref", REFERENCE_PAIRS, ids=lambda ref: "-".join(ref["fixed"]))
def test_residuals_m6_bit_identical_to_fraction_eval_table(ref):
    # the residuals as Fraction evaluation of the dict tables gave them
    sols = solve_m6(ref["fixed"])
    assert len(sols) == 12
    for sol in sols:
        old = [rtables.eval_table(t, [Fraction(a) for a in sol.A]) for t in rtables.ELL3_TABLES]
        assert list(residuals_m6(sol.A, exact=True)) == old
        want = [float(v).hex() for v in old]
        assert [v.hex() for v in residuals_m6(sol.A)] == want
        assert [v.hex() for v in sol.residuals] == want


# --------------------------------------------- one ideal for both n = 6 verdicts

def _combine(*terms):
    """Sum of coef * table over (coef, table) pairs, zero terms dropped."""
    out = {}
    for coef, table in terms:
        for expo, c in table.items():
            out[expo] = out.get(expo, 0) + Fraction(coef) * c
    return {expo: c for expo, c in out.items() if c}


def _times_a(i, table):
    """A_{i+1} times a table."""
    return {expo[:i] + (expo[i] + 1,) + expo[i + 1:]: c for expo, c in table.items()}


def _rank(tables):
    """Rank over Q of tables viewed as vectors of monomial coefficients."""
    expos = sorted({expo for t in tables for expo in t})
    rows = [[Fraction(t.get(expo, 0)) for expo in expos] for t in tables]
    rank = 0
    for col in range(len(expos)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_resultant_tables_span_the_three_ellipse_ideal():
    # exact certificate that R1 = R2 = 0 identically in x, which is what
    # three passing roots of the per-root test mean, is the three-ellipse
    # condition: the two ideals agree in degrees 2 and 3
    t = rtables
    F = Fraction
    assert _combine((5, t.R1_X1), (3, t.R1_X2), (6, t.R1_X0)) == {}
    assert _combine((1, t.ELL3_QUAD_A), (F(-3, 20), t.R1_X2), (F(1, 5), t.R1_X0)) == {}
    assert _combine((1, t.ELL3_QUAD_B), (F(-1, 20), t.R1_X2), (F(2, 5), t.R1_X0)) == {}
    assert _combine((1, t.ELL3_QUAD_DIFF), (-1, t.ELL3_QUAD_A), (1, t.ELL3_QUAD_B)) == {}
    quads = [_times_a(i, q) for q in (t.ELL3_QUAD_A, t.ELL3_QUAD_B) for i in range(5)]
    assert _rank(quads) == 10
    assert _rank(quads + list(t.R2_TABLES)) == 11
    assert _rank(quads + [t.ELL3_CUBIC]) == 11
    assert _rank(quads + list(t.R2_TABLES) + [t.ELL3_CUBIC]) == 11
