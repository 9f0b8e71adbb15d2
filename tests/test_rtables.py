import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippenhahn import rtables, solve_m6
from kippenhahn.manifold import residuals_m6

# the six resultant coefficient tables
TABLES = rtables.R1_TABLES + rtables.R2_TABLES


def test_monomial_basis():
    assert len(rtables.MONOMIALS) == len(set(rtables.MONOMIALS)) == 56
    assert all(sum(e) <= 3 for e in rtables.MONOMIALS)
    A = (2, 3, 5, 7, 11)
    want = [math.prod(a ** e for a, e in zip(A, expo)) for expo in rtables.MONOMIALS]
    unit_rows = rtables.compile_rows([{expo: 1} for expo in rtables.MONOMIALS])
    assert list(rtables.eval_exact(unit_rows, A)) == want


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


# every dict table the module ships, and those of degree <= 3
DICT_TABLES = {name: t for name, t in vars(rtables).items()
               if name[0] != "_" and isinstance(t, dict)}
CUBIC_TABLES = {name: t for name, t in DICT_TABLES.items()
                if all(sum(e) <= 3 for e in t)}

exact_inputs = st.one_of(
    st.integers(-10**12, 10**12),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                     1e300, -1e300]),
    st.builds(Fraction, st.integers(-10**9, 10**9),
              st.sampled_from([1, 3, 5, 6, 7, 9, 10, 49, 1000003])))


def test_degree_filter_keeps_all_but_the_printed_typo():
    assert set(DICT_TABLES) - set(CUBIC_TABLES) == {"R2_X1_PRINTED"}
    assert len(CUBIC_TABLES) == 15


@given(st.lists(exact_inputs, min_size=5, max_size=5))
@settings(max_examples=150, deadline=None)
def test_eval_exact_equals_fraction_eval_table(A):
    names = sorted(CUBIC_TABLES)
    got = rtables.eval_exact(rtables.compile_rows([CUBIC_TABLES[nm] for nm in names]), A)
    Aex = [Fraction(a) for a in A]
    for name, value in zip(names, got):
        assert type(value) is Fraction
        assert value == rtables.eval_table(CUBIC_TABLES[name], Aex), name


def test_compile_rows_rejects_degree_above_3():
    with pytest.raises(ValueError, match="degree 6"):
        rtables.compile_rows([rtables.R2_X1_PRINTED])


@given(st.lists(exact_inputs, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_resultant_quadratics_exact_for_every_input(A):
    got = rtables.resultant_quadratics(A)
    want = [rtables.eval_table(t, [Fraction(a) for a in A]) for t in TABLES]
    assert all(type(v) is Fraction for v in got[0] + got[1])
    assert list(got[0] + got[1]) == want


def test_eval_exact_needs_five_parameters():
    with pytest.raises(ValueError, match="5 parameters"):
        rtables.ell3_residuals((1, 2, 3, 4))


def test_eval_exact_does_not_overflow_numpy_ints():
    A = (10**6, 2, -3, 4, 10**5)
    assert rtables.ell3_residuals(np.array(A)) == rtables.ell3_residuals(A)


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
