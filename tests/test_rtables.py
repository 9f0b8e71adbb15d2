from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kippenhahn import rtables

TABLES = (rtables.R1_TABLES + rtables.R2_TABLES
          + (rtables.ELL3_QUAD_A, rtables.ELL3_QUAD_B, rtables.ELL3_CUBIC,
             rtables.ELL3_QUAD_DIFF))

points = st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=5, max_size=5)


def test_monomial_basis():
    assert len(rtables.MONOMIALS) == len(set(rtables.MONOMIALS)) == 56
    assert all(sum(e) <= 3 for e in rtables.MONOMIALS)
    A = (2.0, 3.0, 5.0, 7.0, 11.0)
    want = [float(np.prod([a ** e for a, e in zip(A, expo)])) for expo in rtables.MONOMIALS]
    assert rtables.monomials(A).tolist() == want


@given(st.lists(points, min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_compiled_matches_dict_tables(batch):
    # error relative to the sum of the absolute values of the terms, the
    # scale of the rounding in any evaluation order (A > 0 here)
    assert rtables.N6_TABLES == TABLES
    values = rtables.n6_values(batch)
    assert values.shape == (len(batch), len(TABLES))
    for A, row in zip(batch, values):
        for table, got in zip(TABLES, row):
            absolute = {expo: abs(c) for expo, c in table.items()}
            value, size = rtables.eval_table(table, A), rtables.eval_table(absolute, A)
            assert abs(got - value) <= 1e-12 * size


@given(st.lists(st.fractions(min_value=1, max_value=100, max_denominator=50),
                min_size=5, max_size=5))
@settings(max_examples=30, deadline=None)
def test_eval_table_exact_on_fractions(A):
    for table in TABLES:
        value = rtables.eval_table(table, A)
        assert isinstance(value, Fraction)
        assert value == sum(c * A[0] ** e[0] * A[1] ** e[1] * A[2] ** e[2]
                            * A[3] ** e[3] * A[4] ** e[4] for e, c in table.items())
        assert all(isinstance(g, Fraction) for g in rtables.grad_table(table, A))


@given(st.lists(st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=5, max_size=5),
                min_size=2, max_size=8))
@settings(max_examples=60, deadline=None)
def test_compiled_batch_matches_rows_alone(batch):
    # bit for bit: a point's values do not depend on the batch it comes in
    out = rtables.n6_values(batch)
    for A, got in zip(batch, out):
        assert got.tobytes() == rtables.n6_values([A])[0].tobytes()
