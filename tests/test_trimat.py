import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kippenhahn import (InvalidParam, NotReciprocal, ReciprocalParams,
                        ZeroSuperdiagonal, a_params, build_reciprocal,
                        eig_all, generating_poly, params_to_matrix,
                        realified_pencil)
from kippenhahn.trimat import FLOAT_MAX, PARAM_TOL, TridiagonalMatrix, phase_diagonal


def test_build_reciprocal_unit():
    M = build_reciprocal([1])
    assert M.n == 2
    assert np.allclose(M.dense(), [[0, 1], [1, 0]])
    assert M.is_reciprocal


def test_build_reciprocal_example_string():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    assert M.n == 5
    assert np.allclose(M.c, [2 / 3, 1 / 2, 2 / 5, 2 / 3])


def test_build_reciprocal_zero_entry():
    with pytest.raises(ZeroSuperdiagonal):
        build_reciprocal([0, 1])


def test_a_params_reference_string():
    p = a_params(build_reciprocal([1.5, 2, 2.5, 1.5]))
    expected = (1.3472222222222223, 2.125, 3.205, 1.3472222222222223)
    assert np.allclose(p.A, expected, atol=1e-12)


def test_a_params_hermitian():
    p = a_params(build_reciprocal([1, 1, 1]))
    assert p.A == (1.0, 1.0, 1.0)


def test_a_params_phase_invariant():
    b = 2 * np.exp(1j * np.pi / 3)
    p = a_params(build_reciprocal([b]))
    assert abs(p.A[0] - 2.125) < 1e-12


def test_a_params_rejects_non_reciprocal():
    M = TridiagonalMatrix(n=3, a=0.0, b=(1, 2), c=(1, 1))
    with pytest.raises(NotReciprocal):
        a_params(M)


def test_a_params_near_the_float_range():
    # |b|^2 = 1.96e308 overflows, A_1 = |b|^2 / 2 does not
    p = a_params(build_reciprocal([1.4e154, 2]))
    assert p.A == (float(Fraction(1.4e154) ** 2 / 2), 2.125)


def test_params_roundtrip_unit():
    M = params_to_matrix(ReciprocalParams(A=(1, 1)))
    assert np.allclose(M.b, [1, 1])


def test_params_roundtrip_forward_oracle():
    # forward map of b = (2,) gives A = 2.125, so the inverse must return 2
    assert a_params(build_reciprocal([2])).A[0] == 2.125
    M = params_to_matrix(ReciprocalParams(A=(2.125,)))
    assert abs(M.b[0] - 2.0) < 1e-12


@pytest.mark.parametrize("A", [1 + 1e-9, 2.0, 1e200, 1e300])
def test_params_matrix_roundtrip_relative(A):
    # b_j is formed without A_j^2, which overflows past about 1.3e154
    (got,) = a_params(params_to_matrix(ReciprocalParams(A=(A,)))).A
    assert abs(got - A) <= 1e-15 * A


def test_params_below_floor():
    with pytest.raises(InvalidParam):
        ReciprocalParams(A=(0.5,))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(bad):
    with pytest.raises(InvalidParam):
        ReciprocalParams(A=(2.0, bad, 3.0))
    with pytest.raises(InvalidParam):
        ReciprocalParams(A=(bad,) * 5)


FLOOR = Fraction(1.0 - PARAM_TOL)


@pytest.mark.parametrize("A, ok, past", [
    (FLOOR, True, False),
    (FLOOR - Fraction(1, 2 ** 80), False, False),
    (Fraction(FLOAT_MAX), True, False),
    (Fraction(FLOAT_MAX) + Fraction(1, 2 ** 80), True, True),
    (Fraction(FLOAT_MAX) + 1, True, True),
    (1, True, False),
    (0, False, False),
    (int(FLOAT_MAX), True, False),
    (int(FLOAT_MAX) + 1, True, True),
    (1.0 - PARAM_TOL, True, False),
    (1.0 - 2e-12, False, False),
    (FLOAT_MAX, True, False),
])
def test_params_bounds_are_exact(A, ok, past):
    # exact entries meet 1 - PARAM_TOL and the largest float as exact
    # rationals; past the latter they are kept for the exact layer
    if not ok:
        with pytest.raises(InvalidParam):
            ReciprocalParams(A=(2.0, A))
        return
    p = ReciprocalParams(A=(2.0, A))
    assert p.A[1] == A and type(p.A[1]) is type(A)
    assert p.past_float_range is past


@pytest.mark.parametrize("bad", ["2", b"2", bytearray(b"2"), True, np.bool_(True),
                                 2 + 0j, np.complex128(2)])
def test_params_reject_non_real_entries(bad):
    with pytest.raises(InvalidParam, match="A_2"):
        ReciprocalParams(A=(3, bad))


@pytest.mark.parametrize("v", [np.float64(2.5), np.float32(2.5), np.int64(3), np.uint8(3)])
def test_params_take_numpy_floats_as_float_and_numpy_ints_exactly(v):
    (got,) = ReciprocalParams(A=(v,)).A
    want = float(v) if isinstance(v, np.floating) else int(v)
    assert type(got) is type(want) and got == want


def test_numpy_ints_stay_exact_in_the_generating_polynomial():
    # 2^62 + 1 has no float: as one, the zeta^0 tau^0 coefficient would be -(2^61 + 1)
    big = 2 ** 62 + 1
    P = generating_poly(ReciprocalParams(A=(np.int64(big), 2)))
    assert P == generating_poly(ReciprocalParams(A=(big, 2)))
    assert P.coeff(0, 0) == -Fraction(big + 2, 2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_build_reciprocal_rejects_non_finite(bad):
    with pytest.raises(InvalidParam, match="b_2"):
        build_reciprocal([1.5, bad, 2.0])
    with pytest.raises(InvalidParam, match="c_1"):
        TridiagonalMatrix(n=3, a=0.0, b=(1.0, 2.0), c=(bad, 1.0))
    with pytest.raises(InvalidParam, match="a = "):
        TridiagonalMatrix(n=3, a=bad, b=(1.0, 2.0), c=(1.0, 1.0))


@pytest.mark.parametrize("bad", ["2", b"2", True, np.bool_(True), Decimal("2")])
def test_matrix_entries_reject_values_that_are_not_numbers(bad):
    with pytest.raises(InvalidParam, match="b_1 = .* is not a number"):
        build_reciprocal([bad, 2.0])
    with pytest.raises(InvalidParam, match="c_2 = .* is not a number"):
        TridiagonalMatrix(n=3, a=0.0, b=(1.0, 2.0), c=(1.0, bad))
    with pytest.raises(InvalidParam, match="a = .* is not a number"):
        TridiagonalMatrix(n=3, a=bad, b=(1.0, 2.0), c=(1.0, 1.0))


def test_matrix_entries_take_every_complex_number():
    M = TridiagonalMatrix(n=3, a=np.float32(0), b=(Fraction(3, 2), np.complex64(2j)),
                          c=(np.int64(2), 0.5))
    assert (M.a, M.b, M.c) == (0, (1.5, 2j), (2, 0.5))
    assert all(type(v) is complex for v in (M.a, *M.b, *M.c))


@given(st.lists(st.floats(min_value=1.0, max_value=50.0), min_size=1, max_size=7))
@settings(max_examples=50, deadline=None)
def test_params_matrix_roundtrip(A):
    p = ReciprocalParams(A=tuple(A))
    q = a_params(params_to_matrix(p))
    assert max(abs(x - y) for x, y in zip(p.A, q.A)) <= 1e-12 * max(1.0, max(A))


@given(st.lists(st.floats(min_value=1.0, max_value=FLOAT_MAX)
                | st.fractions(min_value=1, max_value=10 ** 6), min_size=1, max_size=12))
@settings(max_examples=25, deadline=None)
def test_params_to_matrix_is_the_checked_reciprocal_matrix(A):
    # params_to_matrix skips the entry checks; its entries pass them unchanged,
    # and build_reciprocal on its b gives the same matrix bit for bit
    M = params_to_matrix(ReciprocalParams(A=tuple(A)))
    for other in (TridiagonalMatrix(M.n, M.a, M.b, M.c), build_reciprocal(M.b)):
        assert repr((other.n, other.a, other.b, other.c)) == repr((M.n, M.a, M.b, M.c))
    assert all(type(v) is complex for v in (M.a, *M.b, *M.c))


def test_realified_pencil_reciprocal_offdiag():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    A = a_params(M).A
    for theta in (0.0, 0.3, 1.1, 2.9):
        T = realified_pencil(M, theta)
        want = [(Aj + math.cos(2 * theta)) / 2 for Aj in A]
        assert np.allclose(np.asarray(T.e) ** 2, want, atol=1e-12)


def test_realified_pencil_degenerate_angle():
    M = build_reciprocal([1])
    T = realified_pencil(M, math.pi / 2)
    assert T.e == (0.0,)


def _random_reciprocal(rng, n):
    b = rng.uniform(0.5, 2.5, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
    return build_reciprocal(b)


def test_realified_pencil_matches_dense_eigs():
    rng = np.random.default_rng(42)
    for _ in range(10):
        n = rng.integers(2, 9)
        M = _random_reciprocal(rng, n)
        theta = rng.uniform(0, 2 * np.pi)
        T = realified_pencil(M, theta)
        H = (np.exp(1j * theta) * M.dense() + (np.exp(1j * theta) * M.dense()).conj().T) / 2
        ours = eig_all(T).values
        dense = np.linalg.eigvalsh(H)
        assert np.max(np.abs(ours - dense)) <= 1e-9 * max(1.0, np.abs(H).sum())


def test_realified_pencil_even_in_theta():
    rng = np.random.default_rng(7)
    for _ in range(8):
        M = _random_reciprocal(rng, int(rng.integers(2, 7)))
        theta = rng.uniform(0, 2 * np.pi)
        a = eig_all(realified_pencil(M, theta)).values
        b = eig_all(realified_pencil(M, -theta)).values
        assert np.max(np.abs(a - b)) <= 1e-10


def test_pencil_spectrum_symmetric_about_zero():
    rng = np.random.default_rng(11)
    for _ in range(8):
        M = _random_reciprocal(rng, int(rng.integers(2, 7)))
        theta = rng.uniform(0, 2 * np.pi)
        vals = eig_all(realified_pencil(M, theta)).values
        assert np.max(np.abs(np.sort(vals) + np.sort(-vals)[::-1])) <= 1e-10


def test_is_normal_reciprocal():
    # a reciprocal matrix is normal (in fact hermitian) iff all A_j = 1
    for A, normal in (((1, 1, 1, 1), True), ((1, 1, 2), False)):
        p = ReciprocalParams(A=A)
        M = params_to_matrix(p).dense()
        assert p.all_ones is normal
        assert np.allclose(M @ M.conj().T, M.conj().T @ M) is normal


def test_normal_case_spectrum_cosines():
    n = 6
    M = params_to_matrix(ReciprocalParams(A=(1.0,) * (n - 1)))
    vals = eig_all(realified_pencil(M, 0.0)).values
    want = sorted(2 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1))
    assert np.allclose(vals, want, atol=1e-12)


def test_general_tridiagonal_accepted_by_pencil():
    M = TridiagonalMatrix(n=3, a=0.0, b=(1, 2), c=(1, 1))
    T = realified_pencil(M, 0.4)
    assert len(T.d) == 3


def test_phase_diagonal_accepts_array_of_angles():
    rng = np.random.default_rng(5)
    M = TridiagonalMatrix(n=5, a=0.3 - 0.2j, b=tuple(rng.normal(size=4) + 1j * rng.normal(size=4)),
                          c=tuple(rng.normal(size=4) + 1j * rng.normal(size=4)))
    theta = rng.uniform(0, 2 * np.pi, 37)
    D = phase_diagonal(M, theta)
    assert D.shape == (37, 5)
    for t, row in zip(theta, D):
        np.testing.assert_allclose(row, phase_diagonal(M, t), rtol=0, atol=1e-15)
        # D* Re(e^{i theta} M) D is the realified pencil
        H = (np.exp(1j * t) * M.dense() + (np.exp(1j * t) * M.dense()).conj().T) / 2
        R = row.conj()[:, None] * H * row[None, :]
        np.testing.assert_allclose(R, realified_pencil(M, t).dense(), rtol=0, atol=1e-14)
