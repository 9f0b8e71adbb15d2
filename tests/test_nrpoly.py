import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kippenhahn import (BivariatePoly, DegenerateInput, InvalidParam, ReciprocalParams, UniPoly,
                        a_params, build_reciprocal, classify, cubic_roots, divide_by_linear,
                        ellipse_centers_z, eval_residual, generating_poly,
                        params_to_matrix, reduce_mod_cubic, resultant_in_z, solve_m6, solve_uv)
from kippenhahn import rtables
from kippenhahn.manifold import residuals_m6
from kippenhahn.nrpoly import det_pencil, substitution_tau_coeffs
from kippenhahn.trimat import TridiagonalMatrix

F = Fraction
rationals = st.builds(F, st.integers(-20, 20), st.integers(1, 9))


def frac_params(n, rng):
    return ReciprocalParams(
        A=tuple(F(rng.randint(1, 40), rng.randint(1, 9)) + 1 for _ in range(n - 1)))


def test_generating_poly_n3():
    P = generating_poly(ReciprocalParams(A=(F(2), F(3))))
    # zeta - (A1 + A2)/2 - tau
    assert P.coeff(1, 0) == 1
    assert P.coeff(0, 0) == F(-5, 2)
    assert P.coeff(0, 1) == -1
    assert P.origin_component


def test_generating_poly_n4_closed_form():
    rng = random.Random(0)
    for _ in range(5):
        p = frac_params(4, rng)
        A1, A2, A3 = p.A
        P = generating_poly(p)
        assert P.coeff(2, 0) == 1
        assert P.coeff(1, 1) == F(-3, 2)
        assert P.coeff(1, 0) == -(A1 + A2 + A3) / 2
        assert P.coeff(0, 2) == F(1, 4)
        assert P.coeff(0, 1) == (A1 + A3) / 4
        assert P.coeff(0, 0) == A1 * A3 / 4
        assert not P.origin_component


def test_generating_poly_n6_closed_form():
    rng = random.Random(1)
    for _ in range(5):
        p = frac_params(6, rng)
        A1, A2, A3, A4, A5 = p.A
        P = generating_poly(p)
        S = A1 + A2 + A3 + A4 + A5
        assert P.coeff(3, 0) == 1
        assert P.coeff(2, 0) == -S / 2 and P.coeff(2, 1) == F(-5, 2)
        assert P.coeff(1, 2) == F(6, 4)
        assert P.coeff(1, 1) == (3 * (A1 + A5) + 2 * (A2 + A3 + A4)) / 4
        assert P.coeff(1, 0) == (A1 * (A3 + A4 + A5) + A2 * (A4 + A5) + A3 * A5) / 4
        # constant coefficient is -(A1+tau)(A3+tau)(A5+tau)/8
        assert P.coeff(0, 3) == F(-1, 8)
        assert P.coeff(0, 2) == -(A1 + A3 + A5) / 8
        assert P.coeff(0, 1) == -(A1 * A3 + A1 * A5 + A3 * A5) / 8
        assert P.coeff(0, 0) == -A1 * A3 * A5 / 8


def test_coefficients_depend_only_on_params():
    # two phase representatives of the same A_j give identical tables
    b1 = [1.5 * np.exp(0.3j), 2.0 * np.exp(-1.2j), 2.5, 1.5 * np.exp(2.2j)]
    b2 = [1.5, 2.0, 2.5 * np.exp(0.9j), 1.5]
    P1 = generating_poly(a_params(build_reciprocal(b1)))
    P2 = generating_poly(a_params(build_reciprocal(b2)))
    for i in range(P1.deg_zeta + 1):
        for j in range(P1.deg_tau + 1):
            assert abs(float(P1.coeff(i, j)) - float(P2.coeff(i, j))) <= 1e-12


def test_tau_degree_profile():
    rng = random.Random(2)
    for n in range(3, 9):
        p = frac_params(n, rng)
        P = generating_poly(p)
        k = n // 2
        assert P.deg_zeta == k
        for j in range(k + 1):
            degs = [P.zeta_coeffs[j].degree]
            assert degs[0] == k - j


def test_eval_residual_reference_example():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    P = generating_poly(a_params(M))
    rng = np.random.default_rng(17)
    for _ in range(100):
        theta = rng.uniform(0, 2 * np.pi)
        lam = rng.uniform(-3, 3)
        assert eval_residual(P, M, theta, lam) <= 1e-9


def test_eval_residual_zero_slice_even():
    M = params_to_matrix(ReciprocalParams(A=(2.0, 3.0, 1.5)))
    P = generating_poly(a_params(M))
    for theta in (0.1, 0.9, 2.2):
        assert eval_residual(P, M, theta, 0.0) <= 1e-12


def test_eval_residual_n3_hand_values():
    M = params_to_matrix(ReciprocalParams(A=(2.0, 3.0)))
    P = generating_poly(a_params(M))
    # at theta = 0, lambda = 1: det = -lambda (lambda^2 - (A1+A2)/2 - 1)
    want = -1.0 * (1.0 - 2.5 - 1.0)
    got = float(P.eval(1.0, 1.0)) * -1.0
    assert abs(got - want) <= 1e-12
    assert eval_residual(P, M, 0.0, 1.0) <= 1e-12


def test_divide_by_linear_zero_shift():
    p = ReciprocalParams(A=(F(3), F(2), F(5)))
    P = generating_poly(p)
    _, rem = divide_by_linear(P, F(0), F(0))
    assert rem.coeffs == P.zeta_coeffs[0].coeffs


def test_divide_by_linear_exact_factor_n5():
    # A1 = A4 gives the exact rational factor zeta - (3 tau + A1+A2+A3)/2
    p = ReciprocalParams(A=(F(2), F(3), F(5), F(2)))
    P = generating_poly(p)
    quotient, rem = divide_by_linear(P, F(3, 2), (F(2) + F(3) + F(5)) / 2)
    assert rem.is_zero
    # quotient carries the inner factor zeta - (tau + A1)/2
    assert quotient.zeta_coeffs[0].coeffs == (F(-1), F(-1, 2))


def test_divide_by_linear_allequal_n4_float():
    A0 = 2.0
    P = generating_poly(ReciprocalParams(A=(A0,) * 3))
    x = (3 + math.sqrt(5)) / 4
    _, rem = divide_by_linear(P, x, A0 * x)
    assert max((abs(c) for c in rem.coeffs), default=0.0) <= 1e-12


def test_divide_by_linear_remainder_matches_q_forms():
    # remainder of the n=6 polynomial at arbitrary (x, z): its tau^2 and
    # tau^3 coefficients are the closed forms q11 (z - z0) and s(x) / 8, with
    # z0 the center the classifier pins
    from kippenhahn.classify import _center_z
    from kippenhahn.rtables import p6_sums
    rng = np.random.default_rng(23)
    A = tuple(rng.uniform(1, 6, 5))
    P = generating_poly(ReciprocalParams(A=A))
    for _ in range(5):
        x, z = rng.uniform(-2, 2.5), rng.uniform(-3, 9)
        _, rem = divide_by_linear(P, float(x), float(z))
        q11 = (3 * x - 5) * x + 1.5
        cubic = ((8 * x - 20) * x + 12) * x - 1
        want = [q11 * (z - _center_z(p6_sums(A), x)), cubic / 8]
        got = [float(rem.coeff(k)) for k in (2, 3)]
        assert np.allclose(got, want, atol=1e-9 * max(1.0, max(abs(w) for w in want)))


def test_resultant_linear_convention():
    a, b = F(3), F(7)
    f = UniPoly("z", [-a, F(1)])
    g = UniPoly("z", [-b, F(1)])
    res = resultant_in_z(f, g)
    assert res == a - b


def test_resultant_degenerate():
    zero = UniPoly("z", [])
    with pytest.raises(DegenerateInput):
        resultant_in_z(zero, zero)


def test_pipeline_matches_tables_exactly():
    rng = random.Random(31)
    for _ in range(6):
        p = frac_params(6, rng)
        P = generating_poly(p)
        taus = substitution_tau_coeffs(P)
        r1 = reduce_mod_cubic(resultant_in_z(taus[2], taus[1]))
        r2 = reduce_mod_cubic(resultant_in_z(taus[2], taus[0]))
        t1, t2 = rtables.resultant_quadratics(p.A)
        for k in range(3):
            assert rtables.R1_PIPELINE_SCALE * r1.coeff(k) == t1[2 - k]
            assert rtables.R2_PIPELINE_SCALE * r2.coeff(k) == t2[2 - k]


@given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=60))
@settings(max_examples=20, deadline=None)
def test_resultant_homogeneity(num, den):
    t = F(num, den)
    rng = random.Random(num * 61 + den)
    A = tuple(F(rng.randint(1, 20), rng.randint(1, 5)) + 1 for _ in range(5))
    At = tuple(t * a for a in A)
    (r12, r11, r10), (r22, r21, r20) = rtables.resultant_quadratics(A)
    (s12, s11, s10), (s22, s21, s20) = rtables.resultant_quadratics(At)
    assert (s12, s11, s10) == (t**2 * r12, t**2 * r11, t**2 * r10)
    assert (s22, s21, s20) == (t**3 * r22, t**3 * r21, t**3 * r20)


def test_all_equal_tables_vanish():
    for A0 in (F(1), F(2), F(7, 3)):
        t1, t2 = rtables.resultant_quadratics((A0,) * 5)
        assert all(v == 0 for v in t1 + t2)


def test_reduce_mod_cubic_identities():
    cubic = UniPoly("x", [F(-1), F(12), F(-20), F(8)])
    assert reduce_mod_cubic(cubic).is_zero
    x3 = UniPoly("x", [F(0), F(0), F(0), F(1)])
    rem = reduce_mod_cubic(x3)
    assert rem.coeffs == (F(1, 8), F(-12, 8), F(20, 8))
    # numeric invariance at the smallest root
    x1 = cubic_roots()[0]
    f = UniPoly("x", [F(2), F(-1), F(3), F(5), F(1)])
    g = reduce_mod_cubic(f)
    assert abs(float(f(x1)) - float(g(x1))) <= 1e-10


def test_cubic_roots_reference_values():
    roots = cubic_roots()
    assert np.allclose(roots, (0.0990311, 0.777479, 1.62349), atol=1e-5)
    assert abs(sum(roots) - 2.5) <= 1e-12
    trig = sorted(1 + math.cos(2 * j * math.pi / 7) for j in (3, 2, 1))
    assert np.allclose(roots, trig, atol=1e-12)


def test_cubic_roots_constant_matches_polished_numeric_roots():
    # the computation the constant was written out from
    out = []
    for r in sorted(float(np.real(r)) for r in np.roots([8.0, -20.0, 12.0, -1.0])):
        for _ in range(3):
            r -= (((8 * r - 20) * r + 12) * r - 1) / ((24 * r - 40) * r + 12)
        out.append(r)
    assert cubic_roots() == tuple(out)
    assert cubic_roots() is cubic_roots()


def test_generating_poly_n2():
    P = generating_poly(ReciprocalParams(A=(F(9, 4),)))
    assert P.deg_zeta == 1
    assert P.coeff(1, 0) == 1
    assert P.coeff(0, 0) == F(-9, 8)
    assert P.coeff(0, 1) == F(-1, 2)
    assert not P.origin_component


def test_generating_poly_rejects_n1():
    with pytest.raises(ValueError):
        generating_poly(ReciprocalParams(A=()))


def test_bivariate_eval_exact_and_float():
    P = generating_poly(ReciprocalParams(A=(F(2), F(3))))
    assert P.eval(F(7), F(1, 2)) == F(7) - F(5, 2) - F(1, 2)
    assert abs(P.eval(7.0, 0.5) - 4.0) <= 1e-15


def _reference_eval(P, zeta, tau):
    """P(zeta, tau) as a plain Fraction sum over the coefficient table."""
    zeta, tau = F(zeta), F(tau)
    return sum((P.coeff(i, j) * zeta ** i * tau ** j
                for i in range(P.deg_zeta + 1) for j in range(P.deg_tau + 1)), F(0))


eval_floats = st.floats(-50.0, 50.0) | st.floats(-1e-3, 1e-3)


@given(st.integers(2, 14).flatmap(lambda n: st.lists(rationals.map(lambda a: abs(a) + 1),
                                                     min_size=n - 1, max_size=n - 1)),
       st.one_of(rationals, st.integers(-30, 30)), st.one_of(rationals, st.integers(-3, 3)),
       eval_floats, eval_floats)
@settings(max_examples=150, deadline=None)
def test_eval_is_exact_and_rounds_once(A, zq, tq, zf, tf):
    P = generating_poly(ReciprocalParams(A=tuple(A)))
    got = P.eval(zq, tq)
    assert type(got) is F and got == _reference_eval(P, zq, tq)
    for zeta, tau in ((zf, tf), (zf, tq), (zq, tf),
                      (np.float64(zf), np.float64(tf)), (np.float64(zf), tq)):
        got = P.eval(zeta, tau)
        assert type(got) is float
        # the exact value at the binary inputs, correctly rounded
        assert got == float(_reference_eval(P, zeta, tau))


def test_eval_past_the_float_range_rounds_to_infinity():
    # P = zeta^3 + ...: the exact value at -1e200 is about -1e600
    P = generating_poly(ReciprocalParams(A=(F(2),) * 5))
    assert P.eval(-1e200, 0.5) == -math.inf and P.eval(1e200, F(1)) == math.inf


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
def test_eval_rejects_non_finite_inputs(bad):
    P = generating_poly(ReciprocalParams(A=(F(2), F(3), F(5))))
    with pytest.raises(ValueError):
        P.eval(bad, 0.5)
    with pytest.raises(ValueError):
        P.eval(F(1), bad)


# the exact entry points, each reading one input v (as A_1 at n = 6)
_EXACT_CALLS = {
    "eval": lambda P, v: P.eval(v, F(1, 2)),
    "divide_by_linear": lambda P, v: divide_by_linear(P, F(3, 2), v)[1],
    "reduce_mod_cubic": lambda P, v: reduce_mod_cubic(UniPoly("x", [1, v, 0, 2, 1])),
    "residuals_m6": lambda P, v: residuals_m6((v, 2, 3, 5, 7)),
    "resultant_quadratics": lambda P, v: rtables.resultant_quadratics((v, 2, 3, 5, 7)),
    "ReciprocalParams": lambda P, v: generating_poly(ReciprocalParams(A=(v, 2, 3))),
    "solve_m6": lambda P, v: solve_m6({"A1": v, "A5": 11}),
    "classify_tol": lambda P, v: classify(ReciprocalParams(A=(2, 3, 5)), tol=v),
    "uv_residuals": lambda P, v: solve_uv(cubic_roots()[2]).residuals(v, 2),
    "eval_residual": lambda P, v: eval_residual(
        P, params_to_matrix(ReciprocalParams(A=(2, 3, 5))), 0.3, v),
}
# the callers that report a value that is not a real number as an input
# error; the exact layer raises TypeError
_NOT_REAL_ERROR = {"ReciprocalParams": InvalidParam, "solve_m6": InvalidParam}


class _FractionSubclass(F):
    pass


@pytest.mark.parametrize("call", _EXACT_CALLS)
@pytest.mark.parametrize("bad, error", [
    ("2", TypeError), (b"2", TypeError), (1j, TypeError), (np.complex128(1), TypeError),
    (Decimal("0.5"), TypeError), (math.nan, ValueError), (math.inf, ValueError),
    (-math.inf, ValueError), (np.float32(math.inf), ValueError), (True, TypeError)])
def test_exact_inputs_share_one_accept_set(call, bad, error):
    P = generating_poly(ReciprocalParams(A=(F(2), F(3), F(5))))
    with pytest.raises(_NOT_REAL_ERROR.get(call, error) if error is TypeError else error):
        _EXACT_CALLS[call](P, bad)


@pytest.mark.parametrize("call", _EXACT_CALLS)
# NumPy scalars and Fraction subclasses are not the exact types _real tests
# first; every value lies in every entry's domain (A_j >= 1, tol > 0), and
# 2^64 - 1 has no float
@pytest.mark.parametrize("v", [np.int64(3), np.int8(7), np.float32(1.1), np.float64(2.5),
                               np.uint64(2 ** 64 - 1), _FractionSubclass(10, 7)])
def test_exact_inputs_take_numpy_scalars_exactly(call, v):
    P = generating_poly(ReciprocalParams(A=(F(2), F(3), F(5))))
    exact = (F(float(v)) if isinstance(v, np.floating)
             else F(int(v)) if isinstance(v, np.integer) else F(v))
    got, want = _EXACT_CALLS[call](P, v), _EXACT_CALLS[call](P, exact)
    if call == "eval" and isinstance(v, np.floating):
        want = float(want)  # the exact value rounded once
    assert got == want and type(got) is type(want)
    if isinstance(got, UniPoly):
        assert all(type(c) is F for c in got.coeffs)


def test_bivariate_equality_and_hash_are_mathematical():
    # L = 2 against L = 1: both are zeta - 2 - tau
    P, Q = (generating_poly(ReciprocalParams(A=A)) for A in ((F(3, 2), F(5, 2)), (1, 3)))
    assert P == Q and hash(P) == hash(Q) and len({P, Q}) == 1
    assert P != generating_poly(ReciprocalParams(A=(1, 4)))
    # the constructor reduces to lowest terms and trims trailing zeros
    R = BivariatePoly(6, [[-12, -6], [6, 0, 0]], origin_component=True, n=3)
    assert R == P and hash(R) == hash(P) and (R.D, R.rows) == (1, ((-2, -1), (1,)))


def test_substitution_tau_coeffs_small_sizes():
    # the tau-coefficients of P(x tau + z, tau) are the classifier systems:
    # for n = 4 the leading one is x(x - 3/2) + 1/4, for n = 5 x(x - 2) + 3/4
    rng = random.Random(5)
    for n, lead in ((4, (F(1, 4), F(-3, 2), F(1))), (5, (F(3, 4), F(-2), F(1)))):
        p = frac_params(n, rng)
        A = p.A
        taus = substitution_tau_coeffs(generating_poly(p))
        top = taus[2]
        assert top.degree == 0
        assert top.coeff(0) == UniPoly("x", lead)
        # the z-free tail: constant tau-coefficient at z = 0 must equal P(0, 0)
        tail = taus[0]
        val = tail.coeff(0)
        if n == 4:
            assert val == UniPoly("x", [A[0] * A[2] / 4])
        else:
            assert val == UniPoly("x", [(A[0] * A[2] + A[0] * A[3] + A[1] * A[3]) / 4])


def _reference_generating_poly(p):
    """The determinant recursion over Fraction/UniPoly, with beta_j = (A_j + tau)/2."""
    half = F(1, 2)
    beta = [UniPoly("tau", [F(Aj) * half, half]) for Aj in p.A]
    one = UniPoly("tau", [F(1)])
    zero = UniPoly("tau", [])
    g_prev, g_cur = [one], [-one]
    for m in range(2, p.n + 1):
        g_next = ([zero] if m % 2 == 0 else []) + [-c for c in g_cur]
        bm = beta[m - 2]
        for i, c in enumerate(g_prev):
            g_next[i] = g_next[i] - bm * c
        g_prev, g_cur = g_cur, g_next
    sign = 1 if p.n % 2 == 0 else -1
    return [sign * c for c in g_cur]


# A_j >= 1 as Fractions, ints, dyadics and floats up to 1e200
param_values = st.one_of(
    st.builds(lambda num, den: F(num, den) + 1, st.integers(0, 10 ** 6), st.integers(1, 10 ** 4)),
    st.integers(1, 10 ** 9),
    st.builds(lambda num, e: F(num, 2 ** e) + 1, st.integers(0, 2 ** 40), st.integers(0, 60)),
    st.floats(1.0, 1e200),
)


@st.composite
def param_vectors(draw, n_min=2, n_max=14):
    n = draw(st.integers(n_min, n_max))
    return ReciprocalParams(A=tuple(draw(st.lists(param_values, min_size=n - 1,
                                                  max_size=n - 1))))


@given(param_vectors())
@settings(max_examples=150, deadline=None)
def test_generating_poly_matches_the_fraction_recursion(p):
    P = generating_poly(p)
    want = _reference_generating_poly(p)
    assert P.n == p.n and P.origin_component == (p.n % 2 == 1)
    assert P.zeta_coeffs == tuple(want)  # equal coefficient tables, same structure
    assert all(type(c) is F for q in P.zeta_coeffs for c in q.coeffs)


@given(param_vectors(n_max=12), st.integers(1, 10 ** 4), st.integers(1, 10 ** 4))
@settings(max_examples=100, deadline=None)
def test_generating_poly_is_weight_homogeneous(p, num, den):
    # the zeta^i tau^j coefficient has degree floor(n/2) - i - j in the A_j
    t = 1 + F(num, den)
    P = generating_poly(p)
    Pt = generating_poly(ReciprocalParams(A=tuple(t * F(a) for a in p.A)))
    k = p.n // 2
    assert (Pt.deg_zeta, Pt.deg_tau) == (P.deg_zeta, P.deg_tau)
    for i in range(P.deg_zeta + 1):
        for j in range(P.deg_tau + 1):
            assert Pt.coeff(i, j) == t ** (k - i - j) * P.coeff(i, j)


@given(param_vectors(n_max=12), rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_substitution_matches_divide_remainder_numerically(p, x0, z0):
    # exact: the tau-coefficients of P(x tau + z, tau) at (x0, z0) are the
    # remainder of P on division by zeta - (x0 tau + z0)
    P = generating_poly(p)
    taus = substitution_tau_coeffs(P)
    assert len(taus) == P.deg_zeta + 2
    _, rem = divide_by_linear(P, x0, z0)
    for k, tau_k in enumerate(taus):
        want = tau_k(z0)
        if isinstance(want, UniPoly):
            want = want(x0)
        assert rem.coeff(k) == want


@given(param_vectors(n_max=12), rationals | eval_floats, rationals | eval_floats)
@settings(max_examples=100, deadline=None)
def test_divide_by_linear_quotient(p, x, z):
    # (zeta - (x tau + z)) Q + R = P exactly, in UniPoly arithmetic over Q[tau]
    P = generating_poly(p)
    Q, R = divide_by_linear(P, x, z)
    assert (Q.n, Q.origin_component, Q.deg_zeta) == (P.n, P.origin_component, P.deg_zeta - 1)

    def in_zeta(coeffs):
        return UniPoly("zeta", coeffs)

    divisor = in_zeta([UniPoly("tau", [-F(z), -F(x)]), UniPoly("tau", [F(1)])])
    assert divisor * in_zeta(Q.zeta_coeffs) + in_zeta([R]) == in_zeta(P.zeta_coeffs)


@st.composite
def pencil_points(draw):
    n = draw(st.integers(3, 40))
    A = draw(st.lists(st.floats(1.0, 100.0), min_size=n - 1, max_size=n - 1))
    return A, draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(-20.0, 20.0))


@given(pencil_points())
@example(([3.0] * 39, 2.0, 2.0))
@settings(max_examples=100, deadline=None)
def test_eval_residual_small_for_n_up_to_40(case):
    # the library form of `verify`'s determinant check; a float Horner on
    # the coefficients failed the bound from about n = 20 (residual 4.3e-2
    # at the example)
    A, theta, lam = case
    p = ReciprocalParams(A=tuple(A))
    assert eval_residual(generating_poly(p), params_to_matrix(p), theta, lam) <= 1e-9


entries = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def general_pencils(draw):
    n = draw(st.integers(1, 12))
    b = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    c = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    M = TridiagonalMatrix(n=n, a=draw(entries), b=tuple(b), c=tuple(c))
    return M, draw(st.floats(0.0, 2 * math.pi)), draw(st.floats(-2.0, 2.0))


@given(general_pencils())
@example((TridiagonalMatrix(n=2, a=5e-324, b=(5e-324,), c=(5e-324,)), 0.0, 5e-324))
@settings(max_examples=200, deadline=None)
def test_det_pencil_matches_dense_determinant(case):
    # complex a, non-reciprocal b and c: the recursion against the product
    # of the eigenvalues of the dense Hermitian Re(e^{i theta} M) - lambda I;
    # LAPACK scales tiny matrices there, where LU divides by a subnormal
    # pivot (np.linalg.det gives nan on the example above)
    M, theta, lam = case
    H = np.exp(1j * theta) * M.dense()
    H = (H + H.conj().T) / 2 - lam * np.eye(M.n)
    want = float(np.prod(np.linalg.eigvalsh(H)))
    assert abs(det_pencil(M, theta, lam) - want) <= 1e-10 * max(1.0, abs(want))


x_polys = st.lists(rationals, max_size=4).map(lambda cs: UniPoly("x", cs))


def _sylvester_det(f, g):
    """Sylvester determinant, f-rows first, of descending coefficient lists,
    by Fraction Gaussian elimination."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = ([[F(0)] * i + f + [F(0)] * (size - m - 1 - i) for i in range(n)]
            + [[F(0)] * i + g + [F(0)] * (size - n - 1 - i) for i in range(m)])
    det = F(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, size):
            t = rows[r][c] / rows[c][c]
            rows[r] = [a - t * b for a, b in zip(rows[r], rows[c])]
    return det


@given(x_polys.filter(lambda p: not p.is_zero), x_polys,
       st.lists(x_polys, min_size=1, max_size=5).filter(lambda cs: not cs[-1].is_zero),
       st.lists(rationals, min_size=3, max_size=3))
@settings(max_examples=60, deadline=None)
def test_resultant_is_the_sylvester_determinant(f1, f0, g_coeffs, xs):
    f, g = UniPoly("z", [f0, f1]), UniPoly("z", g_coeffs)
    res = resultant_in_z(f, g)
    for x0 in xs:
        # the determinant of the formal-degree matrix commutes with x -> x0
        want = _sylvester_det([F(c(x0)) for c in reversed(f.coeffs)],
                              [F(c(x0)) for c in reversed(g.coeffs)])
        assert res(x0) == want


def _tower_resultant(f, g):
    """resultant_in_z's former body: the same Horner, over UniPoly in x with
    Fraction coefficients."""
    def as_x(c):
        return c if isinstance(c, UniPoly) else UniPoly("x", [F(c)])

    f0, f1 = map(as_x, f.coeffs)
    out, f1_power = as_x(g.coeffs[-1]), UniPoly("x", [F(1)])
    for c in reversed(g.coeffs[:-1]):
        f1_power = f1_power * f1
        out = out * -f0 + as_x(c) * f1_power
    return out


# degree 0-4 in x, or a bare rational
x_coeffs = st.one_of(rationals, st.integers(-9, 9),
                     st.lists(rationals, max_size=5).map(lambda cs: UniPoly("x", cs)))


@given(x_coeffs.filter(lambda c: c != 0), x_coeffs,
       st.lists(x_coeffs, min_size=1, max_size=5).filter(lambda cs: cs[-1] != 0))
@settings(max_examples=150, deadline=None)
def test_resultant_matches_the_fraction_tower(f1, f0, g_coeffs):
    f, g = UniPoly("z", [f0, f1]), UniPoly("z", g_coeffs)
    res = resultant_in_z(f, g)
    assert res == _tower_resultant(f, g)
    assert res.var == "x" and all(type(c) is F for c in res.coeffs)


@pytest.mark.parametrize("f", [UniPoly("z", [F(3)]), UniPoly("z", [F(1), F(2), F(1)])])
def test_resultant_needs_f_linear_in_z(f):
    g = UniPoly("z", [F(1), F(1)])
    with pytest.raises(ValueError, match=f"degree {f.degree}"):
        resultant_in_z(f, g)


CUBIC = UniPoly("x", [F(-1), F(12), F(-20), F(8)])


cubic_inputs = rationals | st.floats(-1e3, 1e3) | st.integers(-9, 9).map(np.int64)


@given(st.lists(cubic_inputs, max_size=9).map(lambda cs: UniPoly("x", cs)), x_polys)
@settings(max_examples=80, deadline=None)
def test_reduce_mod_cubic_is_the_remainder(f, g):
    r = reduce_mod_cubic(f)
    assert r.degree <= 2 and all(type(c) is F for c in r.coeffs)
    exact = UniPoly("x", [F(int(c)) if isinstance(c, np.integer) else F(c) for c in f.coeffs])
    assert reduce_mod_cubic(exact + g * CUBIC) == r
    if f.degree <= 2:
        assert r == exact


@given(st.lists(st.floats(1.0, 50.0), min_size=5, max_size=5))
@settings(max_examples=100, deadline=None)
def test_ellipse_centers_z_against_high_precision(A):
    # reference: the Lagrange form f(x_j) / ((x_j - x_i)(x_j - x_k)),
    # f(t) = s1 t^2 - s2 t + s3, at 50-digit roots of the slope cubic
    with localcontext() as ctx:
        ctx.prec = 50
        roots = []
        for r in cubic_roots():
            x = Decimal(r)
            for _ in range(6):
                x -= (((8 * x - 20) * x + 12) * x - 1) / ((24 * x - 40) * x + 12)
            roots.append(x)
        A1, A2, A3, A4, A5 = (Decimal(a) for a in A)
        s1 = (A1 + A2 + A3 + A4 + A5) / 2
        s2 = (3 * (A1 + A5) + 2 * (A2 + A3 + A4)) / 4
        s3 = (A1 + A3 + A5) / 8
        want = []
        for j, xj in enumerate(roots):
            xi, xk = (roots[m] for m in range(3) if m != j)
            want.append(float(((s1 * xj - s2) * xj + s3) / ((xj - xi) * (xj - xk))))
    got = ellipse_centers_z(ReciprocalParams(A=tuple(A)))
    for z, w in zip(got, want):
        # relative, floored at 1: z_1 crosses 0 inside the domain
        assert abs(z - w) <= 1e-12 * max(1.0, abs(w))
