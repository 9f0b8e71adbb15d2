import math
import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kippenhahn import (NotRealizable, ReciprocalParams, UniPoly, a_params,
                        branch_points, classify, contains_ellipse6, cubic_roots,
                        fit_ellipse_axis_aligned, realize, reduce_mod_cubic,
                        residuals_m6, sample_curve, solve_m6, solve_uv,
                        three_ellipses6)
from kippenhahn import manifold, rtables

F = Fraction

REF_FIXED = {"A1": 20.0, "A5": 40.0}
# digits frozen from a high-precision solve of the three conditions with
# A1 = 20, A5 = 40 (the published A3 has a first-decimal digit typo)
TRUE_A2 = 64.939592074349341
TRUE_A3 = 36.038754716096765
TRUE_A4 = 28.900837358252576

# every solution an earlier A3-sweep solver returned for three fixed pairs
# (grid 200, bracket (scale/10, 10 scale)); each must still be found, among
# the twelve points the closed form gives
REFERENCE_SOLUTIONS = {
    (("A2", 5.0), ("A4", 9.0)): [
        (6.231914113471989, 5.0, 5.792249056782078, 9.0, 4.0120815851213365),
        (6.780167471650028, 5.0, 2.780167471649295, 9.0, 5.548253358171063),
        (7.572416528431145, 5.0, 17.987918414870258, 9.0, 10.780167471650923),
        (8.451746641829367, 5.0, 11.219832528347975, 9.0, 7.219832528349169),
        (25.195669358088214, 5.0, 11.219832528349198, 9.0, 16.207750943219033),
        (34.183587772959285, 5.0, 17.98791841487015, 9.0, 13.987918414869801)],
    (("A1", 20.0), ("A5", 40.0)): [
        (20.0, 3.96124528390231, 8.90083735825094, -4.939592074352398, 40.0),
        (20.0, 3.961245283903548, 84.93959207434824, 28.900837358252375, 40.0),
        (20.0, 15.060407925652175, 23.96124528390643, 11.09916264174956, 40.0),
        (20.0, 48.90083735825237, 84.93959207434824, -16.03875471609645, 40.0),
        (20.0, 48.90083735826135, 36.03875471610631, 44.93959207435593, 40.0),
        (20.0, 64.9395920743477, 51.09916264174598, 56.038754716095596, 40.0),
        (20.0, 64.9395920743559, 36.03875471610631, 28.900837358261363, 40.0),
        (20.0, 76.0387547160959, 51.09916264174642, 44.939592074348305, 40.0)],
    (("A1", 3.0), ("A2", 7.0)): [
        (3.0, 7.0, 4.427583471568941, -5.987918414869688, 10.207750943219239),
        (3.0, 7.0, 4.427583471570326, 3.792249056782139, 4.780167471649936),
        (3.0, 7.0, 5.219832528348309, 4.780167471648828, 4.427583471569466),
        (3.0, 7.0, 5.219832528350526, 6.451746641828878, 5.768085886519044),
        (3.0, 7.0, 5.768085886520332, 9.219832528349645, -1.9879184148700806),
        (3.0, 7.0, 11.987918414869647, -1.9879184148698483, 5.768085886520431),
        (3.0, 7.0, 11.987918414869885, 32.18358777295921, -13.195669358089297)],
}


def test_residuals_all_equal_ray():
    for A0 in (1, 2, 3.5):
        assert residuals_m6((A0,) * 5, exact=True) == (0, 0, 0, 0)


def test_residuals_reference_solution_small():
    r = residuals_m6((20, TRUE_A2, TRUE_A3, TRUE_A4, 40))
    s = 20 + TRUE_A2 + TRUE_A3 + TRUE_A4 + 40
    assert abs(r[0]) <= 1e-9 * s**2
    assert abs(r[1]) <= 1e-9 * s**2
    assert abs(r[2]) <= 1e-9 * s**3


def test_float_residuals_past_the_float_range_raise_value_error():
    A = (1e200, 2e200, 3e200, 4e200, 5e200)
    with pytest.raises(ValueError, match="float range"):
        residuals_m6(A)
    # the exact residuals have no range to leave
    assert len(residuals_m6(A, exact=True)) == 4


def test_uv_residuals_past_the_float_range_raise_value_error():
    # R2 at (u, v) = (1e120, 3e110) is near 1e360
    with pytest.raises(ValueError, match="float range"):
        solve_uv(cubic_roots()[2]).residuals(1e120, 3e110)


# reals of every size _ratio takes exactly: normal floats of either sign,
# subnormals, ints and Fractions
_EXACT_REALS = st.one_of(
    st.floats(min_value=1e-300, max_value=1e300), st.floats(min_value=-1e300, max_value=-1e-300),
    st.floats(min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308),
    st.integers(min_value=-10**12, max_value=10**12),
    st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**9))
# the last float t before the cubic residual at t (1, 2, 3, 4, 5) leaves
# the float range, and the next one
_T_IN, _T_OUT = 6.736682475502469e+101, 6.73668247550247e+101


def _assert_fraction_route_rounded_once(call, exact):
    """call() gives the floats of the exact values bit for bit, and raises
    ValueError exactly where converting one of them overflows."""
    try:
        want = [float(f).hex() for f in exact]
    except OverflowError:
        with pytest.raises(ValueError, match="float range"):
            call()
        return
    assert [v.hex() for v in call()] == want


@given(st.tuples(*[_EXACT_REALS] * 5), st.sampled_from(cubic_roots()))
@example(tuple(_T_IN * k for k in (1, 2, 3, 4, 5)), cubic_roots()[0])
@example(tuple(_T_OUT * k for k in (1, 2, 3, 4, 5)), cubic_roots()[0])
@settings(max_examples=300, deadline=None)
def test_float_residuals_are_the_fraction_route_rounded_once(A, root):
    _assert_fraction_route_rounded_once(lambda: residuals_m6(A), rtables.ell3_residuals(A))
    u, v = A[:2]
    _assert_fraction_route_rounded_once(
        lambda: solve_uv(root).residuals(u, v),
        rtables.eval_resultants_at((u, v, 1.0, v, u), Fraction(root)))


@given(_EXACT_REALS, _EXACT_REALS, st.sampled_from(cubic_roots()))
@settings(max_examples=300, deadline=None)
def test_uv_residuals_are_eval_resultants_at_bit_for_bit(u, v, root):
    # one evaluator of R1 and R2 at a float x: exact, rounded once
    want = rtables.eval_resultants_at((u, v, 1.0, v, u), root)
    assert all(type(r) is float for r in want)
    if not all(map(math.isfinite, want)):
        with pytest.raises(ValueError, match="float range"):
            solve_uv(root).residuals(u, v)
        return
    assert [r.hex() for r in solve_uv(root).residuals(u, v)] == [r.hex() for r in want]


def test_residuals_generic_point_large():
    r = residuals_m6((1, 2, 3, 4, 5))
    s = 15.0
    assert max(abs(r[0]), abs(r[1])) > 0.1 * s**2 or abs(r[2]) > 0.1 * s**3


def test_difference_identity_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        A = tuple(rng.uniform(1, 10, 5))
        qa, qb, _, qd = residuals_m6(A, exact=True)
        assert qa - qb == qd


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
@settings(max_examples=30, deadline=None)
def test_residual_homogeneity_exact(num, den):
    t = F(num, den)
    A = (F(3), F(5, 2), F(7, 3), F(4), F(9, 5))
    base = residuals_m6(A, exact=True)
    scaled = residuals_m6(tuple(t * a for a in A), exact=True)
    assert scaled == (t**2 * base[0], t**2 * base[1], t**3 * base[2], t**2 * base[3])


def test_solve_m6_recovers_reference_point():
    sols = solve_m6(REF_FIXED)
    best = min(sols, key=lambda s: abs(s.A[2] - TRUE_A3) + abs(s.A[1] - TRUE_A2))
    assert abs(best.A[1] - TRUE_A2) <= 5e-4 * TRUE_A2
    assert abs(best.A[2] - TRUE_A3) <= 5e-4 * TRUE_A3
    assert abs(best.A[3] - TRUE_A4) <= 5e-4 * TRUE_A4
    assert best.realizable
    assert best.scaled_norm() <= 1e-9
    assert three_ellipses6(ReciprocalParams(A=best.A)).kind == "all_components_elliptic"
    # every returned solution re-verifies through the residual evaluator
    for s in sols:
        assert s.scaled_norm() <= 1e-9


def test_solve_m6_homogeneity_half_scale():
    sols = solve_m6({"A1": 10.0, "A5": 20.0})
    target = (10.0, TRUE_A2 / 2, TRUE_A3 / 2, TRUE_A4 / 2, 20.0)
    best = min(sols, key=lambda s: max(abs(a - b) for a, b in zip(s.A, target)))
    assert max(abs(a - b) for a, b in zip(best.A, target)) <= 5e-4 * 40
    # every float step of the solver commutes with a power-of-two scale, and
    # the residuals are exact: at 2^k A scales bit for bit, the quadratic
    # residuals by 4^k and the cubic by 8^k (nothing under- or overflows here)
    base = solve_m6(REF_FIXED)
    for k in (-50, -45, -1, 60):
        sols = solve_m6({"A1": math.ldexp(20.0, k), "A5": math.ldexp(40.0, k)})
        assert len(sols) == 12, k
        for s, b in zip(sols, base):
            assert s.branch == b.branch
            assert [a.hex() for a in s.A] == [math.ldexp(a, k).hex() for a in b.A]
            assert [r.hex() for r in s.residuals] == [
                math.ldexp(r, e * k).hex() for r, e in zip(b.residuals, (2, 2, 3, 2))]


def test_solve_m6_equal_pair_tolerance_is_relative():
    # 1e-300 and 3e-300 differ threefold: twelve points and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(solve_m6({"A1": 1e-300, "A5": 3e-300})) == 12
    # 1e6 and 1e6 (1 + 2^-45) differ by 3e-8, 3e-14 of either: the ray point
    with pytest.warns(UserWarning, match="symmetry hyperplane"):
        sols = solve_m6({"A1": 1e6, "A5": 1e6 * (1 + 2.0**-45)})
    assert [s.A for s in sols] == [(1e6,) * 5]


def test_solve_m6_plane_point_past_the_float_range_names_its_plane():
    # finite fixed values: a - b overflows, and with it every plane's t
    with pytest.raises(ValueError) as info:
        solve_m6({"A1": 1e308, "A5": -1e308})
    assert str(info.value) == "the point on plane d1 at x1 = 0.0990311321 is past the float range"
    # t = (a - b) / (d_2 - d_4) overflows where d_2 - d_4 is small (0.14 on
    # plane d1 at x2), not on plane d1 at x1 before it (1.16)
    with pytest.raises(ValueError) as info:
        solve_m6({"A2": 1e308, "A4": -1e307})
    assert str(info.value) == "the point on plane d1 at x2 = 0.777479066 is past the float range"


def test_solve_m6_symmetric_pair_warns_and_gives_ray():
    with pytest.warns(UserWarning):
        sols = solve_m6({"A2": 3.0, "A4": 3.0})
    for s in sols:
        assert max(abs(a - 3.0) for a in s.A) <= 1e-3
    # every plane meets the hyperplane A2 = A4 on the all-equal ray only
    assert [s.A for s in sols] == [(3.0,) * 5]


def test_solve_m6_equal_values_give_all_equal_point():
    sols = solve_m6({"A1": 3.0, "A2": 3.0})
    assert [(s.A, s.residuals) for s in sols] == [((3.0,) * 5, (0.0,) * 4)]


def test_solve_m6_rejects_bad_names():
    with pytest.raises(ValueError):
        solve_m6({"A1": 2.0, "A3": 3.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_m6_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        solve_m6({"A1": bad, "A5": 4.0})


@pytest.mark.parametrize("big", [10**400, Fraction(10**400, 3)], ids=["int", "fraction"])
def test_solve_m6_rejects_exact_values_past_the_float_range(big):
    with pytest.raises(ValueError, match="A1 is past the float range"):
        solve_m6({"A1": big, "A5": 2})


@pytest.mark.parametrize("fixed", [{"A1": "20", "A5": True}, {"A1": 20, "A5": True},
                                   {"A2": 2 + 0j, "A4": 3.0}, {"A1": b"2", "A5": 3}],
                         ids=["str", "bool", "complex", "bytes"])
def test_solve_m6_rejects_values_that_are_not_real(fixed):
    # trimat's rule for A_j: text, bool and complex are not real numbers
    with pytest.raises(ValueError, match="is not a real number"):
        solve_m6(fixed)


@pytest.mark.parametrize("pair", sorted(REFERENCE_SOLUTIONS))
def test_solve_m6_finds_every_reference_solution(pair):
    fixed = dict(pair)
    scale = max(fixed.values())
    sols = solve_m6(fixed)
    assert len(sols) == 12
    for R in REFERENCE_SOLUTIONS[pair]:
        assert any(max(abs(a - r) for a, r in zip(s.A, R)) <= 1e-7 * scale for s in sols), R
    for s in sols:
        assert s.scaled_norm() <= 1e-9


def test_solve_uv_line_structure_all_roots():
    for idx, x in enumerate(cubic_roots()):
        res = solve_uv(x)
        assert res.line is not None, f"root {idx}"
        a, b, c = res.line
        nrm = math.hypot(1.0, 2 * x - 1.0)
        want = (1.0 / nrm, (2 * x - 1.0) / nrm, -2 * x / nrm)
        assert max(abs(p - q) for p, q in zip(res.line, want)) <= 1e-9
        assert res.all_equal_point == (1.0, 1.0)


@pytest.mark.parametrize("idx", range(3))
def test_solve_uv_line_passes_through_all_equal_point(idx):
    res = solve_uv(cubic_roots()[idx])
    a, b, c = res.line
    assert abs(a + b + c) <= 1e-9


def test_solve_uv_contains_reference_pairs():
    res = solve_uv(cubic_roots()[2])
    assert res.distance(1.0, 1.0) <= 1e-10
    assert res.distance(1.7724359313231006, 0.6562336702811362) <= 1e-9
    assert res.distance(8.84369, -2.49077) <= 5e-5
    assert res.distance(-1.80414, 2.24796) <= 5e-5
    assert res.realizable(1.7724359313231006, 0.6562336702811362)
    assert not res.realizable(8.84369, -2.49077)
    assert not res.realizable(-1.80414, 2.24796)


def test_solve_uv_locus_points_give_single_ellipse_matrices():
    # scaled line points with all entries >= 1 sit on the single-ellipse
    # variety but not the three-ellipse one
    res = solve_uv(cubic_roots()[2])
    a, b, c = res.line
    for v in (0.65, 0.8):
        u = (-c - b * v) / a
        A = tuple(5.0 * t for t in (u, v, 1.0, v, u))
        assert min(A) >= 1.0
        cl = contains_ellipse6(ReciprocalParams(A=A), tol=1e-7)
        assert cl.kind == "boundary_ellipse_only"
        assert three_ellipses6(ReciprocalParams(A=A)).kind == "non_elliptic"


X3 = cubic_roots()[2]
# single-ellipse points: the reference pair of the root-3 slice and two points
# of its line u + (2 x3 - 1) v = 2 x3, scaled by 5 as in the test above
SINGLE_N6 = [tuple(5.0 * t for t in (u, v, 1.0, v, u))
             for u, v in [(1.7724359313231006, 0.6562336702811362)]
             + [(2 * X3 - (2 * X3 - 1) * v, v) for v in (0.65, 0.8)]]
KNOWN_N6 = ([(A, "all_components_elliptic") for sols in REFERENCE_SOLUTIONS.values()
             for A in sols if min(A) >= 1.0]
            + [(A, "boundary_ellipse_only") for A in SINGLE_N6])
PHI = (math.sqrt(5.0) + 1.0) / 2.0
UNIT = st.floats(min_value=1.0, max_value=100.0)
# n = 4: A2 on one of the two golden-ratio planes of classify4
GOLDEN_N4 = st.tuples(UNIT, UNIT, st.booleans()).map(
    lambda t: (t[0], PHI * t[0] - t[1] / PHI if t[2] else PHI * t[1] - t[0] / PHI, t[1]))
# n = 5: A1 = A4, or A1 - A4 = 2 (A3 - A2)
HYPER_N5 = st.one_of(st.tuples(UNIT, UNIT, UNIT).map(lambda t: (t[0], t[1], t[2], t[0])),
                     st.tuples(UNIT, UNIT, UNIT).map(
                         lambda t: (t[2] + 2.0 * (t[1] - t[0]), t[0], t[1], t[2])))
# (points at or near the all-equal ray are the toeplitz case instead)
ELLIPTIC_N45 = st.one_of(GOLDEN_N4, HYPER_N5).filter(
    lambda A: min(A) >= 1.0 and max(A) - min(A) > 1e-9 * max(A)).map(
    lambda A: (A, "all_components_elliptic"))
GENERIC = st.integers(min_value=3, max_value=6).flatmap(
    lambda n: st.tuples(*[UNIT] * (n - 1))).map(lambda A: (A, None))


@given(st.one_of(st.sampled_from(KNOWN_N6), ELLIPTIC_N45, GENERIC),
       st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=200, deadline=None)
def test_classify6_kind_invariant_under_reversal_and_scaling(point, s):
    # n = 3 to 6: on-manifold points keep their kind, generic ones any kind
    A, want = point
    p = ReciprocalParams(A=A)
    assume(not p.all_ones)  # the normal matrix; sA is all-equal instead
    kind = classify(p).kind
    assert want is None or kind == want
    assert classify(ReciprocalParams(A=A[::-1])).kind == kind
    assert classify(ReciprocalParams(A=tuple(s * a for a in A))).kind == kind


# realizable points of the variety that the A3 sweep missed inside its own
# bracket, with the accuracy they are quoted to
SWEEP_MISSED = {
    (("A2", 5.0), ("A4", 9.0)): [((4.36466559, 5, 5.79224906, 9, 1.79224906), 1e-7),
                                 ((9.98791841, 5, 8.20775094, 9, 7.76808589), 1e-7),
                                 ((12.2077509, 5, 8.20775094, 9, 9.63533441), 1e-6)],
    (("A1", 3.0), ("A2", 7.0)): [((3, 7, 5.7681, 6.2078, 4.7802), 1e-4)],
}


@pytest.mark.parametrize("pair", sorted(SWEEP_MISSED))
def test_solve_m6_finds_points_the_sweep_missed(pair):
    sols = solve_m6(dict(pair))
    for point, tol in SWEEP_MISSED[pair]:
        best = min(sols, key=lambda s: max(abs(a - b) for a, b in zip(s.A, point)))
        assert max(abs(a - b) for a, b in zip(best.A, point)) <= tol * max(point)
        assert best.realizable
        assert classify(ReciprocalParams(A=best.A)).kind == "all_components_elliptic"


@given(st.sampled_from(list(combinations(("A1", "A2", "A4", "A5"), 2))), UNIT, UNIT)
@settings(max_examples=60, deadline=None)
def test_solve_m6_twelve_solutions_on_random_pairs(names, a, b):
    assume(abs(a - b) > 1e-9 * max(a, b))
    sols = solve_m6(dict(zip(names, (a, b))))
    assert len({s.A for s in sols}) == 12
    for s in sols:
        assert s.scaled_norm() <= 1e-9
        if s.realizable:
            p = ReciprocalParams(A=tuple(max(x, 1.0) for x in s.A))
            assert classify(p).kind == "all_components_elliptic"


# fixed values of every size the kernel scales to one L: log-uniform from
# 2^-40 to 2^40, and exact p/q
_FIXED_VALUES = st.one_of(
    st.floats(min_value=-40.0, max_value=40.0).map(lambda e: 2.0 ** e),
    st.fractions(min_value=F(1, 10**6), max_value=10**6, max_denominator=10**6))


@given(st.sampled_from(list(combinations(("A1", "A2", "A4", "A5"), 2))),
       _FIXED_VALUES, _FIXED_VALUES)
@example(("A1", "A5"), 20.0, 40.0)
@example(("A2", "A4"), F(3, 2), F(7, 3))
@settings(max_examples=100, deadline=None)
def test_solve_m6_residuals_are_the_one_point_residuals_bit_for_bit(names, a, b):
    # all twelve points over one power-of-two L give each point's own
    # residuals: those of residuals_m6, the exact Fractions rounded once
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a == b: the symmetry-hyperplane warning
        sols = solve_m6(dict(zip(names, (a, b))))
    for s in sols:
        got = [r.hex() for r in s.residuals]
        assert got == [r.hex() for r in residuals_m6(s.A)]
        assert got == [float(f).hex() for f in rtables.ell3_residuals(s.A)]


# exact certificates over Q(x) = Q[x] / (8x^3 - 20x^2 + 12x - 1), written with
# the package's own UniPoly tower: an element vanishes at every root of the
# cubic iff its remainder modulo the cubic is zero (the cubic is irreducible)
X = UniPoly("x", [0, 1])


def _xpoly(coeffs):
    return UniPoly("x", [F(c) for c in coeffs])


def _reduced(p):
    """p with each coefficient in Q[x] reduced modulo the slope cubic."""
    if isinstance(p, UniPoly) and p.var != "x":
        return UniPoly(p.var, [_reduced(c) for c in p.coeffs])
    return reduce_mod_cubic(p if isinstance(p, UniPoly) else UniPoly("x", [p]))


def _resultant_at_root(tables, A):
    """c2 x^2 + c1 x + c0 from a resultant's coefficient tables at A, reduced."""
    c2, c1, c0 = (rtables.eval_table(t, A) for t in tables)
    return _reduced(c2 * X * X + c1 * X + c0)


@pytest.mark.parametrize("k", range(4))
def test_ell3_plane_certificate(k):
    # A = 1 + t d(x): every t-coefficient of the three conditions is zero in
    # Q(x), and by homogeneity so is every point of span{1, d(x)}
    A = [UniPoly("t", [1, _xpoly(c)]) for c in manifold.ELL3_DIRECTIONS[k]]
    for table in (rtables.ELL3_QUAD_A, rtables.ELL3_QUAD_B, rtables.ELL3_CUBIC):
        value = rtables.eval_table(table, A)
        assert value.var == "t" and _reduced(value).is_zero


def test_ell3_planes_are_distinct():
    # d_1 = 0 and d_2 = 1 normalise each direction, so distinct d are
    # distinct planes: 12 lines of a degree 2 * 2 * 3 = 12 intersection
    ds = [d for _, d in manifold._PLANES]
    assert len(ds) == 12
    assert all(d[:2] == (0.0, 1.0) for d in ds)
    assert min(max(abs(p - q) for p, q in zip(d, e))
               for i, d in enumerate(ds) for e in ds[:i]) > 0.05


def test_uv_line_certificate():
    V = UniPoly("v", [0, 1])

    def slice_on(c0, c1):
        # (u, v, 1, v, u) along u = c0(x) + c1(x) v
        u = UniPoly("v", [_xpoly(c0), _xpoly(c1)])
        return (u, V, 1, V, u)

    # both resultants vanish on L: u + (2x - 1) v - 2x = 0
    on_L = slice_on((0, 2), (1, -2))
    assert _resultant_at_root(rtables.R1_TABLES, on_L).is_zero
    assert _resultant_at_root(rtables.R2_TABLES, on_L).is_zero

    # on the whole slice R1 = (2 - 4x^2) L L', in the tower u > v > x
    U, Vu = UniPoly("u", [0, 1]), UniPoly("u", [V])
    r1 = _resultant_at_root(rtables.R1_TABLES, (U, Vu, 1, Vu, U))

    def u_line(c0, c1):
        # u + c1(x) v + c0(x)
        return UniPoly("u", [UniPoly("v", [_xpoly(c0), _xpoly(c1)]), 1])

    L = u_line((0, -2), (-1, 2))
    L_prime = u_line((-8, 18, -8), (7, -18, 8))
    assert _reduced(r1 - L * L_prime * _xpoly((2, 0, -4))).is_zero

    # on L' (u = 8x^2 - 18x + 8 - (8x^2 - 18x + 7) v) R2 = c (v - 1)^3 with
    # c != 0, so L' meets the locus only at (1, 1), which lies on L
    r2 = _resultant_at_root(rtables.R2_TABLES, slice_on((8, -18, 8), (-7, 18, -8)))
    c = r2.coeff(3)
    assert not c.is_zero
    assert _reduced(r2 - UniPoly("v", [-1, 3, -3, 1]) * c).is_zero


def test_solve_uv_rejects_non_root():
    with pytest.raises(ValueError):
        solve_uv(0.5)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_solve_uv_rejects_non_finite_targets(x):
    # nan is no closer to a root than 1e-6: the check fails closed
    with pytest.raises(ValueError, match="root of the slope cubic"):
        solve_uv(x)


def test_realize_all_equal():
    from kippenhahn.manifold import M6Solution
    sol = M6Solution(A=(2.0,) * 5, residuals=(0.0, 0.0, 0.0, 0.0))
    M = realize(sol)
    assert np.allclose(a_params(M).A, 2.0)
    assert three_ellipses6(a_params(M)).kind == "all_components_elliptic"


def test_realize_reference_solution_end_to_end():
    M = realize((20.0, TRUE_A2, TRUE_A3, TRUE_A4, 40.0))
    p = a_params(M)
    assert three_ellipses6(p, tol=1e-8).kind == "all_components_elliptic"
    comps = three_ellipses6(p, tol=1e-8).components
    samples = sample_curve(M, m=720)
    for k, comp in enumerate(comps, start=1):
        fit = fit_ellipse_axis_aligned(branch_points(samples, k))
        assert abs(fit.semi_u - comp.semi_major) <= 1e-6 * comp.semi_major
        assert fit.max_radial_deviation <= 1e-6 * comp.semi_major


def test_realize_rejects_negative_parameters():
    with pytest.raises(NotRealizable):
        realize((8.84369, -2.49077, 1.0, -2.49077, 8.84369))
