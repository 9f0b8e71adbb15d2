import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kippenhahn import (NotToeplitzCase, ReciprocalParams, WrongSize,
                        a_params, branch_points, build_reciprocal, classify,
                        classify3, classify4, classify5, contains_ellipse6,
                        cubic_roots, divide_by_linear, ellipse_centers_z,
                        fit_ellipse_axis_aligned, generating_poly,
                        params_to_matrix, sample_curve, solve_m6,
                        three_ellipses6, toeplitz_components)
from kippenhahn import rtables
from kippenhahn.classify import _center_z, _tau_coeffs
from kippenhahn.nrpoly import substitution_tau_coeffs

PHI = (math.sqrt(5) + 1) / 2
F = Fraction

SINGLE_ELLIPSE_6 = (8.8621796566155030, 3.2811683514056810, 5.0,
                    3.2811683514056810, 8.8621796566155030)
THREE_ELLIPSE_6 = (20.0, 64.939592074349341, 36.038754716096765,
                   28.900837358252576, 40.0)


def assert_factor_divides(p, comp, tol=1e-9):
    P = generating_poly(p)
    _, rem = divide_by_linear(P, float(comp.x), float(comp.z))
    worst = max((abs(float(c)) for c in rem.coeffs), default=0.0)
    scale = max(1.0, float(max(p.A)) ** P.deg_zeta)
    assert worst <= tol * scale, f"remainder {worst} for factor ({comp.x}, {comp.z})"


def test_classify3_normal():
    c = classify3(ReciprocalParams(A=(1, 1)))
    assert c.kind == "normal"
    assert c.components == ()
    lo, hi = c.diagnostics["spectrum_endpoints"]
    assert abs(hi - math.sqrt(2)) < 1e-12 and abs(lo + math.sqrt(2)) < 1e-12


def test_classify3_symmetric():
    c = classify3(ReciprocalParams(A=(2, 2)))
    (comp,) = c.components
    assert comp.x == 1.0 and comp.z == 2.0
    assert abs(comp.semi_major - math.sqrt(3)) < 1e-12
    assert abs(comp.semi_minor - 1.0) < 1e-12
    assert c.origin_component
    assert_factor_divides(ReciprocalParams(A=(2, 2)), comp)


def test_classify3_asymmetric():
    c = classify3(ReciprocalParams(A=(1, 3)))
    (comp,) = c.components
    assert comp.x == 1.0 and comp.z == 2.0


@pytest.mark.parametrize("A", [(1.7e308, 1.6e308), (F(17 * 10**307), F(16 * 10**307))])
def test_classify3_near_float_max(A):
    # A1 + A2 is past the float range, the halves are not
    c = classify3(ReciprocalParams(A=A))
    (comp,) = c.components
    assert math.isclose(comp.z, 1.65e308, rel_tol=1e-15)
    assert classify(ReciprocalParams(A=A)).components == c.components


def test_classify3_wrong_size():
    with pytest.raises(WrongSize):
        classify3(ReciprocalParams(A=(1, 1, 1)))


def test_classify4_all_equal_ray():
    for A0 in (1.5, 2.0, 7.0):
        c = classify4(ReciprocalParams(A=(A0,) * 3))
        assert c.kind == "all_components_elliptic"
        for comp in c.components:
            assert_factor_divides(ReciprocalParams(A=(A0,) * 3), comp)


def test_classify4_golden_example():
    p = ReciprocalParams(A=(2.0, 2 * PHI - 1 / PHI, 1.0))
    c = classify4(p)
    assert c.kind == "all_components_elliptic"
    lhs, rhs = c.diagnostics["consistency_identity"]
    assert abs(lhs - rhs) <= 1e-10
    # both sides are relative to max(1, A_j)
    assert abs(lhs * max(p.A) - 4.85410) <= 1e-5
    for comp in c.components:
        assert_factor_divides(p, comp)


def test_classify4_second_branch():
    p = ReciprocalParams(A=(1.0, 2 * PHI - 1 / PHI, 2.0))
    c = classify4(p)
    assert c.kind == "all_components_elliptic"
    assert c.diagnostics["branches_hit"] == (False, True)
    for comp in c.components:
        assert_factor_divides(p, comp)


def test_classify4_normal_not_elliptic():
    assert classify4(ReciprocalParams(A=(1, 1, 1))).kind == "normal"


def test_classify4_perturbation_fails():
    p = ReciprocalParams(A=(2.0, 2 * PHI - 1 / PHI + 1e-3, 1.0))
    assert classify4(p).kind == "non_elliptic"


def test_classify4_bisector_planes_only_all_equal():
    rng = np.random.default_rng(2)
    for _ in range(60):
        a, b = sorted(rng.uniform(1, 8, 2))
        b = b + 0.1  # keep entries distinct
        for A in ((a, a, b), (a, b, a), (b, a, a)):
            assert classify4(ReciprocalParams(A=A)).kind == "non_elliptic"


def test_classify5_elliptic_reference_example():
    p = a_params(build_reciprocal([1.5, 2, 2.5, 1.5]))
    c = classify5(p)
    assert c.kind == "all_components_elliptic"
    outer = c.components[0]
    assert outer.x == 1.5
    assert abs(outer.z - 6.67722 / 2) <= 1e-5
    assert c.origin_component
    assert_factor_divides(p, outer)


def test_classify5_non_elliptic_reference_example():
    p = a_params(build_reciprocal([1.5, 2, 2, 3]))
    assert classify5(p).kind == "non_elliptic"


def test_classify5_second_branch():
    # A1 - A4 = 2 (A3 - A2): (5,1,2,3)
    p = ReciprocalParams(A=(5.0, 1.0, 2.0, 3.0))
    c = classify5(p)
    assert c.kind == "all_components_elliptic"
    assert c.diagnostics["branches_hit"] == (False, True)
    outer, inner = c.components
    assert (outer.x, outer.z) == (1.5, 3.5)
    assert (inner.x, inner.z) == (0.5, 2.0)
    for comp in c.components:
        assert_factor_divides(p, comp)


def test_classify5_exact_rational_factor():
    p = ReciprocalParams(A=(F(2), F(3), F(5), F(2)))
    P = generating_poly(p)
    c = classify5(p)
    outer = c.components[0]
    _, rem = divide_by_linear(P, F(3, 2), F(outer.z))
    assert rem.is_zero


def test_contains_ellipse6_single_ellipse_point():
    c = contains_ellipse6(ReciprocalParams(A=SINGLE_ELLIPSE_6))
    assert c.kind == "boundary_ellipse_only"
    (comp,) = c.components
    assert abs(comp.x - cubic_roots()[2]) <= 1e-9
    assert abs(comp.z - 5 * cubic_roots()[2]) <= 1e-6
    assert_factor_divides(ReciprocalParams(A=SINGLE_ELLIPSE_6), comp, tol=1e-8)


def test_contains_ellipse6_all_equal_passes_every_root():
    c = contains_ellipse6(ReciprocalParams(A=(2.0,) * 5))
    assert c.kind == "all_components_elliptic"
    assert len(c.components) == 3
    for comp, xr in zip(c.components, sorted(cubic_roots(), reverse=True)):
        assert abs(comp.x - xr) <= 1e-12
        assert abs(comp.z - 2 * xr) <= 1e-12


def test_contains_ellipse6_generic_rejects():
    c = contains_ellipse6(ReciprocalParams(A=(2.0, 3.0, 4.0, 5.0, 6.0)))
    assert c.kind == "non_elliptic"


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_classify_rejects_tol_outside_positive_finite(tol):
    with pytest.raises(ValueError, match="tolerance"):
        classify(ReciprocalParams(A=(2.0, 3.0, 4.0, 5.0, 6.0)), tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("classifier,A", [
    (classify3, (2.0, 3.0)),
    (classify4, (2.0, 3.0, 4.0)),
    (classify5, (2.0, 3.0, 4.0, 5.0)),
    (contains_ellipse6, (2.0, 3.0, 4.0, 5.0, 6.0)),
    (three_ellipses6, (2.0, 3.0, 4.0, 5.0, 6.0)),
    (toeplitz_components, (2.0,) * 5),
], ids=["classify3", "classify4", "classify5", "contains_ellipse6",
        "three_ellipses6", "toeplitz_components"])
def test_every_classifier_rejects_tol_outside_positive_finite(classifier, A, tol):
    with pytest.raises(ValueError, match="tolerance"):
        classifier(ReciprocalParams(A=A), tol=tol)


def test_three_ellipses6_all_equal():
    c = three_ellipses6(ReciprocalParams(A=(2.0,) * 5))
    assert c.kind == "all_components_elliptic"
    for comp in c.components:
        assert abs(comp.z - 2.0 * comp.x) <= 1e-12
        assert_factor_divides(ReciprocalParams(A=(2.0,) * 5), comp)


def test_three_ellipses6_solution_point_and_homogeneity():
    p = ReciprocalParams(A=THREE_ELLIPSE_6)
    c = three_ellipses6(p, tol=1e-8)
    assert c.kind == "all_components_elliptic"
    for comp in c.components:
        assert_factor_divides(p, comp, tol=1e-7)
    half = ReciprocalParams(A=tuple(a / 2 for a in THREE_ELLIPSE_6))
    assert three_ellipses6(half, tol=1e-8).kind == "all_components_elliptic"
    # nesting is strict
    assert min(c.diagnostics["nesting_margins"]) > 0


def test_three_ellipses6_all_ones_is_normal():
    assert three_ellipses6(ReciprocalParams(A=(1.0,) * 5)).kind == "normal"


def test_rigidity_hyperplanes_reject():
    rng = np.random.default_rng(5)
    for _ in range(200):
        vals = rng.uniform(1, 9, 4)
        if np.ptp(vals) < 1e-3:
            continue
        a1, a2, a3, a5 = vals
        # A2 = A4 slice
        assert three_ellipses6(
            ReciprocalParams(A=(a1, a2, a3, a2, a5))).kind == "non_elliptic"
        # A1 = A5 slice
        assert three_ellipses6(
            ReciprocalParams(A=(a1, a2, a3, vals[0] * 0 + a5, a1))).kind == "non_elliptic"


def test_ellipse_centers_all_equal():
    for A0 in (1.0, 2.5):
        zs = ellipse_centers_z(ReciprocalParams(A=(A0,) * 5))
        for z, x in zip(zs, cubic_roots()):
            assert abs(z - A0 * x) <= 1e-12


def test_ellipse_centers_solution_point():
    zs = ellipse_centers_z(ReciprocalParams(A=THREE_ELLIPSE_6))
    for z, x in zip(zs, cubic_roots()):
        assert z > x > 0


# n = 6: one per-root test gives both verdicts

# THREE_ELLIPSE_6 with A_1 moved by 1e-8 relative: R1 and R2 still pass the
# per-root test at x1 and x2, not at x3
NEAR_THREE_ELLIPSE_6 = (20.0000002,) + THREE_ELLIPSE_6[1:]


def passing_roots(c, tol=1e-9):
    """The roots whose resultant_values, R1/S^2 and R2/S^3, pass the
    per-root resultant test."""
    return {xr for xr, r1, r2 in c.diagnostics["resultant_values"]
            if abs(r1) <= tol and abs(r2) <= tol}


def assert_components_pass(p, tol=1e-9):
    for c in (contains_ellipse6(p, tol), three_ellipses6(p, tol)):
        passed = passing_roots(c, tol)
        assert {comp.x for comp in c.components} <= passed
        if c.kind == "all_components_elliptic":
            assert len(c.components) == 3


def test_near_three_ellipse_point_is_boundary_only():
    p = ReciprocalParams(A=NEAR_THREE_ELLIPSE_6)
    x1, x2, _ = cubic_roots()
    c = contains_ellipse6(p)
    assert c.kind == "boundary_ellipse_only"
    assert sorted(comp.x for comp in c.components) == [x1, x2]
    assert three_ellipses6(p).kind == "non_elliptic"
    assert_components_pass(p)


names = st.sampled_from(["A1", "A2", "A4", "A5"])
fixed_values = st.floats(min_value=1.0, max_value=50.0)


@given(st.lists(names, min_size=2, max_size=2, unique=True), fixed_values, fixed_values,
       st.floats(min_value=-1e-9, max_value=1e-9))
@settings(max_examples=40, deadline=None)
def test_plane_points_classify_three_ellipses(pair, a, b, eps):
    # every realizable point of the three-ellipse variety passes at all
    # three roots, with the centers ellipse_centers_z gives; moved off the
    # variety into the tolerance band, every component still passes its own
    # per-root test.  At the first realizable point the generating
    # polynomial and the sampled curve agree: each factor divides P6, and
    # branches j and 7 - j fit component j's semi-axes unless it is a segment
    assume(abs(a - b) > 1e-6)
    realizable = [sol for sol in solve_m6(dict(zip(pair, (a, b)))) if min(sol.A) >= 1.0]
    for sol in realizable:
        p = ReciprocalParams(A=sol.A)
        c = contains_ellipse6(p)
        assert c.kind == "all_components_elliptic"
        want = sorted(zip(cubic_roots(), ellipse_centers_z(p)))
        assert sorted((comp.x, comp.z) for comp in c.components) == want
        assert three_ellipses6(p).components == c.components
        moved = [A * (1 + eps * (-1) ** j) for j, A in enumerate(sol.A)]
        assert_components_pass(ReciprocalParams(A=tuple(max(A, 1.0) for A in moved)))
    if not realizable:
        return
    p = ReciprocalParams(A=realizable[0].A)
    samples = sample_curve(params_to_matrix(p), m=720)
    for j, comp in enumerate(contains_ellipse6(p).components, start=1):
        assert_factor_divides(p, comp)
        for k in () if comp.degenerate else (j, 7 - j):
            fit = fit_ellipse_axis_aligned(branch_points(samples, k))
            assert fit.semi_major == pytest.approx(comp.semi_major, rel=1e-8)
            assert fit.semi_minor == pytest.approx(comp.semi_minor, rel=1e-8)


# n = 6 on the generating polynomial itself

def test_tau_coeffs_equal_the_substitution():
    # each tau-coefficient of P6(x tau + z, tau), from the closed forms or
    # from substitution_tau_coeffs, is a polynomial of total degree <= 3 in
    # (A_1, ..., A_5, x, z); such a polynomial vanishing at the 120 points
    # (1 + a, x, z) with a, x, z natural and |a| + x + z <= 3 is zero, so
    # agreement there proves the identity
    points = [v for v in product(range(4), repeat=7) if sum(v) <= 3]
    assert len(points) == 120
    for v in points:
        A = tuple(F(1 + a) for a in v[:5])
        x, z = F(v[5]), F(v[6])
        taus = substitution_tau_coeffs(generating_poly(ReciprocalParams(A=A)))
        want = [sum(c(x) * z ** a for a, c in enumerate(taus[k].coeffs)) for k in (3, 2, 1, 0)]
        sums = rtables.p6_sums(A)
        assert list(_tau_coeffs(sums, x, z)) == want, v
        assert len(taus) == 5 and taus[4].is_zero
        # the pinned z zeroes tau^2 exactly
        assert _tau_coeffs(sums, x, _center_z(sums, x))[1] == 0


@given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=5, max_size=5))
@example(list(THREE_ELLIPSE_6))
@settings(max_examples=60, deadline=None)
def test_resultant_values_are_the_table_resultants(A):
    # r1, r2 are R1(x_t) / S^2 and R2(x_t) / S^3 of the corrected tables
    c = contains_ellipse6(ReciprocalParams(A=A))
    assume(c.kind != "normal")
    S = sum(map(F, A))
    for xr, r1, r2 in c.diagnostics["resultant_values"]:
        R1, R2 = rtables.eval_resultants_at(A, F(xr))
        assert abs(r1 - R1 / S ** 2) <= 1e-12
        assert abs(r2 - R2 / S ** 3) <= 1e-12


@given(st.lists(st.fractions(min_value=1, max_value=10**6, max_denominator=10**6),
                min_size=5, max_size=5))
@example([F(3, 2), F(5, 2), F(7, 2), F(9, 2), F(11, 2)])
@example([F(a) for a in THREE_ELLIPSE_6])
@settings(max_examples=60, deadline=None)
def test_fraction_input_classifies_as_its_float(A):
    want = contains_ellipse6(ReciprocalParams(A=tuple(float(a) for a in A)))
    assert contains_ellipse6(ReciprocalParams(A=tuple(A))) == want


def iota(A):
    """The n = 6 involution: it keeps S, T, E2 and (A1, A3, A5) as a set."""
    A1, A2, A3, A4, A5 = A
    return (A5, A2 + A1 - A5, A3, A4 + A5 - A1, A1)


@given(st.lists(st.fractions(min_value=1, max_value=50, max_denominator=100),
                min_size=5, max_size=5))
@example([F(a) for a in THREE_ELLIPSE_6])
@example([F(a) for a in NEAR_THREE_ELLIPSE_6])
@settings(max_examples=60, deadline=None)
def test_involution_keeps_the_polynomial_and_the_verdict(A):
    B = iota(A)
    assume(min(B) >= 1)
    assert iota(B) == tuple(A)
    p, q = ReciprocalParams(A=tuple(A)), ReciprocalParams(A=B)
    assert generating_poly(q) == generating_poly(p)
    c, d = classify(p), classify(q)
    assert d.kind == c.kind
    assert [comp.x for comp in d.components] == [comp.x for comp in c.components]
    for got, comp in zip(d.components, c.components):
        assert got.z == pytest.approx(comp.z, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda: classify(ReciprocalParams(A=(F(10**400), 2))),
    lambda: classify(ReciprocalParams(A=(F(10**400), 2, 3, 4, 5))),
    lambda: classify4(ReciprocalParams(A=(2, 3, F(10**400)))),
    lambda: toeplitz_components(ReciprocalParams(A=(10**400,) * 3)),
    lambda: params_to_matrix(ReciprocalParams(A=(F(10**400), 2))),
    lambda: ellipse_centers_z(ReciprocalParams(A=(F(10**400), 2, 3, 4, 5))),
], ids=["classify-n3", "classify-n6", "classify4", "toeplitz", "params_to_matrix",
        "ellipse_centers_z"])
def test_float_paths_reject_exact_params_past_float_range(call):
    with pytest.raises(ValueError, match="past the float range"):
        call()


def test_all_equal_z_past_the_float_range_raises():
    # z_1 = 2 cos^2(pi / 7) A_0 is about 2.76e308
    with pytest.raises(ValueError, match="past the float range"):
        classify(ReciprocalParams(A=(1.7e308,) * 5))


@pytest.mark.parametrize("A", [
    (1.0, 1.0, 1.7e308), (1.7e308, 1.0, 1.0),
    (1e308, PHI * 1e308 - 0.5e308 / PHI, 0.5e308),
    (1.0, 1.0, 1.7e308, 1.0), (1.0, 1.5e308, 1.5e308, 2.0), (1.7e308, 1.0, 1.0, 1.0),
])
def test_small_n_diagnostics_stay_finite_near_the_float_maximum(A):
    # the branch residuals, consistency identity and nested gap are relative
    # to max(1, A_j), so they are finite wherever the components are
    c = classify(ReciprocalParams(A=A))
    values = [v for value in c.diagnostics.values()
              for v in (value if isinstance(value, tuple) else (value,))]
    assert all(math.isfinite(v) for v in values), c.diagnostics


entries = st.floats(min_value=1.0, max_value=20.0)


@st.composite
def homogeneity_points(draw):
    """Generic points for n = 3..6, points on the n = 4 planes, the n = 5
    hyperplanes and the n = 6 reference points, and all-equal points of
    size 2..12, all with entries in [1, 20]."""
    n = draw(st.integers(3, 6))
    A = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    shape = draw(st.sampled_from(["generic", "manifold", "all-equal"]))
    if shape == "all-equal":
        return (A[0],) * draw(st.integers(1, 11))
    if shape == "manifold" and n == 4:
        A[1] = PHI * A[2] - A[0] / PHI if draw(st.booleans()) else PHI * A[0] - A[2] / PHI
    if shape == "manifold" and n == 5:
        A[0] = A[3] if draw(st.booleans()) else A[3] + 2 * (A[2] - A[1])
    if shape == "manifold" and n == 6:
        A = list(draw(st.sampled_from([SINGLE_ELLIPSE_6, THREE_ELLIPSE_6])))
    assume(min(A) >= 1.0)
    return tuple(A)


@given(homogeneity_points())
@settings(max_examples=60, deadline=None)
def test_classify_is_homogeneous_under_powers_of_four(A):
    # classify(4^i A) has the kind and the x of classify(A), and z times 4^i
    # bit for bit, for every i that keeps 4^i max A finite; where some
    # z 4^i is past the float range it raises ValueError instead
    p = ReciprocalParams(A=A)
    assume(not p.all_ones)
    base = classify(p)
    # max A = f 2^e with f in [1/2, 1), so 4^i max A is finite iff e + 2i <= 1024
    for i in range(1, (1024 - math.frexp(max(A))[1]) // 2 + 1):
        want = tuple((c.x, c.z * 4.0 ** i) for c in base.components)
        scaled = ReciprocalParams(A=tuple(a * 4.0 ** i for a in A))
        if all(math.isfinite(z) for _, z in want):
            c = classify(scaled)
            assert (c.kind, c.origin_component) == (base.kind, base.origin_component)
            assert tuple((comp.x, comp.z) for comp in c.components) == want
        else:
            with pytest.raises(ValueError, match="past the float range"):
                classify(scaled)


def test_exact_path_takes_params_past_float_range():
    # the zeta^0 tau^0 coefficient of the n = 3 polynomial is -(A_1 + A_2) / 2
    P = generating_poly(ReciprocalParams(A=(F(10**400), 2)))
    assert P.zeta_coeffs[0].coeffs[0] == -(F(10**400) + 2) / 2


def test_toeplitz_hermitian_segments():
    c = toeplitz_components(ReciprocalParams(A=(1.0,) * 5))  # n = 6
    assert c.kind == "toeplitz_case"
    assert len(c.components) == 3
    for j, comp in enumerate(sorted(c.components, key=lambda q: -q.z), start=1):
        assert comp.degenerate
        assert abs(comp.semi_major - 2 * math.cos(j * math.pi / 7)) <= 1e-12


def test_toeplitz_matches_classify5():
    p = ReciprocalParams(A=(2.0,) * 4)
    t = toeplitz_components(p)
    c = classify5(p)
    tz = sorted((comp.x, comp.z) for comp in t.components if comp.z > 0)
    cz = sorted((comp.x, comp.z) for comp in c.components)
    assert np.allclose(tz, cz, atol=1e-12)
    assert t.origin_component  # the sigma = 0 component is the origin


def test_toeplitz_slopes_match_cubic_roots():
    t = toeplitz_components(ReciprocalParams(A=(2.0,) * 5))
    xs = sorted(comp.x for comp in t.components)
    assert np.allclose(xs, cubic_roots(), atol=1e-12)


def test_toeplitz_requires_all_equal():
    with pytest.raises(NotToeplitzCase):
        toeplitz_components(ReciprocalParams(A=(1.0, 2.0)))


def test_factor_slopes_follow_cosine_pattern():
    # every reported slope equals 2 cos^2(j pi / (n+1)) for some j
    cases = [
        classify3(ReciprocalParams(A=(2.0, 3.0))),
        classify4(ReciprocalParams(A=(3.0,) * 3)),
        classify5(a_params(build_reciprocal([1.5, 2, 2.5, 1.5]))),
        contains_ellipse6(ReciprocalParams(A=(2.0,) * 5)),
    ]
    for n, c in zip((3, 4, 5, 6), cases):
        allowed = [2 * math.cos(j * math.pi / (n + 1)) ** 2
                   for j in range(1, n // 2 + 1)]
        for comp in c.components:
            assert min(abs(comp.x - a) for a in allowed) <= 1e-10


def test_nesting_separation():
    for p in (ReciprocalParams(A=(2.0, 2 * PHI - 1 / PHI, 1.0)),
              a_params(build_reciprocal([1.5, 2, 2.5, 1.5]))):
        comps = (classify4(p) if p.n == 4 else classify5(p)).components
        hi, lo = comps
        assert hi.z - lo.z > abs(hi.x - lo.x) - 1e-12


unit_interval = st.floats(min_value=1.0, max_value=10.0)


@given(unit_interval, unit_interval)
@settings(max_examples=40, deadline=None)
def test_classify4_golden_manifold_points(A1, A3):
    A2 = PHI * A1 - A3 / PHI
    assume(A2 >= 1.0)
    p = ReciprocalParams(A=(A1, A2, A3))
    assume(not p.all_ones)
    c = classify4(p)
    assert c.kind == "all_components_elliptic"
    for comp in c.components:
        assert comp.z >= abs(comp.x) - 1e-12
        assert_factor_divides(p, comp, tol=1e-8)


@given(unit_interval, unit_interval, unit_interval)
@settings(max_examples=40, deadline=None)
def test_classify5_first_hyperplane_points(a, b, c_):
    p = ReciprocalParams(A=(a, b, c_, a))
    assume(not p.all_ones)
    c = classify5(p)
    assert c.kind == "all_components_elliptic"
    outer, inner = c.components
    assert abs(outer.z - (a + b + c_) / 2) <= 1e-12
    assert abs(inner.z - a / 2) <= 1e-12
    for comp in c.components:
        assert_factor_divides(p, comp, tol=1e-8)


@given(unit_interval, unit_interval, unit_interval)
@settings(max_examples=40, deadline=None)
def test_classify5_second_hyperplane_points(A2, A3, A4):
    A1 = A4 + 2.0 * (A3 - A2)
    assume(A1 >= 1.0)
    p = ReciprocalParams(A=(A1, A2, A3, A4))
    assume(not p.all_ones)
    c = classify5(p)
    assert c.kind == "all_components_elliptic"
    for comp in c.components:
        assert comp.z >= abs(comp.x) - 1e-12
        assert_factor_divides(p, comp, tol=1e-8)


@given(unit_interval, unit_interval, unit_interval,
       st.floats(min_value=1e-2, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_classify5_off_hyperplane_rejects(a, b, c_, eps):
    p = ReciprocalParams(A=(a + eps, b, c_, a))
    assume(abs((a + eps - a) - 2 * (c_ - b)) > 1e-3)
    assert classify5(p).kind == "non_elliptic"
