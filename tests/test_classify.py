import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kippenhahn import (NotToeplitzCase, ReciprocalParams, WrongSize,
                        a_params, build_reciprocal, classify, classify3,
                        classify4, classify5, contains_ellipse6, cubic_roots,
                        divide_by_linear, ellipse_centers_z, generating_poly,
                        params_to_matrix, solve_m6, three_ellipses6,
                        toeplitz_components)

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
    assert abs(lhs - 4.85410) <= 1e-5
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


def passing_roots(c, p, tol=1e-9):
    """The roots whose resultant_values pass the per-root resultant test."""
    S = sum(p.A)
    return {xr for xr, r1, r2 in c.diagnostics["resultant_values"]
            if abs(r1) <= tol * max(1.0, S ** 2) and abs(r2) <= tol * max(1.0, S ** 3)}


def assert_components_pass(p, tol=1e-9):
    for c in (contains_ellipse6(p, tol), three_ellipses6(p, tol)):
        passed = passing_roots(c, p, tol)
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
    # per-root test
    assume(abs(a - b) > 1e-6)
    for sol in solve_m6(dict(zip(pair, (a, b)))):
        if min(sol.A) < 1.0:
            continue
        p = ReciprocalParams(A=sol.A)
        c = contains_ellipse6(p)
        assert c.kind == "all_components_elliptic"
        want = sorted(zip(cubic_roots(), ellipse_centers_z(p)))
        assert sorted((comp.x, comp.z) for comp in c.components) == want
        assert three_ellipses6(p).components == c.components
        moved = [A * (1 + eps * (-1) ** j) for j, A in enumerate(sol.A)]
        assert_components_pass(ReciprocalParams(A=tuple(max(A, 1.0) for A in moved)))


@pytest.mark.parametrize("call", [
    lambda: classify(ReciprocalParams(A=(F(10**400), 2))),
    lambda: classify(ReciprocalParams(A=(F(10**400), 2, 3, 4, 5))),
    lambda: classify4(ReciprocalParams(A=(2, 3, F(10**400)))),
    lambda: toeplitz_components(ReciprocalParams(A=(10**400,) * 3)),
    lambda: params_to_matrix(ReciprocalParams(A=(F(10**400), 2))),
], ids=["classify-n3", "classify-n6", "classify4", "toeplitz", "params_to_matrix"])
def test_float_paths_reject_exact_params_past_float_range(call):
    with pytest.raises(ValueError, match="past the float range"):
        call()


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
