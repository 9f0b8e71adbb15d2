import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from kippenhahn import (NoBracket, NotRealizable, ReciprocalParams, a_params,
                        branch_points, classify, contains_ellipse6, cubic_roots,
                        fit_ellipse_axis_aligned, realize, residuals_m6,
                        sample_curve, solve_m6, solve_uv, three_ellipses6)
from kippenhahn import manifold

F = Fraction

REF_FIXED = {"A1": 20.0, "A5": 40.0}
# digits frozen from a high-precision solve of the three conditions with
# A1 = 20, A5 = 40 (the published A3 has a first-decimal digit typo)
TRUE_A2 = 64.939592074349341
TRUE_A3 = 36.038754716096765
TRUE_A4 = 28.900837358252576

# every solution solve_m6 returns for three fixed pairs (grid 200, default
# bracket), frozen from the sweep solver; each must still be found
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


def test_solve_m6_symmetric_pair_warns_and_gives_ray():
    with pytest.warns(UserWarning):
        sols = solve_m6({"A2": 3.0, "A4": 3.0}, grid=120)
    # the ray is a degenerate root of the system, so parameter accuracy is
    # only on the order of sqrt of the residual tolerance there
    for s in sols:
        assert max(abs(a - 3.0) for a in s.A) <= 1e-3


def test_solve_m6_no_bracket():
    with pytest.raises(NoBracket):
        solve_m6(REF_FIXED, a3_bracket=(1.0, 1.15), grid=12)


def test_solve_m6_rejects_bad_names():
    with pytest.raises(ValueError):
        solve_m6({"A1": 2.0, "A3": 3.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_solve_m6_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        solve_m6({"A1": bad, "A5": 4.0})


@pytest.mark.parametrize("bracket", [(math.nan, 5.0), (1.0, math.inf), (5.0, 1.0),
                                     (2.0, 2.0), (0.0, 5.0), (-1.0, 5.0)])
def test_solve_m6_rejects_bad_bracket(bracket):
    with pytest.raises(ValueError, match="a3_bracket"):
        solve_m6({"A1": 2.0, "A5": 3.0}, a3_bracket=bracket)


@pytest.mark.parametrize("pair", sorted(REFERENCE_SOLUTIONS))
def test_solve_m6_finds_every_reference_solution(pair):
    fixed = dict(pair)
    scale = max(fixed.values())
    sols = solve_m6(fixed)
    assert len(sols) == len(REFERENCE_SOLUTIONS[pair])
    for R in REFERENCE_SOLUTIONS[pair]:
        assert any(max(abs(a - r) for a, r in zip(s.A, R)) <= 1e-7 * scale for s in sols), R
    for s in sols:
        assert s.scaled_norm() <= 1e-9


def test_solve_m6_stats():
    sols = solve_m6(REF_FIXED)
    stats = sols[0].stats
    assert all(s.stats is stats for s in sols)
    assert stats.starts == stats.converged + stats.diverged
    # 200 grid points, six fresh starts each, plus warm starts and the rest
    assert stats.starts > 6 * 200
    assert stats.converged >= len(sols)
    assert 1 <= stats.max_iterations <= 60
    # telemetry is not part of a solution's identity
    from kippenhahn.manifold import M6Solution
    assert sols[0] == M6Solution(A=sols[0].A, residuals=sols[0].residuals,
                                 branch=sols[0].branch)


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
    assert res.stats.starts == 13 * 13
    assert res.stats.converged + res.stats.diverged == res.stats.starts
    assert 0 < res.stats.max_iterations <= 80


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
GENERIC_N6 = st.tuples(*[st.floats(min_value=1.0, max_value=100.0)] * 5).map(lambda A: (A, None))


@given(st.one_of(st.sampled_from(KNOWN_N6), GENERIC_N6), st.floats(min_value=1.0, max_value=50.0))
@settings(max_examples=150, deadline=None)
def test_classify6_kind_invariant_under_reversal_and_scaling(point, s):
    A, want = point
    p = ReciprocalParams(A=A)
    assume(not p.all_ones)  # the normal matrix; sA is all-equal instead
    kind = classify(p).kind
    assert want is None or kind == want
    assert classify(ReciprocalParams(A=A[::-1])).kind == kind
    assert classify(ReciprocalParams(A=tuple(s * a for a in A))).kind == kind


def test_solve_uv_rejects_non_root():
    with pytest.raises(ValueError):
        solve_uv(0.5)


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


@given(st.lists(st.tuples(st.floats(min_value=2.0, max_value=400.0),
                          st.floats(min_value=-50.0, max_value=150.0),
                          st.floats(min_value=-50.0, max_value=150.0)),
                min_size=2, max_size=8))
@example(rows=[(2.0, 0.0, 0.0), (369.0, 56.25, 0.0)])
@settings(max_examples=25, deadline=None)
def test_newton_batch_matches_rows_alone(rows):
    # the quadratic pair of solve_m6 with A1 = 20, A5 = 40 fixed, free (A2, A4)
    base = np.array([(20.0, 0.0, a3, 0.0, 40.0) for a3, _, _ in rows])
    starts = np.array([(u, v) for _, u, v in rows])
    system = manifold._ell3_system(base, [1, 3], 2)

    def converged(x, F):
        return np.max(np.abs(F), axis=1) <= 1e-13 * 40.0 ** 2

    x, ok, iters = manifold._newton(system, starts, converged, 60, 1e8 * 40.0)
    for r in range(len(rows)):
        def alone(_, xr, r=r):
            return system(np.array([r]), xr)
        xr, okr, itr = manifold._newton(alone, starts[r:r + 1], converged, 60, 1e8 * 40.0)
        assert ok[r] == okr[0]
        assert iters[r] == itr[0]
        if ok[r]:
            np.testing.assert_allclose(x[r], xr[0], rtol=1e-12, atol=0)


def test_newton_retires_singular_rows():
    # F(x) = x^2 - 4 per coordinate: J is singular at the zero start only
    def system(rows, x):
        return x * x - 4.0, 2.0 * x[:, :, None] * np.eye(2)

    def converged(x, F):
        return np.max(np.abs(F), axis=1) <= 1e-12

    starts = np.array([(1.0, 3.0), (0.0, 1.0), (-1.0, -5.0)])
    x, ok, iters = manifold._newton(system, starts, converged, 50)
    assert ok.tolist() == [True, False, True]
    np.testing.assert_allclose(x[[0, 2]], [(2.0, 2.0), (-2.0, -2.0)], rtol=1e-12)
    assert iters[1] == 0 and iters[0] > 0
