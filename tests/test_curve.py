import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kippenhahn import (CurveSample, CurveSamples, DegenerateBranch,
                        ReciprocalParams, a_params, branch_points,
                        build_reciprocal, classify5, eig_all,
                        fit_ellipse_axis_aligned, params_to_matrix,
                        realified_pencil, sample_curve, symmetry_residual)
from kippenhahn import curve
from kippenhahn.curve import sample_diameter
from kippenhahn.trimat import (SymTridiagonal, TridiagonalMatrix, pencil,
                              phase_diagonal)


def test_hermitian_2x2_segment():
    M = build_reciprocal([1])
    samples = sample_curve(M, m=64)
    for s in samples:
        assert abs(s.point.imag) <= 1e-12
        assert abs(s.point.real) <= 1.0 + 1e-12


def test_sample_support_identity():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    samples = sample_curve(M, m=90)
    for s in samples:
        lhs = s.point.real * math.cos(s.theta) - s.point.imag * math.sin(s.theta)
        assert abs(lhs - s.lam) <= 1e-8


def test_top_branch_is_support_maximum():
    M = build_reciprocal([1.2, 2.5, 1.7])
    samples = sample_curve(M, m=64)
    by_theta = {}
    for s in samples:
        by_theta.setdefault(s.theta, []).append(s)
    for theta, group in by_theta.items():
        lam_max = max(s.lam for s in group)
        top = next(s for s in group if s.branch == 1)
        assert abs(top.lam - lam_max) <= 1e-12


def test_elliptic_5x5_outer_branch_fit():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    samples = sample_curve(M, m=720)
    fit = fit_ellipse_axis_aligned(branch_points(samples, 1))
    assert fit.rms_residual <= 1e-7
    assert abs(fit.semi_u - math.sqrt((6.677222 + 3) / 2)) <= 1e-6
    assert abs(fit.semi_v - math.sqrt((6.677222 - 3) / 2)) <= 1e-6


def test_fits_agree_with_classifier_components():
    p = a_params(build_reciprocal([1.5, 2, 2.5, 1.5]))
    comps = classify5(p).components
    M = params_to_matrix(p)
    samples = sample_curve(M, m=720)
    for k, comp in enumerate(comps, start=1):
        fit = fit_ellipse_axis_aligned(branch_points(samples, k))
        assert abs(fit.semi_u - comp.semi_major) <= 1e-6 * comp.semi_major
        assert abs(fit.semi_v - comp.semi_minor) <= 1e-6 * comp.semi_minor


def test_fit_recovers_synthetic_ellipse():
    t = np.linspace(0, 2 * np.pi, 100, endpoint=False)
    pts = 2.0 * np.cos(t) + 1j * np.sin(t)
    fit = fit_ellipse_axis_aligned(pts)
    assert abs(fit.semi_major - 2.0) <= 1e-10
    assert abs(fit.semi_minor - 1.0) <= 1e-10
    assert fit.rms_residual <= 1e-10
    assert fit.max_radial_deviation <= 1e-10


@given(st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.0, max_value=0.2), st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=60, deadline=None)
def test_fit_is_homogeneous(p, q, wobble, exponent):
    # the fit runs in coordinates divided by max |u|, |v|: no square of a
    # coordinate overflows or underflows anywhere in the float range
    t = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    pts = (1.0 + wobble * np.cos(4 * t)) * (p * np.cos(t) + 1j * q * np.sin(t))
    s = 10.0 ** exponent
    want, got = fit_ellipse_axis_aligned(pts), fit_ellipse_axis_aligned(s * pts)
    for name in ("semi_major", "semi_minor", "semi_u", "semi_v"):
        assert abs(getattr(got, name) - s * getattr(want, name)) <= 1e-12 * getattr(got, name)
    assert abs(got.max_radial_deviation - s * want.max_radial_deviation) <= 1e-12 * got.semi_major
    assert abs(got.rms_residual - want.rms_residual) <= 1e-12  # dimensionless


def _exact_axis_coefficients(pts):
    """(alpha, beta) of the least-squares fit alpha u^2 + beta v^2 = 1, from
    the normal equations in exact rational arithmetic."""
    x = [Fraction(float(p.real)) ** 2 for p in pts]
    y = [Fraction(float(p.imag)) ** 2 for p in pts]
    xx, xy, yy = (sum(a * b for a, b in zip(f, g)) for f, g in ((x, x), (x, y), (y, y)))
    sx, sy, det = sum(x), sum(y), xx * yy - xy * xy
    return (sx * yy - sy * xy) / det, (xx * sy - xy * sx) / det


@given(st.floats(min_value=-9.0, max_value=0.0), st.floats(min_value=0.5, max_value=3.0),
       st.floats(min_value=0.0, max_value=0.2), st.floats(min_value=-200.0, max_value=200.0))
@settings(max_examples=40, deadline=None)
def test_fit_of_thin_ellipses_matches_exact_solution(log_ratio, p, wobble, exponent):
    # axis ratio 1e-9..1 at scales 1e-200..1e200: the v^2 column is up to
    # 1e-18 of the u^2 column and must still count in the fit
    t = np.linspace(0, 2 * np.pi, 90, endpoint=False)
    ratio, s = 10.0 ** log_ratio, 10.0 ** exponent
    pts = s * (1.0 + wobble * np.cos(4 * t)) * (p * np.cos(t) + 1j * ratio * p * np.sin(t))
    fit = fit_ellipse_axis_aligned(pts)
    for semi, coef in zip((fit.semi_u, fit.semi_v), _exact_axis_coefficients(pts)):
        # semi = 1 / sqrt(coef): compare semi^2 coef with 1 exactly
        assert abs(math.sqrt(float(Fraction(semi) ** 2 * coef)) - 1.0) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(np.nan, 1.0)])
def test_fit_rejects_non_finite_samples(bad):
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = 2.0 * np.cos(t) + 1j * np.sin(t)
    pts[5] = bad
    with pytest.raises(ValueError, match="sample 5 is not finite") as info:
        fit_ellipse_axis_aligned(pts)
    assert not isinstance(info.value, DegenerateBranch)


def test_fit_flattens_two_dimensional_input():
    t = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = 2.0 * np.cos(t) + 1j * np.sin(t)
    assert fit_ellipse_axis_aligned(pts.reshape(8, 5)) == fit_ellipse_axis_aligned(pts)
    assert sample_diameter(pts.reshape(5, 8)) == sample_diameter(pts)


def test_fit_radial_deviation_matches_polar_formula():
    # r_fit = r / sqrt(alpha u^2 + beta v^2) is the polar-angle radius
    # 1 / sqrt(alpha cos^2 psi + beta sin^2 psi), with psi = 0 at the origin
    samples = sample_curve(build_reciprocal([1.5, 2, 2, 3]), m=720)
    for pts in (branch_points(samples, 1), branch_points(samples, 2),
                np.append(branch_points(samples, 1), 0.0)):
        fit = fit_ellipse_axis_aligned(pts)
        alpha, beta = fit.semi_u ** -2, fit.semi_v ** -2
        psi = np.arctan2(pts.imag, pts.real)
        r_fit = 1.0 / np.sqrt(alpha * np.cos(psi) ** 2 + beta * np.sin(psi) ** 2)
        want = np.max(np.abs(np.abs(pts) - r_fit))
        assert abs(fit.max_radial_deviation - want) <= 1e-12 * fit.semi_major


def test_fit_degenerate_segment():
    M = params_to_matrix(ReciprocalParams(A=(1.0,) * 4))
    samples = sample_curve(M, m=64)
    with pytest.raises(DegenerateBranch):
        fit_ellipse_axis_aligned(branch_points(samples, 1))


def test_fit_of_points_on_two_lines_is_degenerate():
    # u^2 = v^2 at every point: the normal equations are singular, and no
    # conic alpha u^2 + beta v^2 = 1 is determined
    pts = np.array([1, 2, 3, 4]) * np.array([[1 + 1j], [1 - 1j], [-1 + 1j], [-1 - 1j]])
    with pytest.raises(DegenerateBranch, match="two lines"):
        fit_ellipse_axis_aligned(pts)


def test_fit_needs_enough_samples():
    with pytest.raises(ValueError):
        fit_ellipse_axis_aligned(np.array([1 + 1j, 2 + 2j]))


def test_non_elliptic_deviation_positive_and_grid_stable():
    M = build_reciprocal([1.5, 2, 2, 3])
    devs = {}
    for m in (720, 1440):
        samples = sample_curve(M, m=m)
        devs[m] = [fit_ellipse_axis_aligned(branch_points(samples, k)).max_radial_deviation
                   for k in (1, 2)]
    for k in range(2):
        assert devs[720][k] > 1e-4
        assert abs(devs[1440][k] - devs[720][k]) <= 0.1 * devs[720][k]


def test_elliptic_fit_grid_refinement_stable():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    fits = [fit_ellipse_axis_aligned(branch_points(sample_curve(M, m=m), 1))
            for m in (360, 720)]
    assert abs(fits[0].semi_u - fits[1].semi_u) <= 1e-8
    assert abs(fits[0].semi_v - fits[1].semi_v) <= 1e-8


def test_symmetry_residual_reciprocal():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        b = rng.uniform(0.6, 2.0, n - 1) * np.exp(1j * rng.uniform(0, 2 * np.pi, n - 1))
        samples = sample_curve(build_reciprocal(b), m=360)
        assert symmetry_residual(samples) <= 1e-8 * max(1.0, sample_diameter(samples))


def test_symmetry_residual_sample_reflection_invariance():
    M = build_reciprocal([1.5, 2, 2.5, 1.5])
    samples = sample_curve(M, m=360)
    assert symmetry_residual(samples) <= 1e-8 * sample_diameter(samples)


def test_non_reciprocal_axis_symmetry_can_fail():
    # complex coupling product breaks the theta -> -theta invariance
    M = TridiagonalMatrix(n=3, a=0.0, b=(1.0, 2.0j), c=(1.0, 1.0))
    samples = sample_curve(M, m=360)
    assert symmetry_residual(samples) > 1e-3 * sample_diameter(samples)
    # central symmetry still holds for zero-diagonal tridiagonal matrices
    pts = np.array([s.point for s in samples])
    # the cloud and its negation are the same size, so both directions of
    # the Hausdorff distance come from one all-pairs distance matrix
    dist = np.abs(pts[:, None] + pts[None, :])
    d = max(dist.min(axis=1).max(), dist.min(axis=0).max())
    assert d <= 1e-8 * sample_diameter(samples)


def test_real_entries_keep_axis_symmetry():
    # real non-reciprocal entries leave the pencil even in theta, so the
    # spec's literal (1,2)/(1,1) example stays symmetric about both axes
    M = TridiagonalMatrix(n=3, a=0.0, b=(1.0, 2.0), c=(1.0, 1.0))
    samples = sample_curve(M, m=360)
    assert symmetry_residual(samples) <= 1e-8 * sample_diameter(samples)


def test_symmetry_residual_empty():
    assert symmetry_residual([]) == 0.0


def test_minimum_grid_size():
    with pytest.raises(ValueError):
        sample_curve(build_reciprocal([1]), m=4)


@pytest.mark.parametrize("m", [720.0, "16", None])
def test_grid_size_must_be_an_integer(m):
    with pytest.raises(TypeError, match="grid size m must be an integer"):
        sample_curve(build_reciprocal([1.5, 2.0]), m=m)


def test_grid_size_takes_numpy_integers():
    M = build_reciprocal([1.5, 2.0])
    got, want = sample_curve(M, m=np.int64(16)), sample_curve(M, m=16)
    np.testing.assert_array_equal(got.lam, want.lam)
    np.testing.assert_array_equal(got.points, want.points)


def _tangent_points(M, theta, T):
    """Descending eigenvalues of the pencil T at theta, and a dense <M v, v>
    for each eigenvector."""
    dense = M.dense()
    spectrum = eig_all(T, vectors=True)
    D = phase_diagonal(M, theta)
    order = np.argsort(-spectrum.values, kind="stable")
    vs = [D * spectrum.vectors[:, k] for k in order]
    return spectrum.values[order], [np.vdot(v, dense @ v) for v in vs]


def _reference(M, m):
    """Per-angle eigen-sweep: one eig_all and one dense <M v, v> per vector."""
    thetas = [2.0 * math.pi * i / m for i in range(m)]
    lam, points = zip(*(_tangent_points(M, t, realified_pencil(M, t)) for t in thetas))
    return np.array(lam), np.array(points)


def _assert_matches_reference(M, m):
    samples = sample_curve(M, m=m)
    lam, points = _reference(M, m)
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert samples.theta.shape == (m,) and samples.gap.shape == (m,)
    assert samples.lam.shape == samples.points.shape == (m, M.n)
    assert np.max(np.abs(samples.lam - lam)) <= 1e-12 * scale
    assert np.max(np.abs(samples.points - points)) <= 1e-12 * scale
    return samples


# moduli keep |h_j| >= 0.2 at every angle, so no eigenvalue gap is tiny and
# the eigenvectors are well conditioned, except at exact splits (b_1 = 1)
moduli = st.floats(min_value=1.25, max_value=4.0)
phases = st.floats(min_value=0.0, max_value=2 * math.pi)


@st.composite
def matrices(draw, min_n=2, max_n=8):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    kind = draw(st.sampled_from(["reciprocal", "split", "general"]))
    # real entries take the theta -> -theta mirror in sample_curve
    real = draw(st.booleans())

    def unit():
        if real:
            return draw(st.sampled_from([1.0, -1.0]))
        p = draw(phases)
        return complex(math.cos(p), math.sin(p))

    b = [draw(moduli) * unit() for _ in range(n - 1)]
    if kind == "split":
        # A_1 = 1: e_1 vanishes exactly at theta = pi/2 and 3 pi/2
        b[0] = 1.0
        return build_reciprocal(b), kind
    if kind == "reciprocal":
        return build_reciprocal(b), kind
    # |c_j| <= |b_j| - 0.5 keeps the pencil irreducible at every angle
    c = [draw(st.floats(min_value=0.25, max_value=0.75)) * unit() for _ in range(n - 1)]
    if real:
        a = draw(st.floats(min_value=0.1, max_value=2)) * unit()
    else:
        a = complex(draw(st.floats(min_value=-2, max_value=2)),
                    draw(st.floats(min_value=0.1, max_value=2)))
    return TridiagonalMatrix(n=n, a=a, b=tuple(b), c=tuple(c)), kind


@given(matrices(), st.integers(min_value=2, max_value=50), st.sampled_from([1, 3]))
@settings(max_examples=40, deadline=None)
def test_sampler_matches_per_angle_reference(case, quarter, odd):
    M, kind = case
    # a multiple of 4 puts pi/2 and 3 pi/2 on the grid; other kinds take
    # odd m, so no angle has a half-turn partner; most m are not multiples
    # of the 64-angle block
    _assert_matches_reference(M, 4 * quarter if kind == "split" else 4 * quarter + odd)


@given(matrices(min_n=9, max_n=20), st.integers(min_value=8, max_value=100))
@settings(max_examples=25, deadline=None)
def test_sampler_matches_reference_at_larger_sizes(case, m):
    # n = 9-20: B has up to 10 singular values; real and complex, every kind
    M, kind = case
    _assert_matches_reference(M, 4 * (m // 4) if kind == "split" else m)


def _non_split(case):
    return case[1] != "split"


@given(matrices(max_n=20).filter(_non_split), st.integers(min_value=8, max_value=150))
@settings(max_examples=30, deadline=None)
def test_minus_sigma_points_pair_with_plus_sigma_points(case, m):
    # the eigenvector of d0 - sigma is that of d0 + sigma with its odd slots
    # negated, which negates every w_j w_{j+1}: at every solved angle its
    # point is 2a minus the other's, bit for bit
    M, _ = case
    k = M.n // 2
    theta = 2.0 * np.pi * np.arange(m) / m
    lam, points = curve._sample_block(M, theta)
    np.testing.assert_array_equal(points[:, M.n - k:], 2 * M.a - points[:, k - 1::-1])
    # and the eigenvalues pair as d0 +- sigma
    d0 = np.real(np.exp(1j * theta) * M.a)[:, None]
    scale = max(1.0, float(np.max(np.abs(lam))))
    assert np.max(np.abs(lam[:, :k] + lam[:, ::-1][:, :k] - 2 * d0)) <= 1e-15 * scale


@given(matrices(max_n=19).filter(lambda case: _non_split(case) and case[0].n % 2),
       st.integers(min_value=8, max_value=150))
@settings(max_examples=30, deadline=None)
def test_odd_middle_branch_is_the_diagonal(case, m):
    # odd n: the middle eigenvector is B's left null vector in the even
    # slots, so every w_j w_{j+1} vanishes: the point is a and lam is d0
    M, _ = case
    k = M.n // 2
    samples = sample_curve(M, m=m)
    np.testing.assert_array_equal(samples.points[:, k], M.a)  # mirrors included
    lam, points = curve._sample_block(M, samples.theta)
    np.testing.assert_array_equal(lam[:, k], np.real(np.exp(1j * samples.theta) * M.a))
    np.testing.assert_array_equal(points[:, k], M.a)


@given(matrices(max_n=20), st.sampled_from([130, 131, 720]))
@example((build_reciprocal([1.5 + 2j]), "reciprocal"), 130)
@settings(max_examples=60, deadline=None)
def test_samples_do_not_depend_on_the_block_budget(case, m):
    # one angle a block against the default budget (one block up to n = 20):
    # the same bits, so an angle's samples do not depend on its batch.  The
    # example has n = 2, where NumPy's complex product rounds differently on
    # a one-element array
    M, kind = case
    want = sample_curve(M, m=m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(curve, "BLOCK_ENTRIES", 1)
        got = sample_curve(M, m=m)
    np.testing.assert_array_equal(got.lam, want.lam)
    np.testing.assert_array_equal(got.points, want.points)
    # the split angles' eig_all solves read the block's e rows bit for bit
    e = pencil(M, want.theta)[1]
    split = np.flatnonzero(np.any(e == 0.0, axis=1))
    assert len(split) == (2 if kind == "split" and m % 4 == 0 else 0)
    for t in split:
        assert realified_pencil(M, float(want.theta[t])).e == tuple(e[t])


@pytest.mark.parametrize("m", [63, 64, 65, 200])
def test_sampler_block_edges(m):
    M = TridiagonalMatrix(n=4, a=0.5 + 1j, b=(2.0, 1.5j, -3.0), c=(0.5, 0.25, 1j))
    _assert_matches_reference(M, m)


def test_split_angles_match_reference_and_flag_gap():
    # n = 20 with A_1 = 1: e_1 = 0 exactly at theta = pi/2 and 3 pi/2, where
    # two eigenvalues coincide and a single dense solve would move points
    # by up to 0.53
    A = (1.0,) + tuple(np.linspace(2.0, 9.0, 18))
    M = params_to_matrix(ReciprocalParams(A=A))
    samples = _assert_matches_reference(M, 720)
    scale = float(np.max(np.abs(samples.lam)))
    split = [180, 540]
    for i in split:
        # e_1 = cos(theta) is zero in exact arithmetic: the canonical tangent
        # points come from the two decoupled blocks
        T = realified_pencil(M, samples.theta[i])
        lam, points = _tangent_points(M, samples.theta[i],
                                      SymTridiagonal(d=T.d, e=(0.0,) + T.e[1:]))
        assert np.max(np.abs(samples.points[i] - points)) <= 1e-12 * scale
    assert np.all(samples.gap[split] <= 1e-12 * scale)
    assert np.all(samples.gap[split] == samples.gap.min())
    assert np.all(np.delete(samples.gap, split) > 1e-6 * scale)


@given(st.lists(st.floats(min_value=1.01, max_value=10.0), min_size=1, max_size=8))
@settings(max_examples=30, deadline=None)
def test_gaps_positive_when_all_parameters_above_one(A):
    samples = sample_curve(params_to_matrix(ReciprocalParams(A=tuple(A))), m=72)
    assert np.all(samples.gap > 0)


def test_gap_of_one_by_one_matrix_is_infinite():
    samples = sample_curve(TridiagonalMatrix(n=1, a=1j, b=(), c=()), m=8)
    assert np.all(samples.gap == np.inf)
    np.testing.assert_allclose(samples.points, 1j)


def test_samples_sequence_view():
    M = build_reciprocal([1.5, 2.0])
    samples = sample_curve(M, m=16)
    assert isinstance(samples, CurveSamples)
    assert len(samples) == 16 * 3
    for idx, s in enumerate(samples):
        i, k = divmod(idx, 3)
        assert s == CurveSample(theta=float(samples.theta[i]), branch=k + 1,
                                point=complex(samples.points[i, k]),
                                lam=float(samples.lam[i, k]))
    assert samples[-1] == samples[len(samples) - 1]
    assert samples[-1].branch == 3 and samples[-1].theta == samples.theta[-1]
    assert samples[-len(samples)] == samples[0]
    for bad in (len(samples), -len(samples) - 1):
        with pytest.raises(IndexError):
            samples[bad]


def test_branch_points_is_a_column():
    samples = sample_curve(build_reciprocal([1.5, 2.0]), m=16)
    for k in (1, 2, 3):
        np.testing.assert_array_equal(branch_points(samples, k), samples.points[:, k - 1])
    for bad in (0, 4):
        with pytest.raises(IndexError):
            branch_points(samples, bad)


@pytest.mark.parametrize("bad", [2.0, slice(0, 3), "1", None])
def test_curve_indices_must_be_integers(bad):
    samples = sample_curve(build_reciprocal([1.5, 2.0]), m=16)
    with pytest.raises(TypeError, match="sample index must be an integer"):
        samples[bad]
    with pytest.raises(TypeError, match="branch must be an integer"):
        branch_points(samples, bad)


def test_curve_indices_take_numpy_integers():
    samples = sample_curve(build_reciprocal([1.5, 2.0]), m=16)
    s = samples[np.int64(3)]
    assert s == samples[3] and type(s.branch) is int and s.branch == 1
    np.testing.assert_array_equal(branch_points(samples, np.int64(2)), samples.points[:, 1])


def _per_angle_residual(M, m):
    """The symmetry residual from one eig_all at each grid angle theta and
    one at -theta, the angle itself rather than its grid row."""
    worst = 0.0
    for i in range(m):
        theta = 2.0 * math.pi * i / m
        lam = eig_all(realified_pencil(M, theta)).values[::-1]
        mirror = eig_all(realified_pencil(M, -theta)).values[::-1]
        worst = max(worst, np.max(np.abs(lam - mirror)), np.max(np.abs(lam + mirror[::-1])))
    return float(worst)


@given(matrices(), st.integers(min_value=8, max_value=150))
@settings(max_examples=40, deadline=None)
def test_symmetry_residual_matches_per_angle_spectra(case, m):
    M, _ = case
    samples = sample_curve(M, m=m)
    scale = max(1.0, float(np.max(np.abs(samples.lam))))
    assert abs(symmetry_residual(samples) - _per_angle_residual(M, m)) <= 1e-12 * scale


@given(matrices().filter(lambda case: case[1] != "split"),
       st.integers(min_value=4, max_value=100))
@settings(max_examples=40, deadline=None)
def test_sampler_matches_reference_at_even_grid_sizes(case, half):
    # even m: the half-turn mirror fills rows [m/2, m); m = 2 mod 4 and
    # m = 0 mod 4 both occur, and most m/2 are not multiples of the block
    M, _ = case
    _assert_matches_reference(M, 2 * half)


@pytest.mark.parametrize("M", [
    build_reciprocal([1.5, 2j, 0.8 + 1.1j, 2.5]),
    TridiagonalMatrix(n=4, a=0.5 + 1j, b=(2.0, 1.5j, -3.0), c=(0.5, 0.25, 1j)),
])
@pytest.mark.parametrize("m", [130, 720])
def test_second_half_mirrors_first_half(M, m):
    samples = sample_curve(M, m=m)
    h = m // 2
    np.testing.assert_array_equal(samples.lam[h:], -samples.lam[:h, ::-1])
    np.testing.assert_array_equal(samples.points[h:], samples.points[:h, ::-1])
    np.testing.assert_array_equal(samples.gap[h:], samples.gap[:h])


REAL_MATRICES = [
    build_reciprocal([1.5, -2.0, 0.8, 2.5]),
    TridiagonalMatrix(n=4, a=-0.7, b=(2.0, -1.5, 3.0), c=(0.5, 0.25, -0.4)),
]


@pytest.mark.parametrize("M", REAL_MATRICES)
@pytest.mark.parametrize("m", [130, 720])
def test_second_quarter_mirrors_first_quarter(M, m):
    # real M: the angle pi - theta holds the negated eigenvalues in reverse
    # order and the conjugate tangent points
    samples = sample_curve(M, m=m)
    h = m // 2
    for i in range(m // 4 + 1, h):
        order = np.argsort(samples.lam[h - i], kind="stable")
        np.testing.assert_array_equal(samples.lam[i], -samples.lam[h - i, order])
        np.testing.assert_array_equal(samples.points[i], np.conj(samples.points[h - i, order]))


@pytest.mark.parametrize("M", REAL_MATRICES)
def test_odd_grid_mirrors_upper_half(M):
    # real M: the angle -theta holds the same eigenvalues and the conjugate
    # tangent points
    m = 721
    samples = sample_curve(M, m=m)
    for i in range(m // 2 + 1, m):
        np.testing.assert_array_equal(samples.lam[i], samples.lam[m - i])
        np.testing.assert_array_equal(samples.points[i], np.conj(samples.points[m - i]))


@pytest.mark.parametrize("M,solved", [
    (REAL_MATRICES[1], {720: 181, 722: 181, 721: 361}),
    (build_reciprocal([1.5, 2j, 2.5]), {720: 360, 722: 361, 721: 721}),
])
def test_angles_solved(monkeypatch, M, solved):
    blocks = []
    solve = curve._sample_block
    monkeypatch.setattr(curve, "_sample_block",
                        lambda M, theta: blocks.append(theta) or solve(M, theta))
    for m, count in solved.items():
        blocks.clear()
        sample_curve(M, m=m)
        np.testing.assert_array_equal(np.concatenate(blocks), 2.0 * np.pi * np.arange(count) / m)


def _record_blocks(monkeypatch):
    """Wrap curve._sample_block; returns the list of angle blocks it gets."""
    blocks = []
    solve = curve._sample_block
    monkeypatch.setattr(curve, "_sample_block",
                        lambda M, theta: blocks.append(theta) or solve(M, theta))
    return blocks


@pytest.mark.parametrize("M,m", [
    *[(TridiagonalMatrix(n=4, a=0.5 + 1j, b=(2.0, 1.5j, -3.0), c=(0.5, 0.25, 1j)), m)
      for m in (30, 32, 34, 62, 64, 66)],  # solves m / 2 angles
    *[(REAL_MATRICES[1], m) for m in (56, 60, 64)],  # solves m // 4 + 1
    *[(REAL_MATRICES[0], m) for m in (29, 31, 33)],  # solves m // 2 + 1
])
def test_sampler_at_block_budget_edges(monkeypatch, M, m):
    # a budget of 16 angles per block: the solved angles end one short of,
    # on, or one past a block edge
    k = M.n // 2
    monkeypatch.setattr(curve, "BLOCK_ENTRIES", 16 * k * (M.n - k))
    blocks = _record_blocks(monkeypatch)
    _assert_matches_reference(M, m)
    assert [len(t) for t in blocks[:-1]] == [16] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1]) <= 16


@pytest.mark.parametrize("n", [1, 2, 3, 20, 21, 77, 119, 120])
def test_blocks_stay_within_the_entry_budget(monkeypatch, n):
    blocks = _record_blocks(monkeypatch)
    k = n // 2
    for M in (params_to_matrix(ReciprocalParams(A=tuple(np.linspace(1.5, 4.0, n - 1)))),
              build_reciprocal(np.linspace(1.5, 4.0, n - 1) * 1j)):
        blocks.clear()
        sample_curve(M, m=720)
        assert max(len(t) for t in blocks) * k * (n - k) <= curve.BLOCK_ENTRIES


@pytest.mark.parametrize("n", range(1, 21))
def test_small_curves_are_one_block(monkeypatch, n):
    blocks = _record_blocks(monkeypatch)
    for M in (params_to_matrix(ReciprocalParams(A=(2.0,) * (n - 1))),
              build_reciprocal([1.5j] * (n - 1))):
        blocks.clear()
        sample_curve(M, m=720)
        assert len(blocks) == 1


@pytest.mark.parametrize("m", [16, 720])
def test_mirrored_split_angle_keeps_tie_order(m):
    # h_2 vanishes at theta = 0 and pi, leaving two 2 x 2 blocks with the
    # same eigenvalues +-1 but different tangent points; the mirrored row at
    # pi must list each tie in the order a direct solve there gives
    M = TridiagonalMatrix(n=4, a=0.0, b=(1.0, 1.0, 1.5 + 0.5j), c=(1.0, -1.0, 0.5 + 0.5j))
    samples = _assert_matches_reference(M, m)
    assert np.flatnonzero(samples.gap == 0.0).tolist() == [0, m // 2]
    assert len(set(np.round(samples.points[m // 2], 12))) == 4  # tied points differ


def test_half_turn_at_an_exact_tie():
    # h_2 vanishes at pi/2 and 3 pi/2: the blocks {1, 2} and {3, 4} both
    # have eigenvalues +-0.75, at distinct points.  Row 540 is the half-turn
    # of row 180, where a reversal would list each tie in the wrong order
    M = TridiagonalMatrix(n=4, a=0, b=(2, 1, 2 + 0.25j), c=(0.5, 1, 0.5 - 0.25j))
    samples = sample_curve(M, m=720)
    np.testing.assert_array_equal(samples.lam[180], [0.75, 0.75, -0.75, -0.75])
    assert samples.gap[180] == 0.0
    assert abs(samples.points[180, 0] - samples.points[180, 1]) > 0.2  # tied points differ
    theta = 3 * math.pi / 2
    lam, points = _tangent_points(M, theta, realified_pencil(M, theta))
    np.testing.assert_allclose(samples.lam[540], lam, rtol=0, atol=1e-12)
    np.testing.assert_allclose(samples.points[540], points, rtol=0, atol=1e-12)
    assert np.max(np.abs(samples.points[180, ::-1] - points)) > 0.2


@given(matrices(max_n=20), st.integers(min_value=4, max_value=75), st.sampled_from([0, 1]))
@settings(max_examples=40, deadline=None)
def test_gap_is_the_smallest_eigenvalue_difference(case, half, odd):
    # gap is computed on the solved rows and copied through the half-turn and
    # the mirror: the same bits as from every row of lam, at even and odd m
    M, _ = case
    samples = sample_curve(M, m=2 * half + odd)
    want = np.min(samples.lam[:, :-1] - samples.lam[:, 1:], axis=1, initial=np.inf)
    np.testing.assert_array_equal(samples.gap, want)


def _svd_reference(M, theta):
    """Descending eigenvalues and a dense <M v, v> for each eigenvector, from
    one np.linalg.svd of the unscaled bidiagonal B^T per angle."""
    n, k = M.n, M.n // 2
    dense = M.dense()
    d0, e, _ = pencil(M, theta)
    lam = np.empty((len(theta), n))
    points = np.empty((len(theta), n), dtype=complex)
    for t in range(len(theta)):
        Bt = np.zeros((k, n - k))
        for j in range(n - 1):
            Bt[j // 2, (j + 1) // 2] = e[t, j]
        V, sigma, Ut = np.linalg.svd(Bt)
        # (u, v) / sqrt 2 in the (even, odd) slots for d0 + sigma, (u, -v) /
        # sqrt 2 for d0 - sigma, and for odd n B's left null vector in the
        # even slots for d0
        W = np.zeros((n, n))
        W[0::2, :k], W[1::2, :k] = Ut[:k].T, V
        W[0::2, n - k:], W[1::2, n - k:] = Ut[k - 1::-1].T, -V[:, ::-1]
        W[:, :k] /= math.sqrt(2.0)
        W[:, n - k:] /= math.sqrt(2.0)
        if n % 2:
            W[0::2, k] = Ut[k]
        lam[t] = d0[t] + np.concatenate([sigma, [0.0] * (n % 2), -sigma[::-1]])
        v = phase_diagonal(M, theta[t])[:, None] * W
        points[t] = np.einsum("jk,jk->k", v.conj(), dense @ v)
    return lam, points


@st.composite
def near_split_matrices(draw):
    """Reciprocal matrices with A_j = 1, 1 + 10^-u or U[1, 10], n = 2-20,
    as they are, scaled by 2^600, or with b_1 scaled by 2^600 or 2^-600.

    pencil snaps e_j to zero below 8e-16 max(1, |b_j| + |c_j|), so a matrix
    scaled by 2^-600 is split at every angle; scaling b_1 alone (c_1 = 1 /
    b_1 follows) puts e_1 near 2^599 beside entries near 1, whose squares
    underflow once the row is scaled."""
    n = draw(st.integers(min_value=2, max_value=20))
    one = st.one_of(st.just(1.0),
                    st.floats(min_value=0.0, max_value=12.0).map(lambda u: 1.0 + 10.0 ** -u),
                    st.floats(min_value=1.0, max_value=10.0))
    M = params_to_matrix(ReciprocalParams(A=tuple(draw(one) for _ in range(n - 1))))
    stretch = draw(st.sampled_from(["none", "matrix", "b_1 up", "b_1 down"]))
    if stretch == "matrix":
        s = 2.0 ** 600
        return TridiagonalMatrix(n=n, a=0.0, b=tuple(s * v for v in M.b),
                                 c=tuple(s * v for v in M.c))
    if stretch != "none":
        return build_reciprocal([M.b[0] * 2.0 ** (600 if stretch == "b_1 up" else -600),
                                 *M.b[1:]])
    return M


# two singular values 9.2e-5 scale apart at theta = 109 pi / 360: without
# TIE_GUARD the cross product's points miss the SVD's by 1.8e-12 scale
NEAR_TIE = params_to_matrix(ReciprocalParams(A=(
    5.694170284196938, 1.0, 1.0, 1.0, 2.045633130512516, 9.529795336936202,
    2.801199092760908, 1.0, 6.356446328776979, 7.86088097105946,
    1.0000000074425732, 1.0, 3.536697577744892, 1.0000001320315952, 1.0,
    4.967473604707223, 1.0)))


@given(near_split_matrices(), st.integers(min_value=2, max_value=25))
@example(NEAR_TIE, 180)
@settings(max_examples=60, deadline=None)
def test_block_matches_per_angle_svd(M, quarter):
    # the cross-product eigensolve, with the SVD at ill-conditioned and
    # near-tied angles, against one SVD per angle; m = 4 * quarter puts
    # pi/2 on the grid.  Split angles are left out: eig_all keeps each
    # eigenvector inside one block, which a tied singular value's SVD need not
    theta = 2.0 * np.pi * np.arange(4 * quarter) / (4 * quarter)
    lam, points = curve._sample_block(M, theta)
    want_lam, want_points = _svd_reference(M, theta)
    scale = max(1.0, float(np.max(np.abs(want_lam))))
    assert np.max(np.abs(lam - want_lam)) <= 1e-12 * scale
    whole = ~np.any(pencil(M, theta)[1] == 0.0, axis=1)
    assert np.max(np.abs(points - want_points)[whole], initial=0.0) <= 1e-12 * scale


def _scaled_bidiagonals(M, theta):
    """B^T of every angle, unscaled and divided by the power of two at or
    below its largest entry."""
    n, k = M.n, M.n // 2
    e = pencil(M, theta)[1]
    j = np.arange(n - 1)
    Bt = np.zeros((len(theta), k, n - k))
    Bt[:, j // 2, (j + 1) // 2] = e
    scale = np.ldexp(1.0, np.frexp(e.max(axis=1))[1] - 1)
    return Bt, Bt / scale[:, None, None]


def test_guard_sends_angles_near_pi_half_to_the_svd(monkeypatch):
    # n = 20 with A_1 = 1: e_1 = |cos theta| makes B^T nearly singular near
    # pi/2, so those angles, and only those, are solved by the SVD of the
    # same scaled B^T, which gives the unscaled SVD's bits
    M = params_to_matrix(ReciprocalParams(A=(1.0,) + tuple(np.linspace(2.0, 9.0, 18))))
    k = M.n // 2
    theta = 2.0 * np.pi * np.arange(181) / 720
    d0 = pencil(M, theta)[0]
    Bt, scaled = _scaled_bidiagonals(M, theta)
    svd = np.linalg.svd
    sigma = svd(scaled, compute_uv=False)
    ill = np.flatnonzero(sigma[:, -1] <= curve.COND_GUARD * sigma[:, 0])
    assert ill.tolist() == list(range(171, 181))
    assert np.all(sigma[:, :-1] - sigma[:, 1:] > curve.TIE_GUARD * sigma[:, :1])
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.copy()) or svd(a, **kw))
    lam, points = curve._sample_block(M, theta)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], scaled[ill])
    # row 180 is the split angle pi/2, which eig_all solves afterwards
    for t in ill[:-1]:
        np.testing.assert_array_equal(lam[t, :k], d0[t] + svd(Bt[t], full_matrices=False)[1])
    # every angle through the SVD gives the guarded rows' points bit for bit
    monkeypatch.setattr(curve, "COND_GUARD", 1.0)
    all_lam, all_points = curve._sample_block(M, theta)
    np.testing.assert_array_equal(lam[ill], all_lam[ill])
    np.testing.assert_array_equal(points[ill], all_points[ill])
    assert np.max(np.abs(points - all_points)) <= 1e-12 * float(np.max(np.abs(lam)))


def test_tie_guard_sends_near_ties_to_the_svd(monkeypatch):
    # NEAR_TIE's angle 109 pi / 360 is well conditioned but tied, so the one
    # SVD call takes it beside the ill-conditioned angles near pi/2
    theta = 2.0 * np.pi * np.arange(181) / 720
    scaled = _scaled_bidiagonals(NEAR_TIE, theta)[1]
    sigma = np.linalg.svd(scaled, compute_uv=False)
    ill = sigma[:, -1] <= curve.COND_GUARD * sigma[:, 0]
    tied = (sigma[:, :-1] - sigma[:, 1:] <= curve.TIE_GUARD * sigma[:, :1]).any(axis=1)
    assert tied[109] and not ill[109]
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(a.copy()) or svd(a, **kw))
    curve._sample_block(NEAR_TIE, theta)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], scaled[ill | tied])


@pytest.mark.parametrize("n", [21, 22, 41])
def test_cross_product_runs_at_every_size(monkeypatch, n):
    # one eigh of the k x k cross products per block at any k, here 10, 11
    # and 20
    M = build_reciprocal(np.linspace(1.5, 4.0, n - 1) * 1j)
    shapes = []
    eigh = np.linalg.eigh
    with monkeypatch.context() as mp:
        mp.setattr(np.linalg, "eigh", lambda a, *args: shapes.append(a.shape) or eigh(a, *args))
        sample_curve(M, m=40)
    assert [shape[1:] for shape in shapes] == [(n // 2, n // 2)]
    _assert_matches_reference(M, 40)


@pytest.mark.parametrize("M", [
    build_reciprocal([1.0, 1.0, 1.0]),  # every e_j vanishes at pi/2
    params_to_matrix(ReciprocalParams(A=(1.0,) + tuple(np.linspace(2.0, 9.0, 18)))),
])
def test_sampling_raises_no_warning(M):
    # zero singular values at split angles divide nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples = sample_curve(M, m=720)
    assert np.all(np.isfinite(samples.points))


def test_symmetry_residual_needs_curve_samples():
    samples = sample_curve(build_reciprocal([1.5, 2.0]), m=16)
    with pytest.raises(TypeError):
        symmetry_residual(samples.points.ravel())
    assert symmetry_residual(np.array([], dtype=complex)) == 0.0
