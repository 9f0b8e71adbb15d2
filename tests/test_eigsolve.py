import math

import numpy as np

from kippenhahn import SymTridiagonal, eig_all


def test_zero_matrix():
    T = SymTridiagonal(d=(0, 0, 0, 0), e=(0, 0, 0))
    assert np.allclose(eig_all(T).values, 0.0)


def test_unit_offdiagonal_cosine_spectrum():
    n = 5
    T = SymTridiagonal(d=(0,) * n, e=(1,) * (n - 1))
    want = sorted(2 * math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1))
    assert np.allclose(eig_all(T).values, want, atol=1e-12)


def _charpoly_roots(T):
    """Independent oracle: expand det(T - x I) by the three-term recursion
    with numpy polynomial arithmetic, then take its roots."""
    d = np.asarray(T.d)
    e = np.asarray(T.e)
    pm2 = np.poly1d([1.0])
    pm1 = np.poly1d([-1.0, d[0]])
    for j in range(1, len(d)):
        pm2, pm1 = pm1, np.poly1d([-1.0, d[j]]) * pm1 - e[j - 1] ** 2 * pm2
    return np.sort(np.real(np.roots(pm1)))


def test_random_matches_charpoly_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 6
        T = SymTridiagonal(d=tuple(rng.uniform(-2, 2, n)),
                           e=tuple(rng.uniform(0.1, 2, n - 1)))
        assert np.allclose(eig_all(T).values, _charpoly_roots(T), atol=1e-9)


def test_eigpair_scalar():
    spec = eig_all(SymTridiagonal(d=(5,), e=()))
    assert spec.values.tolist() == [5.0]
    assert np.allclose(spec.vectors[:, 0], [1.0])


def test_eigpair_two_by_two():
    spec = eig_all(SymTridiagonal(d=(0, 0), e=(1,)))
    assert abs(spec.values[1] - 1.0) < 1e-14
    assert np.allclose(np.abs(spec.vectors[:, 1]), [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_eigpair_residuals_random():
    rng = np.random.default_rng(5)
    T = SymTridiagonal(d=tuple(rng.uniform(-1, 1, 6)), e=tuple(rng.uniform(0.2, 2, 5)))
    dense = T.dense()
    norm = np.abs(dense).sum(axis=1).max()
    spec = eig_all(T)
    for lam, vec in zip(spec.values, spec.vectors.T):
        assert np.linalg.norm(dense @ vec - lam * vec) <= 1e-9 * max(1.0, norm)
        assert abs(np.linalg.norm(vec) - 1.0) <= 1e-12


def test_trace_identity():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        T = SymTridiagonal(d=tuple(rng.uniform(-3, 3, n)),
                           e=tuple(rng.uniform(0, 2, n - 1)))
        norm = np.abs(T.dense()).sum(axis=1).max()
        assert abs(eig_all(T).values.sum() - sum(T.d)) <= 1e-9 * n * max(1.0, norm)


def test_cauchy_interlacing():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        d = tuple(rng.uniform(-2, 2, n))
        e = tuple(rng.uniform(0.1, 2, n - 1))
        full = eig_all(SymTridiagonal(d=d, e=e)).values
        sub = eig_all(SymTridiagonal(d=d[:-1], e=e[:-1])).values
        for k in range(n - 1):
            assert full[k] - 1e-12 <= sub[k] <= full[k + 1] + 1e-12


def test_simple_eigenvalues_positive_gap():
    rng = np.random.default_rng(21)
    T = SymTridiagonal(d=tuple(rng.uniform(-1, 1, 7)), e=tuple(rng.uniform(0.3, 2, 6)))
    assert np.diff(eig_all(T).values).min() > 0


def test_block_splitting_at_zero_offdiagonal():
    T = SymTridiagonal(d=(0.5, -0.5, 1.0, 2.0), e=(1.0, 0.0, 3.0))
    spec = eig_all(T)
    dense = T.dense()
    assert np.allclose(np.sort(np.linalg.eigvalsh(dense)), spec.values, atol=1e-12)
    for k in range(4):
        v = spec.vectors[:, k]
        assert np.linalg.norm(dense @ v - spec.values[k] * v) <= 1e-9
