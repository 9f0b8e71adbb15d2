"""Eigenvalues and eigenvectors of real symmetric tridiagonal matrices.

Splits the matrix into independent blocks at exact zeros of the
off-diagonal and solves each block densely with LAPACK through
numpy.linalg.eigh, so hermitian-degenerate angles are handled exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .trimat import SymTridiagonal


class IndexOutOfRange(IndexError, ValueError):
    """Eigenpair index k must satisfy 1 <= k <= n."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues, optionally paired with orthonormal eigenvectors."""

    values: np.ndarray
    vectors: Optional[np.ndarray] = None  # column k pairs with values[k]

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.vectors is not None:
            object.__setattr__(self, "vectors", np.asarray(self.vectors, dtype=float))


def _blocks(e):
    """Index ranges [i0, i1) of irreducible blocks split at e_j == 0."""
    out = []
    start = 0
    for j, ej in enumerate(e):
        if ej == 0.0:
            out.append((start, j + 1))
            start = j + 1
    out.append((start, len(e) + 1))
    return out


def eig_all(T: SymTridiagonal, vectors: bool = False) -> Spectrum:
    """All eigenvalues of T ascending, with eigenvectors on request."""
    d = np.asarray(T.d, dtype=float)
    e = np.asarray(T.e, dtype=float)
    n = len(d)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    vals = np.empty(n)
    vecs = np.zeros((n, n)) if vectors else None
    for i0, i1 in _blocks(e):
        block = dense[i0:i1, i0:i1]
        if vectors:
            vals[i0:i1], vecs[i0:i1, i0:i1] = np.linalg.eigh(block)
        else:
            vals[i0:i1] = np.linalg.eigvalsh(block)
    order = np.argsort(vals, kind="stable")
    return Spectrum(values=vals[order], vectors=vecs[:, order] if vectors else None)


def eigpair(T: SymTridiagonal, k: int):
    """k-th smallest eigenvalue (1-based) and a unit eigenvector."""
    n = len(T.d)
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"k={k} outside 1..{n}")
    s = eig_all(T, vectors=True)
    return float(s.values[k - 1]), s.vectors[:, k - 1]


def min_gap(T: SymTridiagonal) -> float:
    """Smallest gap between consecutive eigenvalues (positive iff all e_j > 0)."""
    v = eig_all(T).values
    if len(v) < 2:
        return np.inf
    return float(np.min(np.diff(v)))
