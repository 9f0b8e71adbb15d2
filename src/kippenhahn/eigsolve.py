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

