"""Finite truncations of densely defined operators.

A TruncatedOperator is a square matrix together with the explicit ordered
basis of the truncated Hilbert space it acts on: row and column i belong to
basis[i].  Only the commutator norms go through operator_norm; the teardrop
relations are diagonals or single shifts, and are normed entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import sys

import numpy as np


__all__ = ["TruncatedOperator", "operator_norm"]


@dataclass
class TruncatedOperator:
    """Dense matrix acting on an explicitly indexed finite basis."""

    basis: tuple
    matrix: np.ndarray

    def __post_init__(self):
        n = len(self.basis)
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match basis size {n}"
            )


def operator_norm(mat) -> float:
    """Spectral norm.

    Dense inputs use LAPACK directly.  Sparse inputs are normed exactly: the
    Gram matrix A*A splits into connected components (for the GNS operators
    here, one per conserved weight pair (m, n)), and the norm is the square
    root of the largest eigenvalue over the components.  Components of equal
    size are stacked and diagonalised in one batched LAPACK call.
    """
    # a sparse input can only exist once scipy.sparse is loaded, so the dense
    # path never imports scipy
    sp = sys.modules.get("scipy.sparse")
    if sp is None or not sp.issparse(mat):
        return float(np.linalg.norm(np.asarray(mat), 2))
    from scipy.sparse.csgraph import connected_components

    gram = (mat.conj().T @ mat).tocsr()
    # the pattern, not the values: csgraph casts complex input to real
    n_comp, labels = connected_components(gram != 0, directed=False)
    gram = gram.tocoo()
    sizes = np.bincount(labels, minlength=n_comp)
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(labels)
    pos[order] = np.arange(labels.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = 0.0
    for size in np.unique(sizes):
        members = sizes == size
        slot = np.cumsum(members) - 1
        keep = members[labels[gram.row]]
        stack = np.zeros((int(members.sum()), size, size), dtype=gram.dtype)
        r, c = gram.row[keep], gram.col[keep]
        stack[slot[labels[r]], pos[r], pos[c]] = gram.data[keep]
        top = max(top, float(np.linalg.eigvalsh(stack).max()))
    return math.sqrt(top)
