"""Finite truncations of densely defined operators.

A TruncatedOperator is a square matrix together with the explicit ordered
basis of the truncated Hilbert space it acts on: row and column i belong to
basis[i].

The commutator norms build their Gram matrix by weight block and norm it with
gram_norm, which eigensolves only the blocks whose Gershgorin bound reaches the
largest diagonal entry; operator_norm's sparse branch shares it, and no module
of the package calls operator_norm.  The teardrop relations are diagonals or
single shifts, and are normed entrywise.

operator_norm and TruncatedOperator stay because the benchmark in bench/ reads
them: its warm-up norms a sparse identity, and its teardrop workload reads the
``.matrix`` of the wp_rep operators.  They go when the benchmark next changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import sys

import numpy as np


__all__ = ["TruncatedOperator", "gram_norm", "operator_norm"]


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


# the Gershgorin screen's relative slack; see gram_norm
GERSHGORIN_SLACK = 1e-12


def gram_norm(block, pos, rows, cols, vals) -> float:
    """Square root of the largest eigenvalue of a Gram matrix A*A that is
    block diagonal up to a permutation.

    Index i sits at position ``pos[i]`` of block ``block[i]``; A*A holds
    ``vals[k]`` at (``rows[k]``, ``cols[k]``), each entry once.  The largest
    diagonal entry, ``floor``, is a lower bound on the result, and a block's
    eigenvalues are at most its largest absolute row sum (Gershgorin).  A block
    whose row sums all fall below floor (1 - GERSHGORIN_SLACK) cannot hold the
    maximum and is skipped; the block holding ``floor`` is always kept.  eigvalsh
    is backward stable, each computed eigenvalue within about n eps ||B|| of an
    exact one, under 1e-14 relative for blocks of side n <= 80 (cap 80); the
    slack is 100 times that, so the max over the kept blocks is the unscreened
    max bit for bit.  The kept entries are written into one flat buffer with one
    scatter, the blocks ordered by size, and the blocks of each size are viewed
    as one stack and diagonalised in one batched LAPACK call.
    """
    floor = float(vals[rows == cols].real.max(initial=0.0))
    sizes = np.bincount(block)
    bound = np.zeros(sizes.size)
    np.maximum.at(bound, block, np.bincount(rows, np.abs(vals), minlength=block.size))
    sizes[bound < floor * (1.0 - GERSHGORIN_SLACK)] = 0
    kept = np.flatnonzero(sizes[block[rows]])
    rows, cols, vals = rows[kept], cols[kept], vals[kept]
    order = np.argsort(sizes, kind="stable")
    area = sizes[order] ** 2
    start = np.empty_like(sizes)
    start[order] = np.cumsum(area) - area
    flat = np.zeros(int(area.sum()), dtype=vals.dtype)
    home = block[rows]
    flat[start[home] + pos[rows] * sizes[home] + pos[cols]] = vals
    top, lo = 0.0, 0
    for size, n in zip(*(a.tolist() for a in np.unique(sizes, return_counts=True))):
        hi = lo + n * size * size
        if size:
            stack = flat[lo:hi].reshape(n, size, size)
            top = max(top, float(np.linalg.eigvalsh(stack).max()))
        lo = hi
    return math.sqrt(top)


def operator_norm(mat) -> float:
    """Spectral norm.

    Dense inputs use LAPACK directly.  Sparse inputs are normed exactly: the
    Gram matrix A*A splits into connected components, and :func:`gram_norm`
    takes the largest eigenvalue over them.  scipy is loaded only by a
    caller that passes a sparse matrix.
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
    return gram_norm(labels, pos, gram.row, gram.col, gram.data)
