"""Finite truncations of densely defined operators.

A TruncatedOperator is a square matrix together with the explicit ordered
basis of the truncated Hilbert space it acts on: row and column i belong to
basis[i].

eigvalsh_max solves the Hermitian blocks of one size as one stack.  The
commutator norms of qwps.dirac call it on the tridiagonal blocks they keep;
gram_norm calls it on every block of a Gram matrix given as entries, for
operator_norm's sparse branch, and no module of the package calls
operator_norm.  The teardrop relations are diagonals or single shifts, and
are normed entrywise.

operator_norm and TruncatedOperator stay because the benchmark in bench/ reads
them: its warm-up norms a sparse identity, and its teardrop workload reads the
``.matrix`` of the wp_rep operators.  They go when the benchmark next changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import math
import sys

import numpy as np


__all__ = ["TruncatedOperator", "eigvalsh_max", "gram_norm", "operator_norm"]


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


def eigvalsh_max(count, size, entries, dtype=float) -> float:
    """The largest eigenvalue over a stack of ``count`` Hermitian matrices of
    side ``size``, 0 but for ``entries``: pairs (index, vals), written in turn
    into the stack viewed as ``count`` rows of size * size.

    The stack is one batched LAPACK call, and eigvalsh diagonalises each of its
    matrices on its own, so the result is the same to the bit however the
    matrices of one size are split into stacks.
    """
    stack = np.zeros((count, size * size), dtype=dtype)
    for index, vals in entries:
        stack[index] = vals
    return float(np.linalg.eigvalsh(stack.reshape(count, size, size)).max())


def gram_norm(block, pos, rows, cols, vals) -> float:
    """Square root of the largest eigenvalue of a Gram matrix A*A that is
    block diagonal up to a permutation.

    Index i sits at position ``pos[i]`` of block ``block[i]``; A*A holds
    ``vals[k]`` at (``rows[k]``, ``cols[k]``), each entry once.  The blocks of
    each size are one stack for :func:`eigvalsh_max`.
    """
    sizes = np.bincount(block)
    home = sizes[block[rows]]
    top = 0.0
    for size in np.unique(sizes[sizes > 0]).tolist():
        members = sizes == size
        at = np.flatnonzero(home == size)
        r, c = rows[at], cols[at]
        slot = (np.cumsum(members) - 1)[block[r]]
        top = max(top, eigvalsh_max(int(members.sum()), size,
                                    [((slot, pos[r] * size + pos[c]), vals[at])], vals.dtype))
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
