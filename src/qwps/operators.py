"""Finite truncations of densely defined operators, and the spectral norm.

A TruncatedOperator is a square matrix together with the explicit ordered
basis of the truncated Hilbert space it acts on: row and column i belong to
basis[i].  No module of the package calls operator_norm; both names stay
because the benchmark in bench/ reads them: its warm-up norms a sparse
identity, and its teardrop workload reads the ``.matrix`` of the wp_rep
operators.  They go when the benchmark next changes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
            raise ValueError(f"matrix shape {self.matrix.shape} does not match basis size {n}")


def operator_norm(mat) -> float:
    """Spectral norm: LAPACK's SVD for a dense input, and for a sparse one (any
    input with ``toarray``) the root of the largest eigenvalue of its Gram
    matrix A*A, densified.  qwps never imports scipy."""
    if not hasattr(mat, "toarray"):
        return float(np.linalg.norm(np.asarray(mat), 2))
    return math.sqrt(np.linalg.eigvalsh((mat.conj().T @ mat).toarray()).max(initial=0.0))
