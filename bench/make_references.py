"""Regenerate bench/references.json: exact reference values for the spectral
workload's commutator norms.

For each (generator, cap) the operator is the interior commutator block that
``qwps.dirac.commutator_norm`` hands to ``operator_norm``.  Its norm squared
is the largest eigenvalue of the Gram matrix AᵀA.  That matrix splits into
connected components (multiplication conserves the weights (m, n)), so the
reference is the largest dense LAPACK eigenvalue over the components.  At
caps <= 8 it is cross-checked against ``eigvalsh`` of the whole Gram matrix.

Run from the repository root:

    python3 bench/make_references.py
"""

from __future__ import annotations

import datetime
import json
import math
import os
import platform
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
from scipy.sparse.csgraph import connected_components  # noqa: E402

from qwps import dirac  # noqa: E402
from qwps.qcore import QContext, hi  # noqa: E402

Q, TOL = 0.5, 1e-9
CAPS = (4, 6, 8, 10, 12, 16)
DENSE_CHECK_MAX_CAP = 8
OUT = Path(__file__).resolve().parent / "references.json"


def commutator_operator(gen: str, cap: int, ctx: QContext):
    """The sparse matrix commutator_norm passes to operator_norm."""
    captured = []
    original = dirac.operator_norm
    dirac.operator_norm = lambda mat, *a, **k: captured.append(mat) or 0.0
    try:
        dirac.commutator_norm(gen, hi(cap), ctx)
    finally:
        dirac.operator_norm = original
    (mat,) = captured
    return sp.csr_matrix(mat)


def reference_norm(a) -> tuple[float, int, int]:
    gram = (a.conj().T @ a).tocsr()
    if np.iscomplexobj(gram):
        gram = gram.real
    n_comp, labels = connected_components(gram != 0, directed=False)
    top, largest = 0.0, 0
    for c in range(n_comp):
        idx = np.flatnonzero(labels == c)
        largest = max(largest, idx.size)
        block = gram[idx][:, idx].toarray()
        top = max(top, float(np.linalg.eigvalsh(block)[-1]))
    return math.sqrt(top), int(n_comp), int(largest)


def main() -> int:
    ctx = QContext(Q, TOL)
    norms = {}
    for gen in ("alpha", "beta"):
        for cap in CAPS:
            a = commutator_operator(gen, cap, ctx)
            value, n_comp, largest = reference_norm(a)
            entry = {
                "value": value,
                "shape": list(a.shape),
                "nnz": int(a.nnz),
                "components": n_comp,
                "largest_component": largest,
            }
            if cap <= DENSE_CHECK_MAX_CAP:
                gram = (a.conj().T @ a).toarray().real
                dense = math.sqrt(float(np.linalg.eigvalsh(gram)[-1]))
                entry["full_dense"] = dense
                entry["full_dense_rel_diff"] = abs(dense - value) / value
            norms[f"{gen}:{cap}"] = entry
            print(f"{gen} cap {cap}: {value!r} ({n_comp} components, largest {largest})")
    doc = {
        "what": "norm of the interior commutator [Q, pi(gen)] of qwps.dirac.commutator_norm",
        "method": (
            "sqrt of the largest numpy.linalg.eigvalsh eigenvalue over the connected "
            "components of the Gram matrix A^T A; caps <= 8 also carry the eigvalsh "
            "value of the whole Gram matrix"
        ),
        "q": Q,
        "tol": TOL,
        "generated": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "norms": norms,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
