"""The names and results of qwps that the benchmark reads.

``bench/spans.py`` wraps its ``ENTRY_POINTS`` by name and skips a name it
cannot find, so a rename inside qwps would zero that span's per-layer
metrics without any error.  The file is parsed here, not imported.
``bench/workloads.py`` passes weights through ``hi`` and ``HalfInt``, which
it reads from ``qwps.qcore``; its calls must read what the doubled cores do.
Its warm-up norms a sparse identity and a dense one through ``operator_norm``.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from qwps import cg, coaction, dirac, exact, operators
from qwps.coaction import WeightPair
from qwps.qcore import HalfInt, QContext, hi

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# replaced by dirac.gns_multiplication; the span list names it until the
# benchmark's next change
STALE = {("dirac", "_gns_multiplication_matrix")}


def entry_points():
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no ENTRY_POINTS")


def test_every_traced_entry_point_resolves():
    points = entry_points()
    assert points
    missing = {(mod, attr) for mod, attr, _ in points
               if not callable(getattr(importlib.import_module(f"qwps.{mod}"), attr, None))}
    assert missing <= STALE


def test_build_hook_reads_a_square_matrix():
    # the cg.build span's hook keeps result.matrix for its orthogonality metric,
    # and the cg.cg_block hook counts builds by the growth of cg._cache
    block = cg._build_block(hi(1), hi(0.5), QContext(0.5, 1e-9))
    assert block.matrix.ndim == 2 and block.matrix.shape == (6, 6)
    assert isinstance(cg._cache, dict)


def test_workload_call_patterns_equal_the_doubled_cores():
    # hi(t / 2) into the dimension functions (algebra's dims tasks), HalfInt(t) into
    # the oracles (the cli expectations) and cg_block (the spectral set-up), hi(c)
    # into commutator_norm (the spectral norms)
    for k, l in ((1, 1), (1, 2), (2, 3), (4, 5)):
        wp = WeightPair(k, l)
        for t in range(51):
            down, full = exact.dim_V_down_doubled(wp, t), exact.dim_V_doubled(wp, t)
            assert coaction.dim_V_down(wp, hi(t / 2)) == down
            assert coaction.dim_V_down_oracle(wp, hi(t / 2)) == down
            assert coaction.dim_V_down_oracle(wp, HalfInt(t)) == down
            assert coaction.dim_V(wp, hi(t / 2)) == full
            assert coaction.dim_V_oracle(wp, hi(t / 2)) == full
            assert coaction.dim_V_oracle(wp, HalfInt(t)) == full
    ctx = QContext(0.5, 1e-9)
    for tl in range(9):
        block = cg.cg_block(hi(0.5), HalfInt(tl), ctx)
        assert block.coupling is cg.cg_blocks([(1, tl)], ctx)[1, tl]
    for cap in (1, 2.5, 4):
        assert hi(cap) is cap
        assert dirac.commutator_norm("alpha", hi(cap), ctx) == dirac.commutator_norm(
            "alpha", HalfInt(int(2 * cap)), ctx)


def test_warm_up_norms():
    # bench/workloads.py's warm_up: a sparse input above the former dense cut-over,
    # normed through its Gram matrix, and a dense one through LAPACK's SVD
    assert operators.operator_norm(sp.identity(801, format="csr")) == 1.0
    assert operators.operator_norm(np.eye(2)) == 1.0
