"""The names and results of qwps that the benchmark's span tracer reads.

``bench/spans.py`` wraps its ``ENTRY_POINTS`` by name and skips a name it
cannot find, so a rename inside qwps would zero that span's per-layer
metrics without any error.  The file is parsed here, not imported.
"""

import ast
import importlib
from pathlib import Path

from qwps import cg
from qwps.exact import QContext, hi

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
