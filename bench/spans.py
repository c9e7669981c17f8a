"""Spans around qwps's layer entry points, installed from outside the package.

``Tracer.install`` replaces each entry point below with a wrapper in every
loaded ``qwps`` module that holds it, because ``from .cg import cg_block``
binds a second name that a wrapper on the defining module alone would miss.
Spans (name, start, end, parent, task) are kept in flat arrays and written
out by ``dump``; self time is a span's duration minus the time its direct
children cover.  Counters (pairs, nnz, cache growth, ...) are summed where
the call returns.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# (module, attribute, span name); several attributes may share a span name
ENTRY_POINTS = (
    ("qcore", "irrep_word", "qcore.irrep_word"),
    ("qcore", "coproduct_action", "qcore.coproduct_action"),
    ("cg", "cg_block", "cg.cg_block"),
    ("cg", "_build_block", "cg.build"),
    ("coord", "multiply", "coord.multiply"),
    ("coord", "right_act", "coord.right_act"),
    ("coord", "left_act", "coord.left_act"),
    ("coaction", "verify_wp_relations", "coaction.verify_wp_relations"),
    ("coaction", "wp_gens", "coaction.wp_gens"),
    ("coaction", "dim_V_down_oracle", "coaction.dim_oracle"),
    ("coaction", "dim_V_up_oracle", "coaction.dim_oracle"),
    ("coaction", "dim_V_oracle", "coaction.dim_oracle"),
    ("coaction", "dim_V_down", "coaction.dim_closed"),
    ("coaction", "dim_V", "coaction.dim_closed"),
    ("dirac", "_gns_multiplication_matrix", "dirac.gns_matrix"),
    ("dirac", "commutator_norm", "dirac.commutator_norm"),
    ("dirac", "even_triple_operators", "dirac.even_triple_operators"),
    ("dirac", "q_dirac_check", "dirac.q_dirac_check"),
    ("dirac", "summability_partial_sum", "dirac.summability"),
    ("operators", "operator_norm", "operators.operator_norm"),
    ("teardrop", "_ambient_word", "teardrop.ambient_word"),
    ("teardrop", "block_structure_evidence", "teardrop.block_structure_evidence"),
    ("teardrop", "wp_relation_residuals", "teardrop.wp_relation_residuals"),
    ("cli", "main", "cli.main"),
)

SETUP_TASK = -1


def _nnz(mat) -> int:
    if hasattr(mat, "nnz"):
        return int(mat.nnz)
    return int(np.count_nonzero(np.asarray(mat)))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.built_blocks: list = []
        self.missing: list[str] = []
        self.current_task = SETUP_TASK
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name, fn, before=None, after=None):
        nid = self._name_id(span_name)
        stack = self._stack

        def traced(*args, **kwargs):
            token = before() if before else None
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.task.append(self.current_task)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if after:
                after(args, result, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # counters attached to particular entry points -------------------------

    def _hooks(self, span_name, cg_module):
        c = self.counts

        def add_nnz(key):
            def after(args, result, _):
                c[key] += _nnz(result)
            return after

        if span_name == "cg.cg_block":
            def before():
                return len(cg_module._cache)

            def after(args, result, size):
                c["cg.cg_block.builds"] += len(cg_module._cache) > size
            return before, after
        if span_name == "cg.build":
            return None, lambda args, result, _: self.built_blocks.append(result.matrix)
        if span_name == "coord.multiply":
            def after(args, result, _):
                c["coord.multiply.pairs"] += len(args[0]) * len(args[1])
                c["coord.multiply.terms_out"] += len(result)
            return None, after
        if span_name == "dirac.gns_matrix":
            return None, add_nnz("dirac.gns_matrix.nnz")
        if span_name == "operators.operator_norm":
            def after(args, result, _):
                c["operators.operator_norm.input_dim_sum"] += args[0].shape[1]
                c["operators.operator_norm.input_nnz"] += _nnz(args[0])
            return None, after
        if span_name == "teardrop.ambient_word":
            return None, add_nnz("teardrop.ambient_word.nnz")
        return None, None

    def install(self):
        """Wrap every entry point in every qwps module that binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qwps" or n.startswith("qwps."))]
        cg_module = sys.modules.get("qwps.cg")
        for mod_name, attr, span_name in ENTRY_POINTS:
            home = sys.modules.get(f"qwps.{mod_name}")
            original = getattr(home, attr, None) if home else None
            if original is None:
                self.missing.append(f"qwps.{mod_name}.{attr}")
                continue
            before, after = self._hooks(span_name, cg_module)
            wrapper = self.wrap(span_name, original, before, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    # analysis --------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "task": np.frombuffer(self.task, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path: Path, extra: dict | None = None) -> None:
        """Write the spans and counters (once, when the run ends)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        meta = {"names": self.names, "counts": dict(self.counts), "missing": self.missing}
        meta.update(extra or {})
        np.savez(path, meta=np.array(json.dumps(meta)), **self.arrays())

    def orth_err_max(self) -> float:
        worst = 0.0
        for mat in self.built_blocks:
            worst = max(worst, float(np.abs(mat @ mat.T - np.eye(mat.shape[0])).max()))
        self.built_blocks.clear()
        return worst


def load_dump(path: Path) -> tuple[dict, dict]:
    with np.load(path, allow_pickle=False) as z:
        meta = json.loads(str(z["meta"]))
        arrs = {k: z[k] for k in ("name", "parent", "task", "start", "end")}
    return meta, arrs


def span_totals(names, arrs) -> tuple[dict, dict]:
    """Per span name: (call count, total self time)."""
    dur = arrs["end"] - arrs["start"]
    parent = arrs["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child[: dur.size]
    by_name = np.bincount(arrs["name"], weights=self_time, minlength=len(names))
    calls = np.bincount(arrs["name"], minlength=len(names))
    return ({n: int(calls[i]) for i, n in enumerate(names)},
            {n: float(by_name[i]) for i, n in enumerate(names)})
