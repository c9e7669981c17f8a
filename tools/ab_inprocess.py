"""Time two qwps trees against each other in one interpreter.

    python3 tools/ab_inprocess.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout holding ``src/qwps``.  Both packages are copied into a
temporary directory as ``qwps_parent`` and ``qwps_change``; qwps imports itself
only relatively, so both load side by side.  Separate processes cannot resolve
a few percent on a host whose speed drifts between runs; interleaved rounds in
one process see the same drift on both sides.

Eleven things are timed per round, the side that goes first alternating:

- ``build``: every Clebsch-Gordan block with 2 lam1, 2 lam2 <= 8 at
  q = 0.3, 0.5 and 0.8, from an emptied block cache;
- ``block-hit``: the same blocks read again from the warm cache;
- the three checks that read generator words, each alone, at the same three
  q: ``actions``, ``coord.action_table_residuals`` and
  ``equivariance_residuals``, which read the regular actions;
  ``star-pairing``, ``coord.star_pairing_residual``; and ``qdirac``,
  ``dirac.q_dirac_check(2)``, which reads dense words and the legs of its
  spinor labels;
- ``spinors``: ``dirac.coinvariant_spinor_basis`` up to j = 6 and the
  ``spinor_legs`` of every label, for (k, l) = (1, 1), (1, 2) and (2, 3) at
  the same three q: the labels and legs the odd triple's operators read;
- ``cold-pass``: the checks that build most blocks, from an emptied block
  cache at the same three q: ``coaction.verify_wp_relations`` for every
  coprime (k, l) with k + l <= 8, ``coord.haar_orthogonality_residual(2)``,
  and ``dirac.chirality_checks(5)`` for (k, l) = (1, 1), (1, 2) and (2, 3);
- ``norms``: ``dirac.commutator_norm`` for alpha and beta at caps 4, 6, 8, 10,
  12 and 16 and q = 0.5, the benchmark's ``spectral`` norms, with their
  blocks already built;
- ``exact``: ``exact.summability_partial_sum`` at N = 512, 1024 and 2048
  with the exponents 2 and 3, and ``odd_triple_spectrum`` and
  ``even_triple_spectrum`` at cap 20, for both triples and (k, l) = (1, 1),
  (1, 2) and (2, 3): the summability path of the benchmark's ``algebra``
  workload;
- ``teardrop``: the ``spectral`` benchmark's teardrop ambient words,
  ``teardrop.block_structure_evidence`` for (l, j, n) = (2, 1, 0), (2, 1, 1),
  (3, 1, -1) and (3, 2, 0) at N = 64 and ``wp_rep_via_ambient`` for
  (l, s, gen) = (2, 1, a), (2, 2, b) and (3, 1, bstar) at m = -2, 0 and 5 and
  N = 12, at q = 0.5;
- ``cold-chain``: ``dirac.chirality_checks((1, 64), 5)`` from an emptied
  block cache at the same three q as ``build``, which builds the chain of
  blocks that ``coaction.wp_gens`` multiplies through.

Each task runs once on each side before its timed rounds.  For each it
prints the median change/parent time ratio, its quartiles and the
number of rounds the change was faster.
"""

from __future__ import annotations

import argparse
import importlib
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

GRID = range(9)  # doubled highest weights
QS = (0.3, 0.5, 0.8)
WP_PAIRS = [(k, s - k) for s in range(2, 9) for k in range(1, s) if math.gcd(k, s - k) == 1]
CHIRALITY_PAIRS = ((1, 1), (1, 2), (2, 3))
SPINOR_J_MAX = 6
HIT_REPEATS = 20
NORM_CAPS = (4, 6, 8, 10, 12, 16)
SUMMABILITY_NS = (512, 1024, 2048)
TEARDROP_BLOCKS = ((2, 1, 0), (2, 1, 1), (3, 1, -1), (3, 2, 0))  # (l, j, n)
TEARDROP_AMBIENT = ((2, 1, "a"), (2, 2, "b"), (3, 1, "bstar"))  # (l, s, gen)
ROUNDS = 60  # interleaved rounds per task


def load(root: Path, name: str, into: Path):
    shutil.copytree(root / "src" / "qwps", into / name)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("cg", "coaction", "coord", "dirac", "exact", "operators", "qcore",
                        "teardrop")}


def build(pkg):
    pkg["cg"].clear_cache()
    for ctx in pkg["ctxs"]:
        for a2 in GRID:
            for b2 in GRID:
                pkg["cg"].cg_block(a2 / 2, b2 / 2, ctx)


def block_hits(pkg):
    for _ in range(HIT_REPEATS):
        for ctx in pkg["ctxs"]:
            for a2 in GRID:
                for b2 in GRID:
                    pkg["cg"].cg_block(a2 / 2, b2 / 2, ctx)


def actions(pkg):
    for ctx in pkg["ctxs"]:
        pkg["coord"].action_table_residuals(ctx)
        pkg["coord"].equivariance_residuals(ctx)


def star_pairing(pkg):
    for ctx in pkg["ctxs"]:
        pkg["coord"].star_pairing_residual(ctx)


def qdirac(pkg):
    for ctx in pkg["ctxs"]:
        pkg["dirac"].q_dirac_check(2, ctx)


def spinors(pkg):
    dirac, pair = pkg["dirac"], pkg["exact"].WeightPair
    for ctx in pkg["ctxs"]:
        for k, l in CHIRALITY_PAIRS:
            for idx in dirac.coinvariant_spinor_basis(pair(k, l), SPINOR_J_MAX):
                dirac.spinor_legs(idx, ctx)


def cold_pass(pkg):
    pkg["cg"].clear_cache()
    coaction, dirac, pair = pkg["coaction"], pkg["dirac"], pkg["exact"].WeightPair
    for ctx in pkg["ctxs"]:
        for k, l in WP_PAIRS:
            coaction.verify_wp_relations(pair(k, l), ctx)
        pkg["coord"].haar_orthogonality_residual(ctx, 2)
        for k, l in CHIRALITY_PAIRS:
            dirac.chirality_checks(pair(k, l), 5, ctx)


def norms(pkg):
    ctx = pkg["norm_ctx"]
    for gen in ("alpha", "beta"):
        for cap in NORM_CAPS:
            pkg["dirac"].commutator_norm(gen, cap, ctx)


def exact(pkg):
    ex = pkg["exact"]
    for k, l in CHIRALITY_PAIRS:
        wp = ex.WeightPair(k, l)
        for triple in ("odd", "even"):
            for n in SUMMABILITY_NS:
                for exponent in (2, 3):
                    ex.summability_partial_sum(wp, n, triple, exponent)
        ex.odd_triple_spectrum(wp, 20)
        ex.even_triple_spectrum(wp, 20)


def teardrop(pkg):
    ctx, td = pkg["norm_ctx"], pkg["teardrop"]
    for l, j, n in TEARDROP_BLOCKS:
        td.block_structure_evidence(l, n, j, 64, ctx)
    for l, s, gen in TEARDROP_AMBIENT:
        for m in (-2, 0, 5):
            td.wp_rep_via_ambient(l, m, s, gen, 12, ctx)


def cold_chain(pkg):
    pkg["cg"].clear_cache()
    for ctx in pkg["ctxs"]:
        pkg["dirac"].chirality_checks(pkg["exact"].WeightPair(1, 64), 5, ctx)


TASKS = (("build", build), ("block-hit", block_hits), ("actions", actions),
         ("star-pairing", star_pairing), ("qdirac", qdirac), ("spinors", spinors),
         ("cold-pass", cold_pass), ("norms", norms), ("exact", exact), ("teardrop", teardrop),
         ("cold-chain", cold_chain))


def timed(fn, pkg) -> float:
    start = time.perf_counter()
    fn(pkg)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = {name: load(root, f"qwps_{name}", Path(tmp))
                 for name, root in (("parent", args.parent), ("change", args.change))}
        for pkg in sides.values():
            pkg["ctxs"] = [pkg["exact"].QContext(q, 1e-9) for q in QS]
            pkg["norm_ctx"] = pkg["exact"].QContext(0.5, 1e-9)
        print(f"{'task':<12} {'median':>7} {'q1':>7} {'q3':>7}  change faster")
        for label, fn in TASKS:
            for pkg in sides.values():
                fn(pkg)  # one untimed run warms the allocator and the blocks the task reads
            ratios = []
            for r in range(ROUNDS):
                order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
                times = {name: timed(fn, sides[name]) for name in order}
                ratios.append(times["change"] / times["parent"])
            q1, median, q3 = statistics.quantiles(ratios, n=4)
            wins = sum(ratio < 1.0 for ratio in ratios)
            print(f"{label:<12} {median:7.3f} {q1:7.3f} {q3:7.3f}  {wins}/{len(ratios)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
