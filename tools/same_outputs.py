"""Check that two qwps trees give the same library outputs, bit for bit.

    python3 tools/same_outputs.py PARENT_ROOT CHANGE_ROOT

Both trees are loaded side by side in one interpreter, as by
``tools/ab_inprocess.py``, and every entry of a fixed catalogue is computed on
each side and compared by bytes: arrays by dtype, shape and ``tobytes``,
floats and complex parts by ``float.hex``, everything else by ``repr``.  A
call that raises yields its exception type and message, which must match too.
The families are:

- ``words``: ``qcore.irrep_word`` for every word of up to 3 letters with
  2 lam <= 20;
- ``actions``: ``coord.right_act`` and ``left_act`` for the empty word, the
  letters and every two-letter word on 40 seeded mixed elements per q, with
  terms and their order;
- ``reports``: the library report behind every verify suite, with
  ``coord.action_table_residuals`` and ``star_pairing_residual``;
- ``couplings``: the ``coupling`` lists of every Clebsch-Gordan block with
  2 lam1, 2 lam2 <= 12, from an emptied cache;
- ``norms``: ``dirac.commutator_norm`` for alpha and beta at caps 4 to 16.

Words, actions and reports run at q = 0.3, 0.5, 0.8 and 1e-3, couplings and
norms at the first three.  An entry whose function one side lacks is counted
as absent, not as equal.  It prints the counts per family and the first
mismatch, and exits 1 on any mismatch.
"""

from __future__ import annotations

import itertools
import random
import sys
import tempfile
from pathlib import Path

from ab_inprocess import load

QS = (0.3, 0.5, 0.8, 1e-3)
LETTERS = ("e", "f", "k", "kinv")
WORDS = [w for r in range(4) for w in itertools.product(LETTERS, repeat=r)]
ACTION_WORDS = [w for r in range(3) for w in itertools.product(LETTERS, repeat=r)]
ELEMENTS_PER_Q = 40
WP_PAIRS = ((1, 1), (1, 2), (2, 3))
NORM_CAPS = (4, 6, 8, 10, 12, 16)
ABSENT = object()


def dump(value) -> str:
    """A byte-exact text form of a library output."""
    if hasattr(value, "tobytes"):
        if getattr(value, "ndim", 0) == 0:  # a numpy scalar keeps its type in the form
            return f"{type(value).__name__}({dump(value.item())})"
        return f"{value.dtype}{value.shape}:{value.tobytes().hex()}"
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return f"({value.real.hex()},{value.imag.hex()})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{dump(k)}: {dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(dump(v) for v in value) + "]"
    if hasattr(value, "terms"):  # an AlgebraElement, terms in insertion order
        return "element" + dump(list(value.terms.items()))
    return repr(value)


def elements(pkg, q):
    """Seeded mixed elements: 1 to 6 terms with 2 lam <= 8 and complex coefficients."""
    rng = random.Random(f"same-outputs {q}")
    out = []
    for _ in range(ELEMENTS_PER_Q):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            tl = rng.randint(0, 8)
            idx = pkg["coord"].BasisIndex.doubled(
                tl, rng.randrange(-tl, tl + 1, 2), rng.randrange(-tl, tl + 1, 2))
            terms[idx] = complex(rng.uniform(-2, 2), rng.choice((0.0, rng.uniform(-2, 2))))
        out.append(pkg["coord"].AlgebraElement(terms))
    return out


def catalogue(pkg):
    """(family, key, thunk) for every entry, in a fixed order; a thunk reads
    the modules of ``pkg`` only when it is called."""
    ctxs = {q: pkg["exact"].QContext(q, 1e-9) for q in QS}

    def call(module, name, *args, before=None):
        def thunk():
            fn = getattr(pkg[module], name, ABSENT)
            if fn is ABSENT:
                return ABSENT
            if before is not None:
                before()
            return fn(*args)
        return thunk

    pair = pkg["exact"].WeightPair
    for q, ctx in ctxs.items():
        for tl in range(21):
            for word in WORDS:
                yield "words", (q, tl, word), call("qcore", "irrep_word", tl / 2, word, ctx)
    for q, ctx in ctxs.items():
        for n, a in enumerate(elements(pkg, q)):
            for word in ACTION_WORDS:
                for name in ("right_act", "left_act"):
                    yield "actions", (q, n, word, name), call("coord", name, word, a, ctx)
    for q, ctx in ctxs.items():
        for name in ("relation_residuals", "action_table_residuals", "equivariance_residuals",
                     "star_pairing_residual"):
            yield "reports", (q, name), call("coord", name, ctx)
        yield "reports", (q, "haar"), call("coord", "haar_orthogonality_residual", ctx, 2)
        yield "reports", (q, "qdirac"), call("dirac", "q_dirac_check", 2, ctx)
        for k, l in WP_PAIRS:
            yield "reports", (q, "wp", k, l), call("coaction", "verify_wp_relations", pair(k, l), ctx)
            for name in ("chirality_checks", "fredholm_degeneracy"):
                yield "reports", (q, name, k, l), call("dirac", name, pair(k, l), 5, ctx)
        for l in (1, 2, 3):
            yield "reports", (q, "teardrop", l), call("teardrop", "wp_relation_residuals", l, 16, ctx)
    for q in QS[:3]:
        ctx = ctxs[q]
        for t1, t2 in itertools.product(range(13), repeat=2):
            # the first block of a q empties the cache, so every block is built here
            clear = pkg["cg"].clear_cache if (t1, t2) == (0, 0) else None
            block = call("cg", "cg_block", t1 / 2, t2 / 2, ctx, before=clear)
            yield "couplings", (q, t1, t2), lambda block=block: getattr(block(), "coupling", ABSENT)
        for gen in ("alpha", "beta"):
            for cap in NORM_CAPS:
                yield "norms", (q, gen, cap), call("dirac", "commutator_norm", gen, cap, ctx)


def outcome(thunk):
    try:
        value = thunk()
    except Exception as exc:  # a refusal is an output too
        return f"raised {type(exc).__name__}: {exc}"
    return value if value is ABSENT else dump(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in argv]
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        sides = [load(root, f"qwps_{name}", Path(tmp)) for name, root in
                 zip(("parent", "change"), roots)]
        counts, first = {}, None
        for (family, key, parent), (_, _, change) in zip(*map(catalogue, sides)):
            got = outcome(parent), outcome(change)
            if ABSENT in got:
                kind = "absent"
            else:
                kind = "equal" if got[0] == got[1] else "differ"
                if kind == "differ" and first is None:
                    first = family, key, got
            tally = counts.setdefault(family, {"equal": 0, "differ": 0, "absent": 0})
            tally[kind] += 1
    print(f"{'family':<10} {'equal':>7} {'differ':>7} {'absent':>7}")
    for family, tally in counts.items():
        print(f"{family:<10} {tally['equal']:>7} {tally['differ']:>7} {tally['absent']:>7}")
    if first is None:
        return 0
    family, key, (parent, change) = first
    print(f"first mismatch: {family} {key!r}")
    print(f"  parent: {parent[:300]}")
    print(f"  change: {change[:300]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
