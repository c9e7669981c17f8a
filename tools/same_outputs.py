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
  ``coord.action_table_residuals`` and ``star_pairing_residual``, and
  ``coaction.verify_wp_relations`` for every coprime (k, l) with k + l <= 8,
  the pairs of the ``algebra`` benchmark;
- ``couplings``: the ``coupling`` lists of every Clebsch-Gordan block with
  2 lam1, 2 lam2 <= 20, from an emptied cache;
- ``norms``: ``dirac.commutator_norm`` for alpha and beta at caps 4 to 16;
- ``spinors``: the labels of ``dirac.coinvariant_spinor_basis`` with their
  ``spinor_legs`` for (k, l) = (1, 1), (1, 2), (2, 3) and (3, 5) up to j = 4,
  ``cg.cg_coeff_updown`` for every 2j <= 16 and every mu, with the
  refusals at mu = j + 1/2 and j + 1, and
  ``dirac.q_dirac_check`` at j_max from -1/2 to 7/2 in steps of 1/2 (the
  ends are refusals).  A label is compared as its tuple (2j, 2m, 2mu,
  arrow), so a change of the label's type alone does not count;
- ``teardrop``: ``teardrop.wp_rep`` at N = 12 and ``wp_rep_via_ambient``
  (m = -2, 0 and 5) at N = 2 (the benchmark warm-up's) and 12, for every
  l <= 3, copy s and generator, the ``block_structure_evidence`` reports for
  every l <= 3, 1 <= j <= l and n = -1, 0, 1 at N = 64 and for every l <= 6,
  1 <= j <= l and |n| <= 3 (criterion 13's grid) at N = 8 (the guard's
  edge) and 16, and ``wp_relation_residuals`` for l <= 4 at N = 64;
- ``even``: the ``dirac.even_triple_operators`` arrays at lam_max 5, and the
  ``gns_multiplication`` triplets of a and b on their labels;
- ``exact``: both triples' spectra up to cap 20 for every coprime (k, l)
  with k + l <= 12, ``dim_table`` up to index 25 and
  ``summability_partial_sum`` at N = 7.5 (within the sum's head for every
  pair), 512, 1024, 2048 and 65536 with the exponents 2 and 3, and the
  refusals of a triple that is neither 'odd' nor 'even' by
  ``summability_partial_sum`` and the spectra's ``_spectrum``, alone and
  after a refused N or cap;
- ``sparse``: ``operators.operator_norm`` on the benchmark warm-up's sparse
  identity of side 801, on seeded real and complex block-diagonal CSR
  matrices with permuted rows and columns, on blocks whose Gram tops tie or
  nearly tie, on an all-zero and an empty matrix and on two dense ones
  (``operators.gram_norm`` is deleted, so the family no longer calls it);
- ``parse``: the values of ``PARSE_VALUES`` (not half-integers, doubles
  that overflow, inf, nan, -1/2, 3/2, 2 and 2**60 + 1, as floats, ints and
  Fractions) through every public entry that reads a weight or a cap, with
  (k, l) = (1, 2) and q = 0.5; 2**60 + 1 only through the entries whose cost
  does not grow with it.  ``coord.BasisIndex`` is read through its ``of``
  where a tree has one.

Words, actions, reports, teardrop and even run at q = 0.3, 0.5, 0.8 and 1e-3,
spinors at those and 0.05, couplings and norms at the first three; exact and
sparse read no q.  The pairs (k, l) are (1, 1), (1, 2) and (2, 3) unless named.
An entry whose function one side lacks is counted as absent, not as equal.
It prints the counts per family, for each family with a mismatch the largest
distance in ulps between the floats of its differing entries (where both
sides give the same number of floats), and the first mismatch; it exits 1 on
any mismatch.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from ab_inprocess import load

QS = (0.3, 0.5, 0.8, 1e-3)
LETTERS = ("e", "f", "k", "kinv")
WORDS = [w for r in range(4) for w in itertools.product(LETTERS, repeat=r)]
ACTION_WORDS = [w for r in range(3) for w in itertools.product(LETTERS, repeat=r)]
ELEMENTS_PER_Q = 40
WP_PAIRS = ((1, 1), (1, 2), (2, 3))
RELATION_PAIRS = [(k, s - k) for s in range(2, 9) for k in range(1, s) if math.gcd(k, s - k) == 1]
NORM_CAPS = (4, 6, 8, 10, 12, 16)
SPINOR_QS = QS + (0.05,)
SPINOR_PAIRS = WP_PAIRS + ((3, 5),)
# 7.5 lies within every pair's head (2N + 1 <= 20(k+l)), the rest past it
SUMMABILITY_NS = (7.5, 512, 1024, 2048, 65536)
EXACT_PAIRS = [(k, s - k) for s in range(2, 13) for k in range(1, s) if math.gcd(k, s - k) == 1]
BAD_TRIPLES = ("", "Odd", "both", None)
SPARSE_PER_DTYPE = 20
HUGE = 2**60 + 1  # not a double: a parse through float would round it
PARSE_VALUES = (0.3, 1e308, -1e308, math.inf, math.nan, Fraction(1, 3), -0.5, Fraction(3, 2),
                2, HUGE)
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
    if dataclasses.is_dataclass(value):  # a TruncatedOperator or SpectrumTable, field by field
        return type(value).__name__ + dump({f.name: getattr(value, f.name)
                                            for f in dataclasses.fields(value)})
    return repr(value)


def floats(value) -> np.ndarray:
    """The floats of a library output, complex parts included, in ``dump``'s order."""
    if hasattr(value, "tobytes"):
        value = np.asarray(value)
        if value.dtype.kind == "c":
            return value.astype(complex).ravel().view(float)
        return value.astype(float).ravel() if value.dtype.kind == "f" else np.zeros(0)
    if isinstance(value, (float, complex)):
        return np.array([value.real, value.imag] if isinstance(value, complex) else [value])
    if isinstance(value, dict):
        value = [x for item in value.items() for x in item]
    elif hasattr(value, "terms"):
        value = list(value.terms.items())
    elif dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return np.concatenate([floats(v) for v in value] or [np.zeros(0)])
    return np.zeros(0)


def ulps(a, b):
    """The largest distance in ulps between the floats of two differing outputs,
    or None if they hold different numbers of floats or differ elsewhere."""
    fa, fb = floats(a), floats(b)
    if fa.size != fb.size:
        return None
    # the float64 bit patterns, made monotone in the value: -x maps to -bits(x)
    ia, ib = ([-(i & 0x7FFFFFFFFFFFFFFF) if i < 0 else i for i in f.view(np.int64).tolist()]
              for f in (fa, fb))
    return max((abs(x - y) for x, y in zip(ia, ib)), default=0) or None


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


def sparse_inputs():
    """(name, matrix) for the norm inputs, seeded; all but the last two are CSR."""
    rng = np.random.default_rng(2024)
    unitary = lambda s: np.linalg.qr(  # noqa: E731
        rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))[0]
    yield "identity-801", sp.identity(801, format="csr")
    for kind, n in itertools.product(("real", "complex"), range(SPARSE_PER_DTYPE)):
        sizes = rng.integers(1, 7, size=rng.integers(1, 12))
        blocks = [rng.standard_normal((s, s)) + (kind == "complex") * 1j * rng.standard_normal((s, s))
                  for s in sizes]
        mat = sp.block_diag(blocks, format="csr")
        yield f"{kind}-{n}", mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])]
    # Gram blocks whose tops tie or lie one ulp apart, either way round
    yield "bound-equals-floor", sp.block_diag([[[1.0, 1.0]], [[1.0], [1.0]]], format="csr")
    yield "one-ulp-apart", sp.block_diag([[[1.0], [2.0**-26]], [[1.0]]], format="csr")
    yield "one-ulp-apart-swapped", sp.block_diag([[[1.0]], [[1.0], [2.0**-26]]], format="csr")
    yield "complex-ties", sp.block_diag([0.5 * unitary(s) for s in (1, 2, 3, 4, 3, 2)], format="csr")
    yield "all-zero", sp.csr_matrix((6, 9))
    yield "empty", sp.csr_matrix((0, 0))
    yield "dense-eye", np.eye(2)
    yield "dense-complex", rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))


def catalogue(pkg):
    """(family, key, thunk) for every entry, in a fixed order; a thunk reads
    the modules of ``pkg`` only when it is called."""
    ctxs = {q: pkg["exact"].QContext(q, 1e-9) for q in QS}

    def call(module, name, *args, before=None, then=None):
        def thunk():
            fn = getattr(pkg[module], name, ABSENT)
            if fn is ABSENT:
                return ABSENT
            if before is not None:
                before()
            value = fn(*args)
            return value if then is None else then(value)
        return thunk

    def legs(ctx):  # each label as its doubled ints, with its legs
        return lambda labels: [(tuple(idx), pkg["dirac"].spinor_legs(idx, ctx)) for idx in labels]

    def basis_index(value):  # through BasisIndex.of where a tree's constructor reads no value
        index = pkg["coord"].BasisIndex
        return getattr(index, "of", index)(value, value, value)

    def triplets(wp, ctx):  # the triplets of a and b on the even triple's labels
        labels = np.array(pkg["coaction"].coinvariant_coord_basis(wp, 5), dtype=int).T
        return [pkg["dirac"].gns_multiplication(x, labels, ctx)
                for x in pkg["coaction"].wp_gens(wp, ctx)]

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
        for k, l in RELATION_PAIRS:
            yield "reports", (q, "wp", k, l), call("coaction", "verify_wp_relations", pair(k, l), ctx)
        for k, l in WP_PAIRS:
            for name in ("chirality_checks", "fredholm_degeneracy"):
                yield "reports", (q, name, k, l), call("dirac", name, pair(k, l), 5, ctx)
        for l in (1, 2, 3):
            yield "reports", (q, "teardrop", l), call("teardrop", "wp_relation_residuals", l, 16, ctx)
    for q in QS[:3]:
        ctx = ctxs[q]
        for t1, t2 in itertools.product(range(21), repeat=2):
            # the first block of a q empties the cache, so every block is built here
            clear = pkg["cg"].clear_cache if (t1, t2) == (0, 0) else None
            block = call("cg", "cg_block", t1 / 2, t2 / 2, ctx, before=clear)
            yield "couplings", (q, t1, t2), lambda block=block: getattr(block(), "coupling", ABSENT)
        for gen in ("alpha", "beta"):
            for cap in NORM_CAPS:
                yield "norms", (q, gen, cap), call("dirac", "commutator_norm", gen, cap, ctx)
    for q in SPINOR_QS:
        ctx = pkg["exact"].QContext(q, 1e-9)
        for k, l in SPINOR_PAIRS:
            yield "spinors", (q, "legs", k, l), call(
                "dirac", "coinvariant_spinor_basis", pair(k, l), 4, then=legs(ctx))
        for tj in range(17):
            for tmu in (*range(-tj, tj + 1, 2), tj + 1, tj + 2):  # and two refusals
                yield "spinors", (q, "updown", tj, tmu), call(
                    "cg", "cg_coeff_updown", tj / 2, tmu / 2, ctx)
        for tj in range(-1, 8):
            yield "spinors", (q, "qdirac", tj), call("dirac", "q_dirac_check", tj / 2, ctx)
    for q, ctx in ctxs.items():
        for l in (1, 2, 3):
            for s, gen in itertools.product(range(1, l + 1), ("a", "b", "bstar")):
                yield "teardrop", (q, "wp_rep", l, s, gen), call(
                    "teardrop", "wp_rep", l, 0, s, gen, 12, ctx)
                for m, N in itertools.product((-2, 0, 5), (2, 12)):
                    yield "teardrop", (q, "via_ambient", l, m, s, gen, N), call(
                        "teardrop", "wp_rep_via_ambient", l, m, s, gen, N, ctx)
            for j, n in itertools.product(range(1, l + 1), (-1, 0, 1)):
                yield "teardrop", (q, "blocks", l, j, n), call(
                    "teardrop", "block_structure_evidence", l, n, j, 64, ctx)
        for l in range(1, 7):
            for j, n, N in itertools.product(range(1, l + 1), range(-3, 4), (8, 16)):
                yield "teardrop", (q, "blocks", l, j, n, N), call(
                    "teardrop", "block_structure_evidence", l, n, j, N, ctx)
        for l in (1, 2, 3, 4):
            yield "teardrop", (q, "relations", l), call("teardrop", "wp_relation_residuals", l, 64, ctx)
    for q, ctx in ctxs.items():
        for k, l in WP_PAIRS:
            yield "even", (q, "operators", k, l), call("dirac", "even_triple_operators", pair(k, l), 5, ctx)
            yield "even", (q, "triplets", k, l), lambda wp=pair(k, l), ctx=ctx: triplets(wp, ctx)
    for k, l in EXACT_PAIRS:
        for triple in ("odd", "even"):
            yield "exact", ("spectrum", k, l, triple), call(
                "exact", f"{triple}_triple_spectrum", pair(k, l), 20)
    for bad in BAD_TRIPLES:  # alone, then after a refused N or cap
        for n in (4, 0, 0.3):
            yield "exact", ("refusal", bad, "N", n), call(
                "exact", "summability_partial_sum", pair(1, 2), n, bad)
        for cap in (2, 0.3):
            yield "exact", ("refusal", bad, "cap", cap), call(
                "exact", "_spectrum", pair(1, 2), bad, cap)
    for k, l in WP_PAIRS:
        yield "exact", ("dim_table", k, l), call("exact", "dim_table", pair(k, l), 25)
        for triple in ("odd", "even"):
            for n, exponent in itertools.product(SUMMABILITY_NS, (2, 3)):
                yield "exact", ("summability", k, l, triple, n, exponent), call(
                    "exact", "summability_partial_sum", pair(k, l), n, triple, exponent)

    ctx, wp = ctxs[0.5], pair(1, 2)
    coupling = lambda block: block.coupling  # noqa: E731  (the block's labels change type)
    for value in PARSE_VALUES:
        entries = [("exact", "dim_V", wp, value), ("exact", "dim_V_down", wp, value),
                   ("qcore", "word_shift", value, "e", ctx), ("qcore", "q_int", value, ctx),
                   ("cg", "cg_coeff_updown", value, value, ctx),
                   ("dirac", "q_dirac_check", value, ctx),
                   ("dirac", "commutator_norm", "alpha", value, ctx),
                   ("exact", "summability_partial_sum", wp, value, "odd")]
        if value != HUGE:  # these list or loop over every shell up to the value
            entries += [("exact", name, wp, value)
                        for name in ("dim_V_down_oracle", "dim_V_up_oracle", "dim_V_oracle",
                                     "dim_table", "odd_triple_spectrum", "even_triple_spectrum")]
            entries += [("coaction", "coinvariant_coord_basis", wp, value),
                        ("dirac", "coinvariant_spinor_basis", wp, value),
                        ("coord", "haar_orthogonality_residual", ctx, value),
                        ("dirac", "chirality_checks", wp, value, ctx)]
            yield "parse", (value, "cg_block"), call(
                "cg", "cg_block", value, 0.5, ctx, then=coupling)
            yield "parse", (value, "BasisIndex"), lambda v=value: basis_index(v)
        for module, name, *args in entries:
            yield "parse", (value, name), call(module, name, *args)

    for name, mat in sparse_inputs():
        yield "sparse", ("operator_norm", name), call("operators", "operator_norm", mat)


def outcome(thunk):
    """(the output's byte-exact form, the output); a refusal's output is ABSENT."""
    try:
        value = thunk()
    except Exception as exc:  # a refusal is an output too
        return f"raised {type(exc).__name__}: {exc}", ABSENT
    return (value, value) if value is ABSENT else (dump(value), value)


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
            got, values = zip(outcome(parent), outcome(change))
            tally = counts.setdefault(family, {"equal": 0, "differ": 0, "absent": 0, "ulps": 0})
            if ABSENT in got:
                kind = "absent"
            else:
                kind = "equal" if got[0] == got[1] else "differ"
            if kind == "differ":
                first = first or (family, key, got)
                apart = None if any(v is ABSENT for v in values) else ulps(*values)
                tally["ulps"] = None if None in (apart, tally["ulps"]) else max(tally["ulps"], apart)
            tally[kind] += 1
    print(f"{'family':<10} {'equal':>7} {'differ':>7} {'absent':>7} {'max ulps':>9}")
    for family, tally in counts.items():
        apart = "" if not tally["differ"] else "n/a" if tally["ulps"] is None else tally["ulps"]
        print(f"{family:<10} {tally['equal']:>7} {tally['differ']:>7} {tally['absent']:>7} "
              f"{apart:>9}")
    if first is None:
        return 0
    family, key, (parent, change) = first
    print(f"first mismatch: {family} {key!r}")
    print(f"  parent: {parent[:300]}")
    print(f"  change: {change[:300]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
