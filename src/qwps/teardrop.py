"""Concrete operator models for the weight-(1, l) algebras and their K-theory.

For k = 1 the degree-zero algebra acts irreducibly on l copies of l2(N0),

    a  . e_p = q^{2(lp+s-1)} e_p,
    b* . e_p = q^{lp+s-1} prod_{r=1}^{l} sqrt(1 - q^{2(lp+s-r)}) e_{p-1},

with b* killing e_0, while the ambient faithful representation of the full
coordinate algebra lives on l2(Z) ⊗ l2(N0),

    alpha . e_z ⊗ e_n = sqrt(1 - q^{2(n+1)}) e_z ⊗ e_{n+1},
    beta  . e_z ⊗ e_n = q^n e_{z+1} ⊗ e_n.

The models are evaluated on finite truncations, the relations of a and b
stated by :func:`~qwps.exact.wp_relations` entrywise on their coefficient
arrays.  The ambient generators are weighted shifts, so an ambient word sends
each basis vector to one multiple of one basis vector; it is walked once over
arrays of basis vectors, with a cached table of Python's powers q**e and
the letters' coefficients multiplied in word order, so each entry is bitwise
the walk of that vector alone.  Restricting the ambient
representation to the invariant subspaces X_m (spanned by e_{m+p} ⊗ e_p^s)
recovers the closed forms above independently of m, degree-nl elements move
X_m to X_{m+n}, and products drawn from alpha*^j times the degree-nl
component exhibit the shift-power block pattern read from the ranks of
:func:`~qwps.exact.ktheory_class`, the finite-rank/cofinite projections of the
component of order nl + j.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import mul

import numpy as np

from .exact import QContext, ktheory_class, residual_max, wp_relations, wp_words
from .operators import TruncatedOperator

__all__ = [
    "wp_rep",
    "wp_rep_via_ambient",
    "wp_relation_residuals",
    "block_structure_evidence",
]

# wp_relation_residuals keeps the bound it had as about 2l(l+3) dense N x N products,
# so it refuses the same l and N.  Entrywise its work is about l^2 N: 0.31 s at the
# edge l = 986, N = 32, 79 ms at l = 500, N = 32 (15.7 s dense), 74 ms at l = 347,
# N = 64 and 1 ms at l = 1, N = 2,000 (medians of 7, 2 cores)
RELATION_WORK_GUARD = 32_000_000_000


def _check_wp_args(l, s, N):
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not (1 <= s <= l):
        raise ValueError(f"s must lie in 1..{l}, got {s}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")


@lru_cache(maxsize=16)
def _powers(q: float, stop: int) -> np.ndarray:
    """Python's q**e for e = 0 .. stop - 1, as read-only float64 kept for the
    next walks: the exponents are Python ints in an object array, so each entry
    is the scalar formulas' q**e; numpy's SIMD power rounds some differently."""
    table = np.power(q, np.arange(stop, dtype=object)).astype(float)
    table.flags.writeable = False
    return table


def _wp_coefficients(l, s, N, q):
    """The diagonal of a on copy s, and c with b* e_{p+1} = c[p] e_p, b e_p = c[p] e_{p+1},
    one row per s if s is an int column: with n = lp + s - 1, a = q^{2n} and c the
    product of q^{n+l} and sqrt(1 - q^{2(n+i)}) over i = l, ..., 1, in that order."""
    n = l * np.arange(N) + s - 1
    pw = _powers(q, 2 * int(np.max(n)) + 1)
    prod = np.ones(n[..., 1:].shape)
    for i in range(l, 0, -1):
        prod *= np.sqrt(1.0 - pw[2 * (n[..., :-1] + i)])
    return pw[2 * n], pw[n[..., 1:]] * prod


def wp_rep(l: int, m: int, s: int, gen: str, N: int, ctx: QContext) -> TruncatedOperator:
    """Irreducible representation of the degree-zero generators on the s-th
    copy, truncated to dimension N.  The entries do not involve m; the
    interface keeps it so the independence can be verified against the
    ambient construction (:func:`wp_rep_via_ambient`)."""
    _check_wp_args(l, s, N)
    offset = {"a": 0, "bstar": 1, "b": -1}.get(gen)
    if offset is None:
        raise ValueError(f"gen must be 'a', 'b' or 'bstar', got {gen!r}")
    a, c = _wp_coefficients(l, s, N, ctx.q)
    mat = np.diag(a if offset == 0 else c, offset).astype(complex)
    return TruncatedOperator(tuple((s, p) for p in range(N)), mat)


# ---------------------------------------------------------------------------
# ambient representation on l2(Z) ⊗ l2(N0)


def _ambient_word(word, z, n, ctx: QContext, reach=0):
    """Image of e_z ⊗ e_n under a word in the generators, as (coeff, z', n'),
    entrywise over int arrays z, n of one shape; on ints it returns
    (float, int, int).

    Every generator is a weighted shift, so a word sends a basis vector to one
    multiple of one basis vector; the rightmost letter acts first, and alpha*
    kills e_0: a killed entry reads 0.0 and keeps the z, n it had there.  The
    powers are Python's q**e from one table of :func:`_powers`, and the
    letters' coefficients are multiplied in word order, the association order
    of the matrix product of the letters, so every entry is bitwise the walk
    of one basis vector at a time in Python floats.  The table reaches at
    least n = ``reach``, so the walks of one call can read one table.
    """
    z, n = np.asarray(z, dtype=np.int64), np.asarray(n, dtype=np.int64)
    if n.min(initial=0) < 0:
        raise ValueError("n must be >= 0: the ambient representation lives on l2(Z) ⊗ l2(N0)")
    top = max(reach, int(n.max(initial=0)) + word.count("alpha"))  # the largest n reached
    pw = _powers(ctx.q, 2 * top + 1)  # the beta, beta* weight q^n at n
    root = np.sqrt(1.0 - pw[::2])  # the alpha, alpha* weight sqrt(1 - q^{2n}) at n
    alive = np.ones(n.shape, dtype=bool)
    coeffs = []
    for letter in reversed(word):
        if letter == "alpha":
            n = n + alive
            coeffs.append(root[n])
        elif letter == "alphastar":
            alive = alive & (n > 0)
            coeffs.append(root[n])
            n = n - alive
        elif letter in ("beta", "betastar"):
            coeffs.append(pw[n])
            z = z + alive if letter == "beta" else z - alive
        else:
            raise ValueError(f"unknown generator letter {letter!r}")
    coeff = np.where(alive, reduce(mul, reversed(coeffs), 1.0), 0.0)
    if coeff.ndim == 0:
        return float(coeff), int(z), int(n)
    return coeff, z, n


def wp_rep_via_ambient(
    l: int, m: int, s: int, gen: str, N: int, ctx: QContext
) -> TruncatedOperator:
    """Same operator as :func:`wp_rep`, produced by restricting the ambient
    representation to the invariant subspace spanned by e_{m+p} ⊗ e^s_p."""
    _check_wp_args(l, s, N)
    word = dict(zip(("a", "b", "bstar"), wp_words(1, l))).get(gen)
    if word is None:
        raise ValueError(f"gen must be 'a', 'b' or 'bstar', got {gen!r}")
    p = np.arange(N)
    coeff, z, n = _ambient_word(word, m + p, l * p + s - 1, ctx)
    p_out = z - m
    kept = (0 <= p_out) & (p_out < N) & (n == l * p_out + s - 1)
    mat = np.zeros((N, N), dtype=complex)
    mat[p_out[kept], p[kept]] = coeff[kept]
    basis = tuple((s, p) for p in range(N))
    return TruncatedOperator(basis, mat)


def wp_relation_residuals(l: int, N: int, ctx: QContext) -> dict:
    """Spectral-norm residuals of the defining relations on the truncation,
    per copy s; the b* b relation is evaluated on the interior columns only
    (b leaks through the top of the truncation).  Each difference is diagonal
    or one shift, so its norm is its largest absolute entry, taken on the
    coefficient arrays in the association order of the dense matrix products.
    The max is NaN if any residual is.  Refuses l and N beyond
    RELATION_WORK_GUARD, and the l, q that :func:`~qwps.exact.wp_relations`
    refuses."""
    _check_wp_args(l, 1, N)
    work = l * (l + 3) * max(N, 32) ** 3
    if work > RELATION_WORK_GUARD:
        raise ValueError(
            f"l = {l}, N = {N}: l(l+3) max(N, 32)^3 = {work:.3g} exceeds the cost guard "
            f"{RELATION_WORK_GUARD:.3g}"
        )
    r, scale, f_bsb, f_bbs = wp_relations(1, l, ctx.q)
    a, c = _wp_coefficients(l, np.arange(1, l + 1)[:, None], N, ctx.q)

    def rhs(scale, factors):
        """(scale a) prod (1 + f a) over factors, the right-hand sides' diagonals;
        one that overflows reads inf, and its residual fails the report."""
        prod = np.ones_like(a)
        with np.errstate(over="ignore"):
            for f in factors:
                prod *= 1.0 + f * a
            return scale * a * prod

    bb = c * c  # b* b on e_0 .. e_{N-2}, and b b* on e_1 .. e_{N-1}
    rhs_bsb = rhs(scale, f_bsb)
    rhs_bbs = rhs(1.0, f_bbs)
    diffs = {
        "a_selfadjoint": a - a.conj(),
        "a_bstar": a[:, :-1] * c - r * c * a[:, 1:],
        "bstar_b_interior": bb - rhs_bsb[:, :-1],
        "b_bstar": np.pad(bb, ((0, 0), (1, 0))) - rhs_bbs,
    }
    res = {key: np.abs(d).max(axis=1).tolist() for key, d in diffs.items()}
    out = {f"s={s}": {key: v[s - 1] for key, v in res.items()} for s in range(1, l + 1)}
    out["max"] = residual_max(x for v in res.values() for x in v)
    return out


# ---------------------------------------------------------------------------
# block-pattern evidence for the homogeneous components


def _degree_samples(l: int, n: int):
    """A few monomial words spanning directions of the degree-nl component.

    The first sample carries the genuine shift part (coefficients tend to 1);
    the others are compact directions.
    """
    a_word, b_word, _ = wp_words(1, l)
    if n == 0:
        return [(), a_word, b_word]
    if n > 0:
        shift = ("alphastar",) * (l * n)
        return [shift, shift + a_word, ("beta",) * n]
    nu = -n
    shift = ("alpha",) * (l * nu)
    return [shift, shift + a_word, ("betastar",) * nu]


def block_structure_evidence(l: int, n: int, j: int, N: int, ctx: QContext) -> dict:
    """Numerically verify the block pattern of alpha*^j times the degree-nl
    component: the copy s maps to t = (s - j - 1) mod l + 1 of X_{m0 + r} with
    shift power r = ktheory_class(l, n + j // l, j % l).ranks[t - 1] (n+1 for
    s <= j and n for s > j), with compact corrections that decay
    geometrically; everything off that pattern should vanish.

    Each sample word is walked once over every copy s and index p, and each
    copy's block is scattered from the walk's arrays.  The compact-tail
    criterion is conservative: beyond row/column N/2 the residual against the
    asymptotic shift must fall below q^{N/4}.
    """
    if not (1 <= j <= l):
        raise ValueError(f"need 1 <= j <= l, got j = {j}")
    if N < 8:
        raise ValueError(f"need N >= 8, got {N}")
    q = ctx.q
    m0 = 0
    ranks = ktheory_class(l, n + j // l, j % l).ranks
    report = {"l": l, "n": n, "j": j, "N": N, "samples": [], "pass": True}
    # copy s goes to copy t_of[s - 1] with shift power pow_of[s - 1]
    t_of = [(s_in - j - 1) % l + 1 for s_in in range(1, l + 1)]
    pow_of = [ranks[s_t - 1] for s_t in t_of]
    # row s - 1 of each array holds copy s: e_{m0+p} ⊗ e^s_p at column p, and
    # the pattern's z' - p' and n' mod l for it
    copy, p = np.indices((l, N))
    z_in, n_in = m0 + p, l * p + copy
    z_to, mod_to = m0 + np.array(pow_of)[:, None], np.array(t_of)[:, None] - 1
    words = [("alphastar",) * j + sample for sample in _degree_samples(l, n)]
    # every walk reads the table of the one with the most alpha letters from n = lN - 1
    reach = l * N - 1 + max(word.count("alpha") for word in words)
    for word in words:
        entry = {"word": "*".join(word) if word else "1", "blocks": {}, "off_pattern": 0.0}
        coeff, z_out, n_out = _ambient_word(word, z_in, n_in, ctx, reach)
        p_out, mod_out = np.divmod(n_out, l)
        kept = ~(np.abs(coeff) <= 1e-16)
        on = (z_out - p_out == z_to) & (mod_out == mod_to)
        put = kept & on & (p_out < N)
        blocks = np.zeros((l, N, N))
        blocks[copy[put], p_out[put], p[put]] = coeff[put]
        for s_in, (block, s_t, pow_t) in enumerate(zip(blocks, t_of, pow_of), 1):
            info = _shift_plus_compact(block, pow_t, q, N)
            info["s_in"], info["s_out"] = s_in, s_t
            entry["blocks"][f"{s_in}->{s_t}"] = info
        entry["off_pattern"] = float(residual_max(np.abs(coeff[kept & ~on]).tolist()))
        ok = entry["off_pattern"] < 10 * ctx.tol
        entry["pass"] = bool(ok and all(info["pass"] for info in entry["blocks"].values()))
        report["samples"].append(entry)
        report["pass"] = bool(report["pass"] and entry["pass"])
    return report


def _shift_plus_compact(block: np.ndarray, power: int, q: float, N: int) -> dict:
    """Fit block ~ c * Shift^power + compact and test the geometric tail."""
    rows = np.arange(max(0, -power), min(N, N - power))
    cols = rows + power
    c = block[rows[-1], cols[-1]] if len(rows) else 0.0
    resid = block.copy()
    resid[rows, cols] -= c
    half = N // 2
    resid[:half, :half] = 0.0
    tail_max = np.abs(resid).max()
    threshold = q ** (N / 4.0)
    return {
        "shift_power": power,
        "coefficient": float(c),
        "tail_max": float(tail_max),
        "tail_threshold": float(threshold),
        "pass": bool(tail_max < threshold),
    }
