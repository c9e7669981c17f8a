"""q-deformed Clebsch-Gordan matrices from the q-Racah single sum, with a cache.

The tensor product of two ladder-form irreducibles decomposes with
multiplicity one,

    M_lam1 ⊗ M_lam2 = ⊕_mu M_mu,   mu = |lam1-lam2|, ..., lam1+lam2,

and the change of basis is encoded as a real orthogonal matrix C whose row
(mu, m) holds the coordinates of the new ladder basis vector in the tensor
basis (m1, m2), so that

    C (rho_lam1 ⊗ rho_lam2)(Delta(g)) C^t = blockdiag(rho_mu(g)).

Every entry comes from the closed single sum (Kirillov-Reshetikhin 1989;
Klimyk-Schmüdgen 1997, ch. 3); with a = lam1, b = lam2, c = mu,
alpha = m1, beta = m2, gamma = m,

    C = q^{(a+b-c)(a+b+c+1)/2 + a beta - b alpha} Delta(abc) sqrt([2c+1])
        sqrt([a+alpha]! [a-alpha]! [b+beta]! [b-beta]! [c+gamma]! [c-gamma]!)
        sum_z (-1)^z q^{-z(a+b+c+1)} / ([z]! [a+b-c-z]! [a-alpha-z]! [b+beta-z]!
                                       [c-b+alpha+z]! [c-a-beta+z]!)

with Delta(abc) = sqrt([a+b-c]! [a-b+c]! [-a+b+c]! / [a+b+c+1]!).  This is
the convention in which the highest-weight row's coefficient on the
maximal-m1 column is positive; it reproduces the closed forms used for the
spinor decomposition (see :func:`cg_coeff_updown`).  Each block is checked
for orthogonality and intertwining when it is built, and a block that fails
raises instead of being cached.

Blocks are built in batches.  :func:`cg_blocks` reads every block a product
needs, (lam1, lam2) over its two sets of highest weights, and builds the ones
the cache lacks together: the entries of a batch's blocks stand side by side
in one vectorised pass of the single sum and one pass of the check, and a
block of one is a batch of one.  A batch holds the largest block left and
then the smallest ones whose terms total at most its own, so its memory is
bounded by what its largest block needs.  Each entry's terms are summed in
the same order whatever the batch, so a block is the same to the bit.
"""

from __future__ import annotations

import math
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .exact import HalfInt, QContext, hi, nonneg_hi
from .qcore import q_int, q_roots

__all__ = ["CGBlock", "cg_block", "cg_blocks", "cg_coeff_updown_doubled", "clear_cache"]

_cache: dict = {}
_cache_lock = threading.Lock()

# build-time bound on a block's orthogonality and intertwining errors; fixed,
# because the cache key (2 lam1, 2 lam2, q) carries no tolerance
_BLOCK_GATE = 1e-12
_PAST_LAST = np.zeros(1)  # the 0 the build check reads past a batch's last cell


@dataclass(frozen=True)
class CGBlock:
    """Clebsch-Gordan coefficients of M_lam1 ⊗ M_lam2, by weight.

    ``coupling[lam1 + m1][lam2 + m2][k]`` holds C_q(lam1 lam2 mu_k; m1 m2 m1+m2)
    for the k-th mu_k = |lam1-lam2| + k, 0.0 where |m1 + m2| > mu_k, as
    nested lists of floats.  ``matrix`` lays them out afresh on each read as
    C, rows indexed by (mu, m) pairs (mu ascending, m ascending within a
    block) and columns by tensor pairs (m1, m2) in lexicographic order: row
    (mu, m) sits at mu + m plus the sum of 2mu'+1 over |lam1-lam2| <= mu' < mu
    and is supported on the columns with m1 + m2 = m, column (m1, m2) at
    (lam1 + m1)(2lam2 + 1) + lam2 + m2.
    """

    lam1: HalfInt
    lam2: HalfInt
    coupling: list = field(repr=False)

    @property
    def matrix(self) -> np.ndarray:
        coupling = np.array(self.coupling)
        a1, b1, _ = coupling.shape
        i, j, k = np.nonzero(coupling)  # the entries that weight forbids are 0.0
        matrix = np.zeros((a1 * b1, a1 * b1))
        # row (mu_k, m) follows the k(2|lam1-lam2| + k) rows of the smaller mu, at
        # mu_k + m = k + i + j - min(2lam1, 2lam2)
        matrix[k * (abs(a1 - b1) + k + 1) + i + j + 1 - min(a1, b1), i * b1 + j] = coupling[i, j, k]
        return matrix


def clear_cache():
    with _cache_lock:
        _cache.clear()


def cg_block(lam1, lam2, ctx: QContext) -> CGBlock:
    """Clebsch-Gordan block for (lam1, lam2); memoized on (2lam1, 2lam2, q).

    The lock guards the dict only, so builds may nest; of two racing builds,
    the first stored wins.
    """
    lam1, lam2 = hi(lam1), hi(lam2)
    key = (lam1.twice, lam2.twice, ctx.q)
    with _cache_lock:
        block = _cache.get(key)
    if block is None:
        block = _build_block(lam1, lam2, ctx)
        with _cache_lock:
            block = _cache.setdefault(key, block)
    return block


def cg_blocks(twice1, twice2, ctx: QContext) -> dict:
    """The ``coupling`` lists of every block (lam1, lam2) with 2lam1 in
    ``twice1`` and 2lam2 in ``twice2``, keyed by (2lam1, 2lam2).

    Each block is read from the cache of :func:`cg_block`; the missing ones
    are built in the batches of :func:`_batches`, and each is checked before
    it is cached.
    """
    q, twice2 = ctx.q, tuple(twice2)
    couplings, missing = {}, []
    with _cache_lock:
        for t1 in twice1:
            for t2 in twice2:
                block = _cache.get((t1, t2, q))
                if block is None:
                    missing.append((t1, t2))
                else:
                    couplings[t1, t2] = block.coupling
    if missing:
        for batch in _batches(dict.fromkeys(missing)):
            built = _build_batch(batch, ctx)
            with _cache_lock:
                for pair, block in zip(batch, built):
                    couplings[pair] = _cache.setdefault((*pair, q), block).coupling
    return couplings


def _build_block(lam1: HalfInt, lam2: HalfInt, ctx: QContext) -> CGBlock:
    return _build_batch([(hi(lam1).twice, hi(lam2).twice)], ctx)[0]


def _build_batch(pairs: list, ctx: QContext) -> list[CGBlock]:
    """The blocks (a2/2, b2/2) of ``pairs`` from one pass of the single sum,
    each checked; raises, and returns none of them, if any fails its check."""
    # a miss for any negative key
    lams = [(nonneg_hi(HalfInt(a2), "lam1"), nonneg_hi(HalfInt(b2), "lam2")) for a2, b2 in pairs]
    cells = _cells(pairs)
    couplings = _racah_blocks(cells, ctx.q)
    _check_blocks(couplings, cells, ctx)  # tolist() is exact: these are the stored numbers
    return [CGBlock(lam1, lam2, coupling.tolist()) for (lam1, lam2), coupling in zip(lams, couplings)]


def _term_count(a2: int, b2: int) -> int:
    """The number of terms of the single sum over every entry of the block
    (a2/2, b2/2): with n = min(a2, b2) + 1 and M = max(a2, b2) it is
    n(n+1)(n+2)(2M - n + 3)/12."""
    n, top = min(a2, b2) + 1, max(a2, b2)
    return n * (n + 1) * (n + 2) * (2 * top - n + 3) // 12


def _batches(pairs):
    """Split ``pairs`` into batches: the largest block left, then the smallest
    ones left while their terms total at most its own.

    A batch so holds at most twice the terms of its largest block, a bound
    taken from the blocks themselves, and a build's memory is bounded by what
    its largest block needs.
    """
    by_count = sorted((_term_count(*pair), pair) for pair in pairs)
    lo, hi_ = 0, len(by_count)
    while lo < hi_:
        hi_ -= 1
        room, largest = by_count[hi_]
        batch = [largest]
        while lo < hi_ and by_count[lo][0] <= room:
            room -= by_count[lo][0]
            batch.append(by_count[lo][1])
            lo += 1
        yield batch


_Cells = namedtuple("_Cells", "pairs sizes first a2 b2 n_mu i j t w c2 allowed")


def _cells(pairs: list) -> _Cells:
    """Every cell (i, j, k) of the coupling arrays of ``pairs``, block after
    block, each in C order.  Beside the pairs, each block's number of cells
    and first cell, it holds per cell the doubled a2, b2 of its block
    (a = a2/2, b = b2/2), its number n_mu of c, i = a + alpha, j = b + beta,
    and, for the k-th c = |a - b| + k, t = a + b - c, w = c + alpha + beta and
    c2 = 2c; weight allows the cell where 0 <= w <= c2."""
    sizes = [(a2 + 1) * (b2 + 1) * (min(a2, b2) + 1) for a2, b2 in pairs]
    first = [0, *accumulate(sizes)]
    a2, b2, n_mu, base = np.repeat(
        np.array([(a, b, min(a, b) + 1, f) for (a, b), f in zip(pairs, first)]).T, sizes, axis=1)
    ij, k = np.divmod(np.arange(first[-1]) - base, n_mu)
    i, j = np.divmod(ij, b2 + 1)
    t = n_mu - 1 - k
    w = i + j - t
    c2 = a2 + b2 - 2 * t
    return _Cells(pairs, sizes, np.array(first[:-1]), a2, b2, n_mu, i, j, t, w, c2,
                  (w >= 0) & (w <= c2))


def _racah_blocks(cells: _Cells, q: float) -> list[np.ndarray]:
    """The single sum for every entry of each block of ``cells``, as one
    vectorised pass, in the layout of ``CGBlock.coupling``.

    With [n]! = q^{-n(n-1)/2} G_n, G_n = prod_{k<=n} (1 - q^{2k})/(1 - q^2),
    the powers of q of each term fold into one integer exponent, and only G_n
    (which stays moderate) is multiplied out.  The entries of all blocks stand
    side by side and read one G table; each entry's terms are summed in
    ascending z, so a block's numbers do not depend on its batch.
    """
    slots = np.flatnonzero(cells.allowed)
    a2, b2, i, j, t, w, c2 = (x[slots] for x in (cells.a2, cells.b2, cells.i, cells.j, cells.t,
                                                  cells.w, cells.c2))
    # the q-factorial arguments a+b-c = t, a-b+c = a2 - t, -a+b+c = b2 - t,
    # a+b+c+1 = s, a+alpha = i, a-alpha = u, b+beta = j, b-beta = v,
    # c+gamma = w, c-gamma = c2 - w, and the shifts p, r of the terms' p + z, r + z
    u, v = a2 - i, b2 - j
    s = a2 + b2 + 1 - t
    p, r = i - t, v - t
    z_lo = np.maximum(0, t - np.minimum(i, v))
    z_hi = np.minimum(t, np.minimum(u, j))

    # 1 - q^{2n} at index n - 1, and G_n at index n
    one_minus = 1.0 - q ** np.arange(2, 2 * max(map(sum, cells.pairs)) + 6, 2)
    g = np.empty(one_minus.size + 1)
    g[0] = 1.0
    np.cumprod(one_minus / (1.0 - q * q), out=g[1:])
    scale = np.sqrt(
        g[t] * g[a2 - t] * g[b2 - t] / g[s] * one_minus[c2] / (1.0 - q * q)
        * (g[i] * g[u] * g[j] * g[v] * g[w] * g[c2 - w])
    )

    # one (entry, z) pair per term of the alternating sum; the range is never empty
    count = z_hi - z_lo + 1
    entry = np.repeat(np.arange(slots.size), count)
    z = np.arange(entry.size) - np.repeat(np.cumsum(count) - count - z_lo, count)
    # the exponent of q of a term: u j + t (u + j + 1) + 3z^2 - (2(u + j + t) + 1) z
    h = u + j
    power = (u * j + t * (h + 1))[entry] + z * (3 * z - (2 * (h + t) + 1)[entry])
    terms = np.where(z & 1, -1.0, 1.0) * q ** power / (
        g[z] * g[t[entry] - z] * g[u[entry] - z] * g[j[entry] - z] * g[p[entry] + z]
        * g[r[entry] + z])

    flat = np.zeros(cells.a2.size)
    flat[slots] = scale * np.bincount(entry, weights=terms, minlength=slots.size)
    return [flat[start : start + size].reshape(a + 1, b + 1, -1)
            for (a, b), start, size in zip(cells.pairs, cells.first.tolist(), cells.sizes)]


def _check_blocks(couplings: list, cells: _Cells, ctx: QContext) -> list[tuple[float, float]]:
    """Raise unless every block of ``cells``, in its coupling layout
    c[i, j, k] = C(mu_k; m1 m2) with i = lam1 + m1, j = lam2 + m2, is
    orthogonal and intertwines Delta(e) to _BLOCK_GATE; return each block's
    (orthogonality error, intertwining error).

    All blocks are checked in one pass over their cells.  C is block diagonal
    by weight, so both checks run one weight m = m1 + m2 at a time, with no
    dense C and no Kronecker product.  Orthogonality is C C^t = 1 on the rows
    (mu, m) of each weight, and every entry that weight forbids (|m| > mu)
    must be 0.  Intertwining is C Delta(e) = blockdiag(rho_mu(e)) C with
    Delta(e) = e ⊗ k + k^-1 ⊗ e, entrywise

        e1(m1) q^m2 c[i+1, j, k] + q^-m1 e2(m2) c[i, j+1, k] = e_mu_k(m1 + m2) c[i, j, k]

    for e u_m = e(m) u_{m+1} = sqrt([lam-m]) sqrt([lam+m+1]) u_{m+1}, the e band of
    :func:`~qwps.qcore.word_shift`, here read for every block of the batch from
    one :func:`~qwps.qcore.q_roots` list; its error is scaled by max(1, |rho_mu(e)|).
    """
    pairs, sizes, first, a2, b2, n_mu, i, j, t, w, c2, allowed = cells
    k = n_mu - 1 - t
    c = np.concatenate([*couplings, _PAST_LAST], axis=None)
    try:
        # with a 0 at top + 1, read only beside sqrt([0]) at the top of a band
        roots = np.array([*q_roots(max(map(sum, pairs)), ctx), 0.0])
    except ValueError:  # name the smallest top q-integer of a block that overflows
        for top in sorted({a + b for a, b in pairs}):
            q_roots(top, ctx)
        raise
    # e(m) = sqrt([lam - m]) sqrt([lam + m + 1]); lam - m is c2 - w for mu, a2 - i
    # for lam1 and b2 - j for lam2
    e_mu = np.where(allowed, roots[c2 - w] * roots[w + 1], 0.0)
    e1, e2 = roots[a2 - i] * roots[i + 1], roots[b2 - j] * roots[j + 1]

    # the cells (i+1, j, k) and (i, j+1, k), or the 0 past the last cell where
    # e1 or e2 is 0
    cell = np.arange(a2.size)
    next_i = np.where(i < a2, cell + (b2 + 1) * n_mu, a2.size)
    next_j = np.where(j < b2, cell + n_mu, a2.size)
    q = ctx.q
    residual = e1 * q ** (j - b2 / 2) * c[next_i] + q ** (a2 / 2 - i) * e2 * c[next_j] - e_mu * c[:-1]
    inter_err = np.maximum.reduceat(np.abs(residual), first) / np.maximum(
        1.0, np.maximum.reduceat(e_mu, first))

    # by weight: the matrix of each block's weight-m rows, padded to n x n with
    # n the batch's largest number of mu, over the shorter of the i and j axes
    rows = [a + b + 1 for a, b in pairs]
    row_first = [0, *accumulate(rows)]
    row = np.repeat(row_first[:-1], sizes) + i + j
    n = max(map(min, pairs)) + 1
    by_weight = np.zeros((row_first[-1], n, n))
    by_weight[row, np.where(b2 <= a2, j, i), k] = c[:-1]
    gram = by_weight.transpose(0, 2, 1) @ by_weight
    target = np.zeros((row_first[-1], n))
    target[row, k] = allowed
    gram.reshape(row_first[-1], n * n)[:, :: n + 1] -= target
    orth_err = np.maximum(
        np.maximum.reduceat(np.abs(gram).max(axis=(1, 2)), row_first[:-1]),
        np.maximum.reduceat(np.where(allowed, 0.0, np.abs(c[:-1])), first),
    )
    errors = list(zip(orth_err.tolist(), inter_err.tolist()))
    for (t1, t2), (orth, inter) in zip(pairs, errors):
        if not (orth <= _BLOCK_GATE and inter <= _BLOCK_GATE):
            raise ValueError(
                f"Clebsch-Gordan block ({HalfInt(t1)}, {HalfInt(t2)}) at q = {ctx.q} fails its "
                f"build check: orthogonality error {orth:.3g}, intertwining error {inter:.3g} "
                f"(bound {_BLOCK_GATE:g})"
            )
    return errors


def cg_coeff_updown(j, mu, ctx: QContext) -> tuple[float, float]:
    """:func:`cg_coeff_updown_doubled` at (2j, 2mu)."""
    return cg_coeff_updown_doubled(hi(j).twice, hi(mu).twice, ctx)


def cg_coeff_updown_doubled(tj: int, tmu: int, ctx: QContext) -> tuple[float, float]:
    """Closed-form spinor coupling coefficients (C_{j mu}, S_{j mu}) at
    j = tj/2, mu = tmu/2, from the doubled integers:

    C = q^{-(j+mu)/2} sqrt([j-mu]/[2j]),  S = q^{(j-mu)/2} sqrt([j+mu]/[2j]);
    they satisfy C^2 + S^2 = 1.
    """
    if tj < 1:
        raise ValueError(f"need j >= 1/2, got {HalfInt(tj)}")
    if abs(tmu) > tj or (tj - tmu) % 2:
        raise ValueError(f"mu = {HalfInt(tmu)} out of range for j = {HalfInt(tj)}")
    denom = q_int(tj, ctx)
    c = ctx.q ** (-(tj + tmu) / 4.0) * math.sqrt(q_int((tj - tmu) // 2, ctx) / denom)
    s = ctx.q ** ((tj - tmu) / 4.0) * math.sqrt(q_int((tj + tmu) // 2, ctx) / denom)
    return c, s
