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
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .exact import HalfInt, QContext, hi, nonneg_hi, residual_max
from .qcore import q_int, raising_bands

__all__ = ["CGBlock", "couple", "cg_block", "cg_coeff_updown", "clear_cache"]

_cache: dict = {}
_cache_lock = threading.Lock()

# build-time bound on a block's orthogonality and intertwining errors; fixed,
# because the cache key (2 lam1, 2 lam2, q) carries no tolerance
_BLOCK_GATE = 1e-12


def couple(lam1, lam2) -> list[HalfInt]:
    """Highest weights |lam1-lam2|, ..., lam1+lam2 of the tensor product."""
    lam1, lam2 = nonneg_hi(lam1, "lam1"), nonneg_hi(lam2, "lam2")
    lo = abs(lam1.twice - lam2.twice)
    hi_ = lam1.twice + lam2.twice
    return [HalfInt(t) for t in range(lo, hi_ + 1, 2)]


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


def _build_block(lam1: HalfInt, lam2: HalfInt, ctx: QContext) -> CGBlock:
    lam1, lam2 = nonneg_hi(lam1, "lam1"), nonneg_hi(lam2, "lam2")  # a miss for any negative key
    coupling = _racah_block(lam1.twice, lam2.twice, ctx.q)
    _check_block(coupling, lam1, lam2, ctx)  # tolist() is exact: these are the stored numbers
    return CGBlock(lam1, lam2, coupling.tolist())


def _racah_block(a2: int, b2: int, q: float) -> np.ndarray:
    """The single sum for every entry of the (a, b) = (a2/2, b2/2) block, in
    the layout of ``CGBlock.coupling``.

    With [n]! = q^{-n(n-1)/2} G_n, G_n = prod_{k<=n} (1 - q^{2k})/(1 - q^2),
    the powers of q of each term fold into one exponent, kept as the integer
    e4 = 4 * exponent, and only G_n (which stays moderate) is multiplied out.
    """
    cs = np.arange(abs(a2 - b2), a2 + b2 + 1, 2)
    al2 = np.arange(-a2, a2 + 1, 2)
    be2 = np.arange(-b2, b2 + 1, 2)
    # the entries that weight allows: (i1, i2, k) with |m1 + m2| <= mu_k
    slots = np.nonzero(np.abs(al2[:, None, None] + be2[None, :, None]) <= cs)
    c2, al2, be2 = cs[slots[2]], al2[slots[0]], be2[slots[1]]

    # integer arguments of the q-factorials
    s = (a2 + b2 + c2) // 2 + 1  # a + b + c + 1
    tri = ((a2 + b2 - c2) // 2, (a2 - b2 + c2) // 2, (b2 - a2 + c2) // 2)  # Delta(abc)
    top = (
        (a2 + al2) // 2, (a2 - al2) // 2, (b2 + be2) // 2, (b2 - be2) // 2,
        (c2 + al2 + be2) // 2, (c2 - al2 - be2) // 2,
    )
    z_shift = (c2 - b2 + al2) // 2, (c2 - a2 - be2) // 2
    z_lo = np.maximum(0, -np.minimum(*z_shift))
    z_hi = np.minimum(tri[0], np.minimum(top[1], top[2]))

    k = np.arange(1, a2 + b2 + 3)
    g = np.concatenate([[1.0], np.cumprod((1.0 - q ** (2 * k)) / (1.0 - q * q))])
    # four times the q-exponent: of the leading power, Delta(abc), sqrt([2c+1])
    # and the square-rooted factorials; sqrt([n]!) contributes -pair(n)
    e4 = (
        2 * tri[0] * s + (a2 * be2 - b2 * al2)
        - sum(_pair(n) for n in tri) + _pair(s) - 2 * c2 - sum(_pair(n) for n in top)
    )
    scale = np.sqrt(
        g[tri[0]] * g[tri[1]] * g[tri[2]] / g[s]
        * (1.0 - q ** (2 * (c2 + 1))) / (1.0 - q * q)
        * np.prod([g[n] for n in top], axis=0)
    )

    # one (entry, z) pair per term of the alternating sum; the range is never empty
    count = z_hi - z_lo + 1
    entry = np.repeat(np.arange(c2.size), count)
    z = z_lo[entry] + np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    bottom = (
        z, tri[0][entry] - z, top[1][entry] - z, top[2][entry] - z,
        z_shift[0][entry] + z, z_shift[1][entry] + z,
    )
    term_e4 = e4[entry] - 4 * z * s[entry] + 2 * sum(_pair(n) for n in bottom)
    sign = np.where(z % 2, -1.0, 1.0)
    terms = sign * q ** (term_e4 / 4.0) / np.prod([g[n] for n in bottom], axis=0)

    coupling = np.zeros((a2 + 1, b2 + 1, min(a2, b2) + 1))
    coupling[slots] = scale * np.bincount(entry, weights=terms, minlength=c2.size)
    return coupling


def _pair(n):
    return n * (n - 1)


def _check_block(coupling: np.ndarray, lam1: HalfInt, lam2: HalfInt, ctx: QContext):
    """Raise unless the block, in its coupling layout c[i, j, k] = C(mu_k; m1 m2)
    with i = lam1 + m1, j = lam2 + m2, is orthogonal and intertwines Delta(e) to
    _BLOCK_GATE; return (orthogonality error, intertwining error).

    C is block diagonal by weight, so both run one weight m = m1 + m2 at a time,
    with no dense C and no Kronecker product.  Orthogonality is C C^t = 1 on the
    rows (mu, m) of each weight, and every entry that weight forbids (|m| > mu)
    must be 0.  Intertwining is C Delta(e) = blockdiag(rho_mu(e)) C with
    Delta(e) = e ⊗ k + k^-1 ⊗ e, entrywise

        e1(m1) q^m2 c[i+1, j, k] + q^-m1 e2(m2) c[i, j+1, k] = e_mu_k(m1 + m2) c[i, j, k]

    for e u_m = e(m) u_{m+1}, the bands e(m) of lam1, lam2 and every mu read
    from one :func:`~qwps.qcore.raising_bands` call; its error is scaled by
    max(1, |rho_mu(e)|).
    """
    a1, b1, n_mu = coupling.shape
    n_w = a1 + b1 - 1  # the weights m1 + m2, by index s = i + j
    weight = np.add.outer(np.arange(a1), np.arange(b1))
    mus = couple(lam1, lam2)
    e1, e2, *bands = raising_bands([lam1, lam2, *mus], ctx)
    # by weight index and mu: e_mu(m), 0 from m = mu up, and whether |m| <= mu
    e_mu = np.zeros((n_w, n_mu))
    allowed = np.zeros((n_w, n_mu), dtype=bool)
    for k, (mu, band) in enumerate(zip(mus, bands)):
        lo = (n_w - 1 - mu.twice) // 2  # the index of weight -mu
        e_mu[lo : lo + mu.twice, k] = band
        allowed[lo : lo + mu.twice + 1, k] = True

    # by_weight[s, j] = c[s - j, j], 0 where s - j is out of range
    by_weight = np.zeros((n_w, b1, n_mu))
    by_weight[weight, np.arange(b1)] = coupling
    gram = by_weight.transpose(0, 2, 1) @ by_weight
    gram[:, np.arange(n_mu), np.arange(n_mu)] -= allowed
    forbidden = coupling[~allowed[weight]]
    orth_err = residual_max([np.abs(gram).max(), np.abs(forbidden).max(initial=0.0)])

    kinv1 = [ctx.q ** (-t / 2) for t in range(-lam1.twice, lam1.twice + 1, 2)]
    k2 = [ctx.q ** (t / 2) for t in range(-lam2.twice, lam2.twice + 1, 2)]
    residual = -e_mu[weight] * coupling
    residual[:-1] += np.multiply.outer(e1, k2)[..., None] * coupling[1:]
    residual[:, :-1] += np.multiply.outer(kinv1, e2)[..., None] * coupling[:, 1:]
    inter_err = np.abs(residual).max() / max(1.0, e_mu.max())
    if not (orth_err <= _BLOCK_GATE and inter_err <= _BLOCK_GATE):
        raise ValueError(
            f"Clebsch-Gordan block ({lam1}, {lam2}) at q = {ctx.q} fails its build check: "
            f"orthogonality error {orth_err:.3g}, intertwining error {inter_err:.3g} "
            f"(bound {_BLOCK_GATE:g})"
        )
    return orth_err, inter_err


def cg_coeff_updown(j, mu, ctx: QContext) -> tuple[float, float]:
    """Closed-form spinor coupling coefficients (C_{j mu}, S_{j mu}).

    C = q^{-(j+mu)/2} sqrt([j-mu]/[2j]),  S = q^{(j-mu)/2} sqrt([j+mu]/[2j]);
    they satisfy C^2 + S^2 = 1.
    """
    j, mu = hi(j), hi(mu)
    if j.twice < 1:
        raise ValueError(f"need j >= 1/2, got {j}")
    if abs(mu.twice) > j.twice or (j.twice - mu.twice) % 2:
        raise ValueError(f"mu = {mu} out of range for j = {j}")
    q = ctx.q
    denom = q_int(2 * j, ctx)
    c = q ** (-(j + mu).float / 2.0) * math.sqrt(q_int(j - mu, ctx) / denom)
    s = q ** ((j - mu).float / 2.0) * math.sqrt(q_int(j + mu, ctx) / denom)
    return c, s
