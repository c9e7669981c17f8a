"""Spectral triples on the quantum weighted projective algebras.

Two constructions are assembled and verified on finite truncations:

* the odd triple on the coinvariant spinors of quantum SU(2), listed as
  ambient spinor labels by :func:`coinvariant_spinor_basis`, whose shifted
  Dirac operator has eigenvalues ±2(j+1) with multiplicity dim V^down_{j+1};
* the even triple on two copies of the degree-zero component, with the
  self-adjoint swap operator of eigenvalues ±(lam+1), the chirality grading
  and the (degenerate) Fredholm swap.

Their spectra and summability sums are counted in :mod:`qwps.exact`; the
module also carries the ambient quantum SU(2) ingredients these are cut
from: the orthonormal spinor basis (the C_{j mu}, S_{j mu} legs of
:func:`spinor_legs`), the q^{-D} identity through the right regular action,
verified rather than assumed on one block per shell, and one unpruned
construction of left multiplication on the orthonormal GNS basis.  Its
private core gives the image of each column at each mu-shift as
column-aligned arrays; :func:`gns_multiplication` compacts them into the
triplets of the even triple's pi(a), pi(b), and :func:`commutator_norm`
reads the two shifts of alpha or beta as the bands of its Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import coord
from .cg import cg_block, cg_coeff_updown
from .coaction import coinvariant_coord_basis, wp_gens
from .coord import AlgebraElement, BasisIndex
from .exact import HalfInt, QContext, WeightPair, _p_window, hi, residual_max
from .exact import summability_partial_sum  # noqa: F401  (bench/ reads it here)
from .operators import gram_norm
from .qcore import irrep_word, q_int, weight_range

__all__ = [
    "SpinorBasisIndex",
    "spinor_basis",
    "coinvariant_spinor_basis",
    "spinor_legs",
    "q_dirac_check",
    "commutator_norm",
    "even_triple_operators",
    "chirality_checks",
    "fredholm_degeneracy",
]

Q_DIRAC_GUARD = hi(3)
# b is one matrix element, but pi(b) reads the dense CG blocks ((k+l)/2, lam) of side
# (k+l+1)(2 lam + 1), and building b the (lam, 1/2) blocks and irreps up to (k+l)/2: at
# (1, 127), lam_max 5 these kept 38, 23 and 25 MB.  verify --suite chirality at (1, 64) took
# 0.48 s and 84 MB, (1, 127) 1.7 s and 248 MB and (1, 150) 2.3 s and 344 MB on 2 cores
EVEN_TRIPLE_GUARD = 128


@dataclass(frozen=True)
class SpinorBasisIndex:
    """Label |j m mu arrow> of the orthonormal spinor basis.

    Up vectors live at lam = j + 1/2 (|m| <= j+1/2), down vectors at
    lam = j - 1/2 (j >= 1/2, |m| <= j-1/2); |mu| <= j for both.
    """

    j: HalfInt
    m: HalfInt
    mu: HalfInt
    arrow: str

    def __post_init__(self):
        j, m, mu = self.j, self.m, self.mu
        if self.arrow not in ("up", "down"):
            raise ValueError(f"arrow must be 'up' or 'down', got {self.arrow!r}")
        if j.twice < 0:
            raise ValueError(f"j must be >= 0, got {j}")
        if abs(mu.twice) > j.twice or (j.twice - mu.twice) % 2:
            raise ValueError(f"mu = {mu} out of range for j = {j}")
        lam = self.lam
        if lam.twice < 0:
            raise ValueError(f"down vectors need j >= 1/2, got j = {j}")
        if abs(m.twice) > lam.twice or (lam.twice - m.twice) % 2:
            raise ValueError(f"m = {m} out of range for arrow {self.arrow}, j = {j}")

    @property
    def lam(self) -> HalfInt:
        """Highest weight of the coordinate leg: j + 1/2 for up, j - 1/2 for down."""
        return HalfInt(self.j.twice + (1 if self.arrow == "up" else -1))


def spinor_basis(j_max) -> list[SpinorBasisIndex]:
    """All spinor labels with j <= j_max, ordered (j, arrow, m, mu)."""
    j_max = hi(j_max)
    out = []
    for tj in range(0, j_max.twice + 1):
        j = HalfInt(tj)
        for arrow in ("down", "up"):
            if arrow == "down" and tj == 0:
                continue
            lam = HalfInt(tj + (1 if arrow == "up" else -1))
            for m in weight_range(lam):
                for mu in weight_range(j):
                    out.append(SpinorBasisIndex(j, m, mu, arrow))
    return out


def coinvariant_spinor_basis(wp: WeightPair, j_max) -> list[SpinorBasisIndex]:
    """Coinvariant spinor labels |j, p(l+k) - 1/2, p(l-k), arrow> over
    half-integer p with j <= j_max, ordered (j, arrow, p).

    They are the labels of :func:`spinor_basis` whose legs have degrees
    cancelling the spin-1/2 orders (-k on e_+, l on e_-); the ambient rule
    |m| <= lam is the window 1 - 2lam <= 2p(l+k) <= 1 + 2lam.
    """
    j_max = hi(j_max)
    return [
        SpinorBasisIndex(HalfInt(tj), HalfInt(tp * wp.s - 1), HalfInt(tp * (wp.l - wp.k)), arrow)
        for tj in range(0, j_max.twice + 1)
        for arrow, tl in (("down", tj - 1), ("up", tj + 1))
        for tp in _p_window(wp, 1 - tl, 1 + tl, tj)
    ]


def spinor_legs(idx: SpinorBasisIndex, ctx: QContext) -> list[tuple[str, BasisIndex, float]]:
    """The nonzero legs (sign, index, coefficient) of a spinor basis vector on
    the orthonormal GNS vectors e(lam, m, n) = q^m sqrt([2lam+1]) t^lam_{mn}:

    down: C_{j mu} e(j-1/2, m, mu+1/2) ⊗ e_- + S_{j mu} e(j-1/2, m, mu-1/2) ⊗ e_+
    up:  -S_{j+1,mu} e(j+1/2, m, mu+1/2) ⊗ e_- + C_{j+1,mu} e(j+1/2, m, mu-1/2) ⊗ e_+

    A down leg with n outside its shell (mu = ±j) has coefficient 0 and is dropped.
    """
    down = idx.arrow == "down"
    c, s = cg_coeff_updown(idx.j if down else idx.j + 1, idx.mu, ctx)
    minus, plus = (c, s) if down else (-s, c)
    tl, tm, tmu = idx.lam.twice, idx.m.twice, idx.mu.twice
    return [
        (sign, BasisIndex.doubled(tl, tm, tn), coeff)
        for sign, tn, coeff in (("-", tmu + 1, minus), ("+", tmu - 1, plus))
        if abs(tn) <= tl
    ]


def q_dirac_check(j_max, ctx: QContext) -> float:
    """Assemble q^{-D} as a 2x2 block operator in the right regular action and
    report its worst backward error over the spinor basis with j <= j_max:
    max ||(q^{-D} - ev) v||_inf / (ev_max ||v||_inf), where ev_max =
    q^{-(2 j_max + 3/2)} is the largest expected eigenvalue on the truncation.

    The right action moves only n, so on the legs (:func:`spinor_legs`) of
    the shell lam it is one block in the components (e_+, e_-), the same for
    every m:

        q^{3/2} [ rho(k^2) + q^{-1}(q-q^{-1})^2 rho(fe)   q^{-1/2}(q-q^{-1}) rho(fk^{-1}) ]
                [ q^{-1/2}(q-q^{-1}) rho(k^{-1}e)         rho(k^{-2})                    ]

    applied to the labels with m = lam, whose expected eigenvalues are
    q^{-(2j+3/2)} on up vectors and q^{2j+1/2} on down vectors.  Refuses q
    for which ev_max or the block overflows a double.
    """
    j_max = hi(j_max)
    if j_max.twice > Q_DIRAC_GUARD.twice:
        raise ValueError(f"j_max = {j_max} exceeds the cost guard {Q_DIRAC_GUARD}")
    q = ctx.q
    try:
        ev_max = q ** (-(2 * j_max.float + 1.5))
    except OverflowError:
        raise ValueError(f"q = {q:g}: q^-(2 j_max + 3/2) overflows a double") from None
    lam_q = q - 1.0 / q
    top = [idx for idx in spinor_basis(j_max) if idx.m == idx.lam]

    def shell(lam):
        labels = [idx for idx in top if idx.lam == lam]
        rho = lambda *word: irrep_word(lam, word, ctx)  # noqa: E731
        block = q**1.5 * np.block([
            [rho("k", "k") + (lam_q**2 / q) * rho("f", "e"), (lam_q / q**0.5) * rho("f", "kinv")],
            [(lam_q / q**0.5) * rho("kinv", "e"), rho("kinv", "kinv")]])
        d = lam.twice + 1
        vecs, evs = np.zeros((2 * d, len(labels))), np.zeros(len(labels))
        for col, idx in enumerate(labels):
            for sign, (tl, _, tn), coeff in spinor_legs(idx, ctx):
                vecs[(tn + tl) // 2 + (d if sign == "-" else 0), col] = coeff
            evs[col] = q ** (-(idx.j.twice + 1.5) if idx.arrow == "up" else idx.j.twice + 0.5)
        resid = np.abs(block @ vecs - vecs * evs).max(axis=0)
        return float((resid / (ev_max * np.abs(vecs).max(axis=0))).max())

    # at small q the block's coefficients overflow: (q - 1/q)^2 raises, or inf * 0 reads NaN
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            worst = residual_max([shell(lam) for lam in sorted({idx.lam for idx in top})])
    except OverflowError:
        worst = math.nan
    if not math.isfinite(worst):
        raise ValueError(f"q = {q:g}: the q^-D block overflows a double")
    return worst


# ---------------------------------------------------------------------------
# left multiplication on the GNS space; the auxiliary swap's commutators


def _gns_labels(lam_cap: HalfInt) -> tuple:
    """Doubled (lam, m, n) of every GNS vector with lam <= lam_cap, in that order."""
    size = np.arange(1, lam_cap.twice + 2) ** 2
    tl = np.repeat(np.arange(lam_cap.twice + 1), size)
    i = np.arange(tl.size) - np.repeat(np.cumsum(size) - size, size)
    return tl, 2 * (i // (tl + 1)) - tl, 2 * (i % (tl + 1)) - tl


def _slot(l2, m2, n2):
    # position in the _gns_labels order: shell 2lam starts at sum_{t < 2lam} (t+1)^2
    return l2 * (l2 + 1) * (2 * l2 + 1) // 6 + (m2 + l2) // 2 * (l2 + 1) + (n2 + l2) // 2


def _gns_images(element: AlgebraElement, labels, ctx: QContext):
    """The images of the columns ``labels`` under left multiplication by
    ``element``: one (2 mu, 2 m', 2 n', vals) per term, where mu and vals hold
    a row per mu-shift and a column per label, and vals is 0 where the
    coupling or the weight window forbids the image.  The formula is
    :func:`gns_multiplication`'s."""
    tl, tm, tn = labels
    reach = max((idx[0] for idx in element.terms), default=0)
    top = int(tl.max())
    qdim = np.array([q_int(t + 1, ctx) for t in range(top + reach + 1)])
    shells = np.flatnonzero(np.bincount(tl, minlength=top + 1))
    coeffs = np.array(list(element.terms.values()), dtype=complex)
    if not coeffs.imag.any():  # real elements give real matrices
        coeffs = coeffs.real
    images = []
    for idx, c in zip(element.terms, coeffs):
        l2, a, b = idx
        # C(lam' lam mu; m' w), C(lam' lam mu; n' w) over (w, mu); shell s from start[s]
        blocks = [cg_block(idx.lam, HalfInt(s), ctx).coupling for s in shells.tolist()]
        leg_m, leg_n = (np.fromiter(chain.from_iterable(chain.from_iterable(
            blk[(w + l2) // 2] for blk in blocks)), float) for w in (a, b))
        width = np.minimum(l2, np.arange(top + 1)) + 1  # the number of mu of shell s
        size = (shells + 1) * width[shells]
        start = np.zeros(top + 1, dtype=int)
        start[shells] = np.cumsum(size) - size
        m2, n2 = a + tm, b + tn
        mu = tl + np.arange(-l2, l2 + 1, 2)[:, None]
        # every (mu, label) pair that the coupling allows with legal weights
        shift, col = np.nonzero((mu >= np.abs(l2 - tl)) & (np.abs(m2) <= mu) & (np.abs(n2) <= mu))
        s, t = tl[col], mu[shift, col]
        # mu = lam - lam' + shift is the (shift - max(lam' - lam, 0))-th mu of its shell
        base = start[s] - np.maximum(l2 - s, 0) + shift
        cm = leg_m[base + (tm[col] + s) // 2 * width[s]]
        cn = leg_n[base + (tn[col] + s) // 2 * width[s]]
        vals = np.zeros(mu.shape, dtype=coeffs.dtype)
        vals[shift, col] = c * (ctx.q ** (-a / 2.0) * np.sqrt(qdim[s] / qdim[t])) * (cm * cn)
        images.append((mu, m2, n2, vals))
    return images


def gns_multiplication(element: AlgebraElement, labels, ctx: QContext):
    """Left multiplication by ``element`` on the orthonormal GNS vectors
    e(lam, m, n) = q^m sqrt([2lam+1]) t^lam_{mn} named by ``labels``, three int
    arrays (2 lam, 2 m, 2 n).  A term c t^lam'_{m'n'} sends e(lam, m, n) to

        sum_mu c C(lam' lam mu; m' m) C(lam' lam mu; n' n) q^{-m'}
               sqrt([2lam+1]/[2mu+1]) e(mu, m'+m, n'+n),

    reading the coefficients from ``cg_block(lam', lam)``.  Returns the triplets
    (rows, cols, vals) as positions in ``labels``, by term and mu-shift.
    Nothing is pruned; images outside ``labels`` are dropped.
    """
    tl, tm, tn = labels = tuple(np.asarray(x, dtype=int) for x in labels)
    out = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    if not tl.size:
        return out[0]
    top = int(tl.max())
    position = np.full(_slot(top + 1, -top - 1, -top - 1), -1)
    position[_slot(tl, tm, tn)] = np.arange(tl.size)
    for mu, m2, n2, vals in _gns_images(element, labels, ctx):
        shift, col = np.nonzero((mu <= top) & (vals != 0))
        row = position[_slot(mu[shift, col], m2[col], n2[col])]
        keep = row >= 0
        out.append((row[keep], col[keep], vals[shift[keep], col[keep]]))
    return tuple(np.concatenate(part) for part in zip(*out))


def commutator_norm(gen: str, lam_cap, ctx: QContext) -> float:
    """Norm of [Q, pi(gen)] on two truncated GNS copies, interior block only.

    ``gen`` is "alpha", "beta" or "one".  Q swaps the copies with eigenvalue
    ±(lam+1); pi is left multiplication P by the generator on each copy (see
    :func:`gns_multiplication`).  Then [Q, pi] = [[0, C], [C, 0]] with
    C = DP - PD, D = diag(lam+1), so both have the norm of C, whose entries
    are (lam_row - lam_col) P = ±P/2.  Multiplication moves shell lam to
    lam ± 1/2, so columns are restricted to shells lam <= cap - 1/2, where the
    truncated commutator agrees exactly with the densely defined one.
    """
    lam_cap = hi(lam_cap)
    if lam_cap.twice < 2:
        raise ValueError(f"lambda cap must be >= 1, got {lam_cap}")
    elements = dict(zip(("alpha", "beta"), coord.gens(ctx)), one=coord.unit())
    if gen not in elements:
        raise ValueError(f"gen must be 'alpha', 'beta' or 'one', got {gen!r}")
    if gen == "one":  # pi(1) commutes with Q
        return 0.0
    top = lam_cap.twice
    tl, tm, tn = labels = _gns_labels(HalfInt(top - 1))  # the interior shells
    # the lowering and raising images of each column, scaled by lam_row - lam_col = ∓1/2;
    # the generators' coefficients are real
    [(mu, _, _, vals)] = _gns_images(elements[gen], labels, ctx)
    lo, up = (mu - tl) / 2.0 * vals
    # C*C is block diagonal by the column weight (m, n) and tridiagonal in lam:
    # the row (lam + 1/2, m', n') is shared by the columns (lam, m, n) and
    # (lam + 1, m, n) only, and links them where both images exist
    lower = np.arange(_slot(top - 2, 2 - top, 2 - top))
    upper = _slot(tl[lower] + 2, tm[lower], tn[lower])
    off = lo[upper] * up[lower]
    link = np.flatnonzero(off)
    lower, upper, off = lower[link], upper[link], off[link]
    block = (tm + top) * (2 * top + 1) + tn + top
    pos = (tl - np.maximum(np.abs(tm), np.abs(tn))) // 2
    every = np.arange(tl.size)
    return gram_norm(block, pos, np.concatenate([every, upper, lower]),
                     np.concatenate([every, lower, upper]),
                     np.concatenate([0.0 + lo * lo + up * up, off, off]))


# ---------------------------------------------------------------------------
# even triple: operators, chirality, Fredholm degeneracy


def even_triple_operators(wp: WeightPair, lam_max, ctx: QContext) -> dict:
    """Truncated even-triple data on two copies of the degree-zero component.

    Returns a dict with the doubled basis ((index, arrow) pairs; the component
    is listed by :func:`~qwps.coaction.coinvariant_coord_basis`) and, as square
    ndarrays on that basis, the Dirac swap "D" (eigenvalues ±(lam+1)), the
    chirality "omega", the Fredholm swap "F" and the represented generators
    "pi_a", "pi_b": left multiplication on the orthonormal GNS vectors of the
    component (:func:`gns_multiplication`).  k + l above EVEN_TRIPLE_GUARD is
    refused.
    """
    if wp.s > EVEN_TRIPLE_GUARD:
        raise ValueError(f"k + l = {wp.s} exceeds the cost guard {EVEN_TRIPLE_GUARD}")
    base = coinvariant_coord_basis(wp, lam_max)
    B = len(base)
    labels = np.array(base, dtype=int).T
    Pa, Pb = np.zeros((2, B, B), dtype=complex)
    for mat, element in zip((Pa, Pb), wp_gens(wp, ctx)):
        rows, cols, vals = gns_multiplication(element, labels, ctx)
        np.add.at(mat, (rows, cols), vals)
    eye = np.eye(B)
    zero = np.zeros((B, B))
    dblock = np.diag(labels[0] / 2.0 + 1.0)
    return {
        "basis": tuple((idx, "up") for idx in base) + tuple((idx, "down") for idx in base),
        "D": np.block([[zero, dblock], [dblock, zero]]),
        "omega": np.block([[eye, zero], [zero, -eye]]),
        "F": np.block([[zero, eye], [eye, zero]]),
        "pi_a": np.block([[Pa, zero], [zero, Pa]]),
        "pi_b": np.block([[Pb, zero], [zero, Pb]]),
    }


def chirality_checks(wp: WeightPair, lam_max, ctx: QContext) -> dict:
    """Exact grading identities on the truncated even triple."""
    ops = even_triple_operators(wp, lam_max, ctx)
    omega, D, pi_a, pi_b = (ops[name] for name in ("omega", "D", "pi_a", "pi_b"))
    n = omega.shape[0]
    report = {
        "omega_squared": float(np.abs(omega @ omega - np.eye(n)).max()),
        "omega_selfadjoint": float(np.abs(omega - omega.conj().T).max()),
        "anticommutes_dirac": float(np.abs(omega @ D + D @ omega).max()),
        "commutes_pi_a": float(np.abs(pi_a @ omega - omega @ pi_a).max()),
        "commutes_pi_b": float(np.abs(pi_b @ omega - omega @ pi_b).max()),
    }
    report["max"] = residual_max(report.values())
    return report


def fredholm_degeneracy(wp: WeightPair, lam_max, ctx: QContext) -> dict:
    """Degeneracy evidence: F' squares to one, is self-adjoint and commutes
    with the represented algebra on the truncation."""
    ops = even_triple_operators(wp, lam_max, ctx)
    F, pi_a, pi_b = (ops[name] for name in ("F", "pi_a", "pi_b"))
    n = F.shape[0]
    report = {
        "F_squared": float(np.abs(F @ F - np.eye(n)).max()),
        "F_selfadjoint": float(np.abs(F - F.conj().T).max()),
        "commutes_pi_a": float(np.abs(F @ pi_a - pi_a @ F).max()),
        "commutes_pi_b": float(np.abs(F @ pi_b - pi_b @ F).max()),
    }
    report["max"] = residual_max(report.values())
    return report
