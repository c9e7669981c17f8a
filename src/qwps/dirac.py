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
from: the orthonormal spinor basis built from the coupling coefficients
C_{j mu}, S_{j mu}, the classical Dirac spectrum with its multiplicities,
the block-operator identity expressing q^{-D} through the right regular
action, which is verified rather than assumed, and one unpruned builder of
left multiplication on the orthonormal GNS basis, which gives both the even
triple's pi(a), pi(b) and the commutator evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import coord
from .cg import cg_block, cg_coeff_updown
from .coaction import coinvariant_coord_basis, wp_gens
from .coord import AlgebraElement, BasisIndex, right_act
from .exact import HalfInt, QContext, SpectrumTable, WeightPair, _p_window, hi
from .exact import summability_partial_sum  # noqa: F401  (bench/ reads it here)
from .operators import operator_norm
from .qcore import q_int, weight_range

__all__ = [
    "SpinorBasisIndex",
    "Spinor",
    "spinor_basis",
    "coinvariant_spinor_basis",
    "spinor_vector",
    "ambient_dirac_spectrum",
    "q_dirac_check",
    "commutator_norm",
    "even_triple_operators",
    "chirality_checks",
    "fredholm_degeneracy",
]

Q_DIRAC_GUARD = hi(3)
# even_triple_operators builds b = beta^k alpha^l in full: verify --suite chirality
# at (k, l) = (1, 64) took 0.48 s and 84 MB, (1, 127) 1.7 s and 248 MB and
# (1, 150) 2.3 s and 344 MB on 2 cores; memory grows about as (k + l)^2
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


@dataclass(frozen=True)
class Spinor:
    """Element of coord ⊗ M_{1/2}, split into the e_- and e_+ components."""

    minus: AlgebraElement
    plus: AlgebraElement

    def __add__(self, other):
        return Spinor(self.minus + other.minus, self.plus + other.plus)

    def __sub__(self, other):
        return Spinor(self.minus - other.minus, self.plus - other.plus)

    def __rmul__(self, scalar):
        return Spinor(scalar * self.minus, scalar * self.plus)

    def norm_inf(self) -> float:
        return max(self.minus.norm_inf(), self.plus.norm_inf())


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


def spinor_vector(idx: SpinorBasisIndex, ctx: QContext) -> Spinor:
    """Orthonormal spinor basis vector as an element of coord ⊗ M_{1/2}.

    down: q^m sqrt[2j^-+1] ( C_{j mu} t^{j-}_{m,mu+1/2} ⊗ e_-
                           + S_{j mu} t^{j-}_{m,mu-1/2} ⊗ e_+ )
    up:   q^m sqrt[2j^++1] ( -S_{j+1,mu} t^{j+}_{m,mu+1/2} ⊗ e_-
                           + C_{j+1,mu} t^{j+}_{m,mu-1/2} ⊗ e_+ )

    Legs whose coupling coefficient vanishes at the boundary (mu = ±j for the
    down family) are skipped before the basis index is formed.
    """
    lam = idx.lam
    scale = ctx.q ** idx.m.float * math.sqrt(q_int(2 * lam + 1, ctx))
    half = hi(0.5)
    if idx.arrow == "down":
        c, s = cg_coeff_updown(idx.j, idx.mu, ctx)
        minus_coeff, plus_coeff = c, s
        # C vanishes iff mu = j, S vanishes iff mu = -j (exact boundary cases)
        if idx.mu.twice == idx.j.twice:
            minus_coeff = 0.0
        if idx.mu.twice == -idx.j.twice:
            plus_coeff = 0.0
    else:
        c, s = cg_coeff_updown(idx.j + 1, idx.mu, ctx)
        minus_coeff, plus_coeff = -s, c
    minus = AlgebraElement.zero()
    plus = AlgebraElement.zero()
    if minus_coeff != 0.0:
        minus = AlgebraElement.basis(
            BasisIndex(lam, idx.m, idx.mu + half), scale * minus_coeff
        )
    if plus_coeff != 0.0:
        plus = AlgebraElement.basis(
            BasisIndex(lam, idx.m, idx.mu - half), scale * plus_coeff
        )
    return Spinor(minus, plus)


def ambient_dirac_spectrum(j_max) -> SpectrumTable:
    """Classical Dirac spectrum on quantum SU(2): 2j+3/2 with multiplicity
    (2j+1)(2j+2) and -(2j+1/2) with multiplicity 2j(2j+1), for j <= j_max."""
    j_max = hi(j_max)
    pairs = []
    for tj in range(0, j_max.twice + 1):
        pairs.append((tj + 1.5, (tj + 1) * (tj + 2)))
        pairs.append((-(tj + 0.5), tj * (tj + 1)))
    return SpectrumTable.from_pairs(pairs)


def q_dirac_check(j_max, ctx: QContext) -> float:
    """Assemble q^{-D} as a 2x2 block operator in the right regular action and
    report its worst backward error over the spinor basis with j <= j_max:
    max ||(q^{-D} - ev) v||_inf / (ev_max ||v||_inf), where ev_max =
    q^{-(2 j_max + 3/2)} is the largest expected eigenvalue on the truncation.

    In the ordered spinor components (e_+, e_-) the blocks are

        q^{3/2} [ d(k^2) + q^{-1}(q-q^{-1})^2 d(fe)   q^{-1/2}(q-q^{-1}) d(fk^{-1}) ]
                [ q^{-1/2}(q-q^{-1}) d(k^{-1}e)       d(k^{-2})                    ]

    and the expected eigenvalues are q^{-(2j+3/2)} on up vectors and
    q^{2j+1/2} on down vectors.
    """
    j_max = hi(j_max)
    if j_max.twice > Q_DIRAC_GUARD.twice:
        raise ValueError(f"j_max = {j_max} exceeds the cost guard {Q_DIRAC_GUARD}")
    q = ctx.q
    lam_q = q - 1.0 / q
    pref = q**1.5
    ev_max = q ** (-(2 * j_max.float + 1.5))
    worst = 0.0
    for idx in spinor_basis(j_max):
        v = spinor_vector(idx, ctx)
        out_plus = pref * (
            right_act(("k", "k"), v.plus, ctx)
            + (lam_q**2 / q) * right_act(("f", "e"), v.plus, ctx)
            + (lam_q / q**0.5) * right_act(("f", "kinv"), v.minus, ctx)
        )
        out_minus = pref * (
            (lam_q / q**0.5) * right_act(("kinv", "e"), v.plus, ctx)
            + right_act(("kinv", "kinv"), v.minus, ctx)
        )
        if idx.arrow == "up":
            expected = q ** (-(2 * idx.j.float + 1.5))
        else:
            expected = q ** (2 * idx.j.float + 0.5)
        resid = (Spinor(out_minus, out_plus) - expected * v).norm_inf()
        worst = max(worst, resid / (ev_max * v.norm_inf()))
    return worst


# ---------------------------------------------------------------------------
# left multiplication on the GNS space; the auxiliary swap's commutators


def _gns_labels(lam_cap: HalfInt) -> tuple:
    """Doubled (lam, m, n) of every GNS vector with lam <= lam_cap, in that order."""
    size = np.arange(1, lam_cap.twice + 2) ** 2
    tl = np.repeat(np.arange(lam_cap.twice + 1), size)
    i = np.arange(tl.size) - np.repeat(np.cumsum(size) - size, size)
    return tl, 2 * (i // (tl + 1)) - tl, 2 * (i % (tl + 1)) - tl


def gns_multiplication(element: AlgebraElement, labels, ctx: QContext):
    """Left multiplication by ``element`` on the orthonormal GNS vectors
    e(lam, m, n) = q^m sqrt([2lam+1]) t^lam_{mn} named by ``labels``, three int
    arrays (2 lam, 2 m, 2 n).  A term c t^lam'_{m'n'} sends e(lam, m, n) to

        sum_mu c C(lam' lam mu; m' m) C(lam' lam mu; n' n) q^{-m'}
               sqrt([2lam+1]/[2mu+1]) e(mu, m'+m, n'+n),

    reading the coefficients from ``cg_block(lam', lam)``.  Returns the triplets
    (rows, cols, vals) as positions in ``labels``.  Nothing is pruned; images
    outside ``labels`` are dropped.
    """
    tl, tm, tn = (np.asarray(x, dtype=int) for x in labels)
    out = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    if not tl.size:
        return out[0]
    top = int(tl.max())

    def slot(l2, m2, n2):
        # shells ascending, (m, n) row-major; shell 2lam starts at sum_{t < 2lam} (t+1)^2
        return l2 * (l2 + 1) * (2 * l2 + 1) // 6 + (m2 + l2) // 2 * (l2 + 1) + (n2 + l2) // 2

    position = np.full(slot(top + 1, -top - 1, -top - 1), -1)
    position[slot(tl, tm, tn)] = np.arange(tl.size)
    qdim = np.array([q_int(t + 1, ctx) for t in range(top + 1)])
    shells = np.flatnonzero(np.bincount(tl, minlength=top + 1))
    coeffs = np.array(list(element.terms.values()), dtype=complex)
    if not coeffs.imag.any():  # real elements give real matrices
        coeffs = coeffs.real
    for idx, c in zip(element.terms, coeffs):
        l2, a, b = idx
        # C(lam' lam mu; m' w), C(lam' lam mu; n' w) over (mu, w); shell s from start[s]
        blocks = [cg_block(idx.lam, HalfInt(s), ctx).coupling for s in shells.tolist()]
        start = np.zeros(top + 1, dtype=int)
        start[shells] = np.cumsum([0] + [blk[0].size for blk in blocks[:-1]])
        leg_m = np.concatenate([blk[(a + l2) // 2].ravel() for blk in blocks])
        leg_n = np.concatenate([blk[(b + l2) // 2].ravel() for blk in blocks])
        # every (mu, label) pair that the coupling allows with legal weights
        mu = tl + np.arange(-l2, l2 + 1, 2)[:, None]
        lo = np.abs(l2 - tl)
        ok = (mu >= lo) & (mu <= top) & (np.abs(a + tm) <= mu) & (np.abs(b + tn) <= mu)
        shift, col = np.nonzero(ok)
        s, mu = tl[col], mu[shift, col]
        at = start[s] + (mu - lo[col]) // 2 * (s + 1)
        cm = leg_m[at + (tm[col] + s) // 2]
        cn = leg_n[at + (tn[col] + s) // 2]
        row = position[slot(mu, a + tm[col], b + tn[col])]
        keep = (row >= 0) & (cm != 0.0) & (cn != 0.0)
        vals = c * (ctx.q ** (-a / 2.0) * np.sqrt(qdim[s] / qdim[mu])) * (cm * cn)
        out.append((row[keep], col[keep], vals[keep]))
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
    import scipy.sparse as sp

    lam_cap = hi(lam_cap)
    if lam_cap.twice < 2:
        raise ValueError(f"lambda cap must be >= 1, got {lam_cap}")
    elements = dict(zip(("alpha", "beta"), coord.gens(ctx)), one=coord.unit())
    if gen not in elements:
        raise ValueError(f"gen must be 'alpha', 'beta' or 'one', got {gen!r}")
    labels = _gns_labels(lam_cap)
    rows, cols, vals = gns_multiplication(elements[gen], labels, ctx)
    shells = labels[0]
    # the interior shells are a prefix of the (lam, m, n) order
    interior = int(np.count_nonzero(shells <= lam_cap.twice - 1))
    keep = cols < interior
    rows, cols = rows[keep], cols[keep]
    vals = (shells[rows] - shells[cols]) / 2.0 * vals[keep]
    return operator_norm(sp.csr_matrix((vals, (rows, cols)), shape=(shells.size, interior)))


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
    report["max"] = max(report.values())
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
    report["max"] = max(report.values())
    return report
