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
:func:`spinor_legs`), labelled as coordinates are, by a tuple of doubled
integers (:class:`SpinorBasisIndex`), the q^{-D} identity through the right
regular action, verified rather than assumed on one block per shell whose
m = lam labels it lists itself, and one unpruned construction of left
multiplication on the orthonormal GNS basis.  Its
private core states each term's factors once: a scale by (mu-shift, shell)
and two Clebsch-Gordan leg tables by (shell, weight, mu-shift).
:func:`gns_multiplication` reads them at its labels for the triplets of the
even triple's pi(a), pi(b).  :func:`commutator_norm` takes their outer
products shell by shell, reads the bands of its Gram matrix along each
weight chain, and eigensolves the chains its Gershgorin screen keeps, in one
stack it fills per size and, for alpha, one of each mirrored pair.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

import numpy as np

from .cg import cg_blocks, cg_coeff_updown_doubled
from .coaction import coinvariant_coord_basis, wp_gens
from .coord import AlgebraElement, BasisIndex
from .exact import QContext, WeightPair, _p_window, residual_max, twice
from .exact import summability_partial_sum  # noqa: F401  (bench/ reads it here)
from .qcore import irrep_word, q_int

__all__ = [
    "SpinorBasisIndex",
    "coinvariant_spinor_basis",
    "spinor_legs",
    "q_dirac_check",
    "commutator_norm",
    "even_triple_operators",
    "chirality_checks",
    "fredholm_degeneracy",
]

Q_DIRAC_GUARD = 3
# b is one matrix element, but pi(b) reads the coupling lists of the CG blocks ((k+l)/2, lam),
# and building b the other blocks and irreps up to (k+l)/2: at (1, 127), lam_max 5 these kept
# 1.5, 2.7 and 12 MB.  verify --suite chirality at (1, 64) took 0.35 s and 37 MB, (1, 127)
# 0.51 s and 56 MB and, with the guard lifted, (1, 200) 0.78 s and 98 MB on 2 cores
EVEN_TRIPLE_GUARD = 128
# commutator_norm reads the (2 cap)^3 / 3 or so GNS labels of its interior shells, 2.7e9 at cap 1000.
# At cap 80 and q = 0.5, alpha took 0.60-0.65 s with a tracemalloc peak of 76 MiB, and beta
# 0.68-0.77 s and 80 MiB, on 2 cores
COMMUTATOR_GUARD = 80


class SpinorBasisIndex(tuple):
    """Label |j m mu arrow> of the orthonormal spinor basis.

    Up vectors live at lam = j + 1/2 (|m| <= j+1/2), down vectors at
    lam = j - 1/2 (j >= 1/2, |m| <= j-1/2), lam the highest weight of the
    coordinate leg; |mu| <= j for both.  An immutable tuple (2j, 2m, 2mu,
    arrow) of the doubled integers, as :class:`~qwps.coord.BasisIndex`, so
    hashing and equality run on ints.  The constructor reads any values
    :func:`~qwps.exact.twice` parses, :meth:`doubled` the doubled ints;
    ``j``, ``m``, ``mu`` and ``lam`` read them back as Fractions.
    """

    __slots__ = ()

    def __new__(cls, j, m, mu, arrow: str):
        return cls.doubled(twice(j), twice(m), twice(mu), arrow)

    @classmethod
    def doubled(cls, tj: int, tm: int, tmu: int, arrow: str) -> "SpinorBasisIndex":
        """The label (tj/2, tm/2, tmu/2, arrow), from its doubled integers."""
        if arrow not in ("up", "down"):
            raise ValueError(f"arrow must be 'up' or 'down', got {arrow!r}")
        tl = tj + 1 if arrow == "up" else tj - 1
        if abs(tmu) > tj or (tj - tmu) % 2 or abs(tm) > tl or (tl - tm) % 2:
            j = Fraction(tj, 2)
            if tj < 0:
                raise ValueError(f"j must be >= 0, got {j}")
            if abs(tmu) > tj or (tj - tmu) % 2:
                raise ValueError(f"mu = {Fraction(tmu, 2)} out of range for j = {j}")
            if tl < 0:
                raise ValueError(f"down vectors need j >= 1/2, got j = {j}")
            raise ValueError(f"m = {Fraction(tm, 2)} out of range for arrow {arrow}, j = {j}")
        return tuple.__new__(cls, (tj, tm, tmu, arrow))

    j = property(lambda self: Fraction(self[0], 2))
    m = property(lambda self: Fraction(self[1], 2))
    mu = property(lambda self: Fraction(self[2], 2))
    arrow = property(lambda self: self[3])
    lam = property(lambda self: Fraction(self[0] + (1 if self[3] == "up" else -1), 2))

    def __getnewargs__(self):
        return self.j, self.m, self.mu, self.arrow


def coinvariant_spinor_basis(wp: WeightPair, j_max) -> list[SpinorBasisIndex]:
    """Coinvariant spinor labels |j, p(l+k) - 1/2, p(l-k), arrow> over
    half-integer p with j <= j_max, ordered (j, arrow, p).

    They are the ambient spinor labels whose legs have degrees cancelling the
    spin-1/2 orders (-k on e_+, l on e_-); the ambient rule |m| <= lam is the
    window 1 - 2lam <= 2p(l+k) <= 1 + 2lam.
    """
    return [
        SpinorBasisIndex.doubled(tj, tp * wp.s - 1, tp * (wp.l - wp.k), arrow)
        for tj in range(0, twice(j_max) + 1)
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
    tj, tm, tmu, arrow = idx
    tl = tj - 1 if arrow == "down" else tj + 1
    c, s = cg_coeff_updown_doubled(tl + 1, tmu, ctx)  # j for down, j + 1 for up
    minus, plus = (c, s) if arrow == "down" else (-s, c)
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

    applied to the labels with m = lam (the up labels at j = lam - 1/2, then
    the down labels at j = lam + 1/2, mu ascending), whose expected
    eigenvalues are q^{-(2j+3/2)} on up vectors and q^{2j+1/2} on down
    vectors.  Refuses q for which ev_max or the block overflows a double.
    """
    tj_max = twice(j_max, "j_max")
    if tj_max > 2 * Q_DIRAC_GUARD:
        raise ValueError(f"j_max = {Fraction(tj_max, 2)} exceeds the cost guard {Q_DIRAC_GUARD}")
    q = ctx.q
    try:
        ev_max = q ** (-(tj_max + 1.5))
    except OverflowError:
        raise ValueError(f"q = {q:g}: q^-(2 j_max + 3/2) overflows a double") from None
    lam_q = q - 1.0 / q

    def shell(tl):
        labels = [SpinorBasisIndex.doubled(tj, tl, tmu, arrow)
                  for arrow, tj in (("up", tl - 1), ("down", tl + 1)) if 0 <= tj <= tj_max
                  for tmu in range(-tj, tj + 1, 2)]
        if not labels:  # lam = 0 at j_max = 0
            return 0.0
        rho = lambda *word: irrep_word(tl / 2, word, ctx)  # noqa: E731
        block = q**1.5 * np.block([
            [rho("k", "k") + (lam_q**2 / q) * rho("f", "e"), (lam_q / q**0.5) * rho("f", "kinv")],
            [(lam_q / q**0.5) * rho("kinv", "e"), rho("kinv", "kinv")]])
        vecs, evs = np.zeros((2 * tl + 2, len(labels))), np.zeros(len(labels))
        for col, idx in enumerate(labels):
            for sign, (_, _, tn), coeff in spinor_legs(idx, ctx):
                vecs[(tn + tl) // 2 + (tl + 1 if sign == "-" else 0), col] = coeff
            evs[col] = q ** (-(idx[0] + 1.5) if idx[3] == "up" else idx[0] + 0.5)
        resid = np.abs(block @ vecs - vecs * evs).max(axis=0)
        return float((resid / (ev_max * np.abs(vecs).max(axis=0))).max())

    # at small q the block's coefficients overflow: (q - 1/q)^2 raises, or inf * 0 reads NaN
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            worst = residual_max([shell(tl) for tl in range(tj_max + 2)])
    except OverflowError:
        worst = math.nan
    if not math.isfinite(worst):
        raise ValueError(f"q = {q:g}: the q^-D block overflows a double")
    return worst


# ---------------------------------------------------------------------------
# left multiplication on the GNS space; the auxiliary swap's commutators


def _slot(l2, m2, n2):
    # position of (2lam, 2m, 2n) in the order (lam, m, n): shell 2lam starts at sum_{t < 2lam} (t+1)^2
    return l2 * (l2 + 1) * (2 * l2 + 1) // 6 + (m2 + l2) // 2 * (l2 + 1) + (n2 + l2) // 2


def _gns_factors(element: AlgebraElement, shells, ctx: QContext):
    """The factors of left multiplication by ``element`` on the GNS shells
    ``shells`` (doubled lam, ascending), one (2lam', 2m', 2n', scale, leg_m,
    leg_n) per term c t^lam'_{m'n'}.  For lam = shells[i]/2, the shift-th
    mu = lam - lam' + shift and the weight m = w - lam of lam,

        scale[shift, i] = c q^{-m'} sqrt([2lam+1]/[2mu+1]),
        leg_m[i, w, shift] = C(lam' lam mu; m' m),  leg_n alike with n',

    read from the block (lam', lam) of :func:`~qwps.cg.cg_blocks`.  The legs
    are 0 where the coupling forbids mu, where |m' + m| > mu and for w > 2lam;
    a forbidden mu's scale is finite but meaningless.  Where m' = n', leg_n is
    leg_m."""
    shells = np.asarray(shells)
    shell_list = shells.tolist()
    reach = max((idx[0] for idx in element.terms), default=0)
    top = shell_list[-1]
    qdim = np.array([q_int(t + 1, ctx) for t in range(top + reach + 1)])
    coeffs = np.array(list(element.terms.values()), dtype=complex)
    if not coeffs.imag.any():  # real elements give real matrices
        coeffs = coeffs.real
    couplings = cg_blocks({idx[0] for idx in element.terms}, shell_list, ctx)
    for (l2, a, b), c in zip(element.terms, coeffs):
        shift = np.arange(l2 + 1)
        scale = c * (ctx.q ** (-a / 2.0) * np.sqrt(
            qdim[shells] / qdim[np.maximum(shells - l2 + 2 * shift[:, None], 0)]))
        # the coupling rows of m' over the shells, end to end, hold C(lam' lam mu; m' m)
        # in the order (lam, m, mu) of the places where m <= lam and mu is allowed
        inside = (np.arange(top + 1) <= shells[:, None])[:, :, None] & (
            shift >= np.maximum(l2 - shells, 0)[:, None])[:, None, :]
        blocks = [couplings[l2, s] for s in shell_list]
        legs = {}
        for x in {a, b}:
            legs[x] = np.zeros(inside.shape)
            legs[x][inside] = np.fromiter(chain.from_iterable(chain.from_iterable(
                blk[(x + l2) // 2] for blk in blocks)), float)
        yield l2, a, b, scale, legs[a], legs[b]


def gns_multiplication(element: AlgebraElement, labels, ctx: QContext):
    """Left multiplication by ``element`` on the orthonormal GNS vectors
    e(lam, m, n) = q^m sqrt([2lam+1]) t^lam_{mn} named by ``labels``, three int
    arrays (2 lam, 2 m, 2 n).  A term c t^lam'_{m'n'} sends e(lam, m, n) to

        sum_mu c C(lam' lam mu; m' m) C(lam' lam mu; n' n) q^{-m'}
               sqrt([2lam+1]/[2mu+1]) e(mu, m'+m, n'+n),

    the factors of :func:`_gns_factors` read at each label; a coupling that
    forbids mu or a weight |m'+m| > mu reads 0.  Returns the triplets (rows,
    cols, vals) as positions in ``labels``, by term and mu-shift.  Nothing is
    pruned; images outside ``labels`` are dropped.
    """
    tl, tm, tn = labels = tuple(np.asarray(x, dtype=int) for x in labels)
    out = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    if not tl.size:
        return out[0]
    top = int(tl.max())
    position = np.full(_slot(top + 1, -top - 1, -top - 1), -1)
    position[_slot(tl, tm, tn)] = np.arange(tl.size)
    shells = np.flatnonzero(np.bincount(tl))
    for l2, a, b, scale, leg_m, leg_n in _gns_factors(element, shells, ctx):
        i = np.searchsorted(shells, tl)
        vals = scale[:, i] * (leg_m[i, (tl + tm) // 2] * leg_n[i, (tl + tn) // 2]).T
        del i  # not held through the row lookup, where the peak is
        shift, col = np.nonzero((vals != 0) & (tl + np.arange(-l2, l2 + 1, 2)[:, None] <= top))
        row = position[_slot(tl[col] - l2 + 2 * shift, a + tm[col], b + tn[col])]
        keep = row >= 0
        out.append((row[keep], col[keep], vals[shift[keep], col[keep]]))
    return tuple(np.concatenate(part) for part in zip(*out))


# the Gershgorin screen's relative slack.  eigvalsh is backward stable, each computed
# eigenvalue within about n eps ||B|| of an exact one, under 1e-14 relative for chains of
# side n <= 80 (COMMUTATOR_GUARD); 100 times that keeps the maximising chain, so the max
# over the kept chains is the unscreened max bit for bit
GERSHGORIN_SLACK = 1e-12


def _chains(scale, leg_m, leg_n, parity, mirrored):
    """The Gram blocks of C*C (see :func:`commutator_norm`) on the GNS shells
    of one parity that its Gershgorin screen can keep, from the factors of
    :func:`_gns_factors` on the shells 2lam = 0, 1, ..., top.

    The block of the weight pair (m, n) is the chain of its shells lam >=
    max(|m|, |n|), tridiagonal.  The pairs are the cells (j, i) of the box of
    the last shell lam, (m, n) = (j - lam, i - lam); a shell's images of its
    columns at each shift are the outer product of the two legs, 0 outside
    the shell.  A block whose largest absolute row sum falls below this
    parity's largest diagonal entry, floor, times (1 - GERSHGORIN_SLACK) is
    dropped, and so is (m, n) with m > n if ``mirrored``.  Returns floor and,
    by kept cell, the diagonal and the links to the next shell (shell, cell),
    the row sum bound and the chain's first shell.
    """
    top = scale.shape[1] - 1
    last = top - (top - parity) % 2
    shells = np.arange(parity, last + 1, 2)
    # the cell (j, i) of the last shell has weights (2j - last, 2i - last): at
    # w = j - (last - lam)/2 of the shell lam, and outside it where that is < 0
    w = np.arange(last + 1) - (last - shells[:, None]) // 2
    box = [np.where(w[:, :, None] >= 0, leg[shells[:, None], w], 0.0) for leg in (leg_m, leg_n)]
    # the lowering and raising images, scaled by lam_row - lam_col = ∓1/2
    lo, up = (sign * (scale[shift, shells][:, None, None]
                      * (box[0][:, :, None, shift] * box[1][:, None, :, shift]))
              for shift, sign in ((0, -0.5), (1, 0.5)))
    count, cells = lo.shape[0], (last + 1) ** 2
    diag = (lo * lo + up * up).reshape(count, cells)
    off = (0.0 + lo[1:] * up[:-1]).reshape(count - 1, cells)  # +0.0 where no link
    del lo, up
    bound = diag.copy()
    bound[1:] += np.abs(off)
    bound[:-1] += np.abs(off)
    bound = bound.max(axis=0)
    floor = float(diag.max())
    kept = bound >= floor * (1.0 - GERSHGORIN_SLACK)
    if mirrored:
        kept &= np.triu(np.ones((last + 1, last + 1), dtype=bool)).ravel()
    cells = np.flatnonzero(kept)
    weight = np.abs(np.arange(-last, last + 1, 2))
    first = (np.maximum.outer(weight, weight).ravel()[cells] - parity) // 2
    return floor, diag[:, cells], off[:, cells], bound[cells], first


def commutator_norm(gen: str, lam_cap, ctx: QContext) -> float:
    """Norm of [Q, pi(gen)] on two truncated GNS copies, interior block only.

    ``gen`` is "alpha", "beta" or "one".  Q swaps the copies with eigenvalue
    ±(lam+1); pi is left multiplication P by the generator on each copy (see
    :func:`gns_multiplication`).  Then [Q, pi] = [[0, C], [C, 0]] with
    C = DP - PD, D = diag(lam+1), so both have the norm of C, whose entries
    are (lam_row - lam_col) P = ±P/2.  Multiplication moves shell lam to
    lam ± 1/2, so columns are restricted to shells lam <= cap - 1/2, where the
    truncated commutator agrees exactly with the densely defined one.  Caps
    above COMMUTATOR_GUARD are refused.

    C*C is block diagonal by the column weight (m, n) and tridiagonal in lam:
    the row (lam + 1/2, m', n') is shared by the columns (lam, m, n) and
    (lam + 1, m, n) only.  Each block is the chain of :func:`_chains`; the
    blocks its Gershgorin screen keeps are eigensolved a size at a time, as
    one stack of dense tridiagonal matrices.
    Where m' = n' (alpha), the blocks (m, n) and (n, m) are the same matrix,
    so only those with m <= n are solved.
    """
    t_cap = twice(lam_cap)
    if t_cap < 2:
        raise ValueError(f"lambda cap must be >= 1, got {Fraction(t_cap, 2)}")
    if t_cap > 2 * COMMUTATOR_GUARD:
        raise ValueError(
            f"lambda cap {Fraction(t_cap, 2)} exceeds the cost guard {COMMUTATOR_GUARD}")
    if gen == "one":  # pi(1) commutes with Q
        return 0.0
    if gen not in ("alpha", "beta"):
        raise ValueError(f"gen must be 'alpha', 'beta' or 'one', got {gen!r}")
    # alpha = t^{1/2}_{1/2,1/2}, beta = t^{1/2}_{1/2,-1/2}; the interior shells lie below the cap
    element = AlgebraElement.basis(BasisIndex.doubled(1, 1, 1 if gen == "alpha" else -1))
    [(_, a, b, scale, leg_m, leg_n)] = _gns_factors(element, np.arange(t_cap), ctx)
    chains = [_chains(scale, leg_m, leg_n, parity, a == b) for parity in (0, 1)]
    floor = max(floor for floor, *_ in chains)
    by_size = {}
    for _, diag, off, bound, first in chains:
        kept = np.flatnonzero(bound >= floor * (1.0 - GERSHGORIN_SLACK))
        kept = kept[np.argsort(first[kept], kind="stable")]  # by first shell: the longest first
        ends = np.cumsum(np.bincount(first[kept], minlength=len(diag))).tolist()
        for start, (begin, end) in enumerate(zip([0, *ends], ends)):
            if end > begin:
                at = kept[begin:end]
                by_size.setdefault(len(diag) - start, []).append((diag[start:, at].T,
                                                                  off[start:, at].T))
    top = 0.0
    for size, parts in by_size.items():
        diag, off = (np.concatenate(x) for x in zip(*parts))
        # each matrix's diagonal, upper and lower band, in its row-major entries
        stack = np.zeros((len(diag), size * size))
        stack[:, ::size + 1], stack[:, 1::size + 1], stack[:, size::size + 1] = diag, off, off
        top = max(top, float(np.linalg.eigvalsh(stack.reshape(-1, size, size)).max()))
    return math.sqrt(top)


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
    base = coinvariant_coord_basis(wp, twice(lam_max, "lam_max") / 2)
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
