"""The coordinate algebra of quantum SU(2) as finite spans of matrix elements.

An element is a finite complex combination of basis functionals t^lam_{mn},
the (m, n) matrix elements of the highest-weight-lam irreducible.  The
product is the Clebsch-Gordan rule

    t^lam_{mn} t^lam'_{m'n'} =
        sum_mu C_q(lam lam' mu; m m') C_q(lam lam' mu; n n') t^mu_{m+m', n+n'}

with coefficients read from :func:`qwps.cg.cg_blocks` rows, so t^0_{00} is the
unit.  Star, the left/right regular actions, the Haar state and its GNS inner
product all live here, together with the residual reports that drive the
verification CLI.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

import numpy as np

from .cg import cg_blocks
from .exact import residual_max, twice
from .qcore import (
    COPRODUCT,
    LETTERS,
    QContext,
    antipode_letter,
    q_int,
    star_antipode_letter,
    theta_letter,
    word_shift,
)

__all__ = [
    "BasisIndex",
    "AlgebraElement",
    "unit",
    "gens",
    "multiply",
    "star",
    "right_act",
    "left_act",
    "haar",
    "inner",
    "gram",
    "to_records",
    "to_jsonl",
    "relation_residuals",
    "action_table_residuals",
    "haar_orthogonality_residual",
    "equivariance_residuals",
    "star_pairing_residual",
]


class BasisIndex(tuple):
    """Label (lam, m, n) of the matrix element t^lam_{mn}.

    An immutable tuple of the doubled integers (2 lam, 2 m, 2 n), so hashing
    and equality run on ints.  The constructor reads any values
    :func:`~qwps.exact.twice` parses, :meth:`doubled` the doubled ints;
    ``lam``, ``m`` and ``n`` read them back as Fractions.  Both check that
    lam >= 0 and that m and n lie in {-lam, ..., lam}.
    """

    __slots__ = ()

    def __new__(cls, lam, m, n):
        return cls.doubled(twice(lam), twice(m), twice(n))

    @classmethod
    def doubled(cls, tl: int, tm: int, tn: int) -> "BasisIndex":
        """The index (tl/2, tm/2, tn/2), from its doubled integers."""
        if abs(tm) > tl or abs(tn) > tl or (tl - tm) % 2 or (tl - tn) % 2:
            lam = Fraction(tl, 2)
            if tl < 0:
                raise ValueError(f"lam must be >= 0, got {lam}")
            for name, tw in (("m", tm), ("n", tn)):
                if abs(tw) > tl:
                    raise ValueError(f"|{name}| = |{Fraction(tw, 2)}| exceeds lam = {lam}")
                if (tl - tw) % 2:
                    raise ValueError(f"{name} = {Fraction(tw, 2)} has wrong parity for lam = {lam}")
        return tuple.__new__(cls, (tl, tm, tn))

    lam = property(lambda self: Fraction(self[0], 2))
    m = property(lambda self: Fraction(self[1], 2))
    n = property(lambda self: Fraction(self[2], 2))

    def __getnewargs__(self):
        return self.lam, self.m, self.n

    def __str__(self):
        return f"t[{self.lam};{self.m},{self.n}]"

    def __repr__(self):
        return f"BasisIndex(lam={self.lam!r}, m={self.m!r}, n={self.n!r})"


_UNIT_INDEX = BasisIndex.doubled(0, 0, 0)


class AlgebraElement:
    """Finite complex linear combination of matrix-element basis vectors.

    Treated as an immutable value: every operation returns a new element and
    exact zeros are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # 0 + c stores a -0.0 part as +0.0
        items = (terms or {}).items()
        self.terms = {idx: 0 + c for idx, coeff in items if (c := complex(coeff)) != 0}

    @staticmethod
    def basis(idx: BasisIndex, coeff=1.0) -> "AlgebraElement":
        return AlgebraElement({idx: coeff})

    def __add__(self, other):
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) + c
        return AlgebraElement(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for idx, c in other.terms.items():
            out[idx] = out.get(idx, 0) - c
        return AlgebraElement(out)

    def __neg__(self):
        return AlgebraElement({i: -c for i, c in self.terms.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, AlgebraElement):
            raise TypeError("use multiply(a, b, ctx) for the algebra product")
        return AlgebraElement({i: c * scalar for i, c in self.terms.items()})

    __rmul__ = __mul__

    def norm_inf(self) -> float:
        return residual_max(abs(c) for c in self.terms.values())

    def coeff(self, idx: BasisIndex) -> complex:
        return self.terms.get(idx, 0j)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            parts.append(f"({self.terms[idx]:.6g})*{idx}")
        return " + ".join(parts)


def unit() -> AlgebraElement:
    return AlgebraElement.basis(_UNIT_INDEX)


def gens(ctx: QContext):
    """Generators (alpha, beta, alpha*, beta*) of the *-algebra.

    alpha = t^{1/2}_{1/2,1/2}, beta = t^{1/2}_{1/2,-1/2},
    alpha* = t^{1/2}_{-1/2,-1/2}, beta* = -(1/q) t^{1/2}_{-1/2,1/2}.
    """
    alpha = AlgebraElement.basis(BasisIndex.doubled(1, 1, 1))
    beta = AlgebraElement.basis(BasisIndex.doubled(1, 1, -1))
    alpha_star = AlgebraElement.basis(BasisIndex.doubled(1, -1, -1))
    beta_star = AlgebraElement.basis(BasisIndex.doubled(1, -1, 1), -1.0 / ctx.q)
    return alpha, beta, alpha_star, beta_star


def multiply(a: AlgebraElement, b: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Bilinear extension of the Clebsch-Gordan product rule.

    Sums run on doubled weights (2 mu, 2 m, 2 n) through each block's
    ``coupling`` lists.  Nothing is pruned: only exact zeros are dropped, so
    the result does not depend on ctx.tol.
    """
    couplings = cg_blocks(product({idx[0] for idx in a.terms}, {idx[0] for idx in b.terms}), ctx)
    out: dict[tuple, complex] = {}
    for (l1, m1, n1), c1 in a.terms.items():
        for (l2, m2, n2), c2 in b.terms.items():
            coupling = couplings[l1, l2]
            m, n = m1 + m2, n1 + n2
            c12 = c1 * c2
            for mu, cm, cn in zip(range(abs(l1 - l2), l1 + l2 + 1, 2),
                                  coupling[(m1 + l1) // 2][(m2 + l2) // 2],
                                  coupling[(n1 + l1) // 2][(n2 + l2) // 2]):
                if cm and cn:
                    key = (mu, m, n)
                    out[key] = out.get(key, 0) + c12 * cm * cn
    return AlgebraElement({BasisIndex.doubled(*key): c for key, c in out.items()})


def star(a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Antilinear involution (t^lam_{mn})* = (-q)^{n-m} t^lam_{-m,-n}.

    The closed form is cross-checked against the pairing definition
    t*(x) = conj(t(S(x)*)) by :func:`star_pairing_residual`.
    """
    out: dict[BasisIndex, complex] = {}
    for (tl, tm, tn), c in a.terms.items():
        factor = (-ctx.q) ** ((tn - tm) // 2)
        tgt = BasisIndex.doubled(tl, -tm, -tn)
        out[tgt] = out.get(tgt, 0) + factor * c.conjugate()
    return AlgebraElement(out)


def right_act(word, a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Right regular representation: the word's weighted shift moves the column index n."""
    out: dict[BasisIndex, complex] = {}
    shifts = {tl: word_shift(tl / 2, word, ctx) for tl in {idx[0] for idx in a.terms}}
    for (tl, tm, tn), c in a.terms.items():
        shift, coeffs = shifts[tl]
        v = coeffs[(tn + tl) // 2]
        if v != 0:
            tgt = BasisIndex.doubled(tl, tm, tn + 2 * shift)
            out[tgt] = out.get(tgt, 0) + c * v
    return AlgebraElement(out)


def left_act(word, a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Left regular representation: acts on the row index m through the dual
    representation twisted by the automorphism theta.  S∘theta reverses words and
    takes each letter to a real multiple of a letter, so rho_lam(S(theta(word)))
    is a weighted shift; its row m holds one entry, in column m - shift."""
    letters, scalars = [], []
    for letter in reversed((word,) if isinstance(word, str) else tuple(word)):
        sign, mapped = theta_letter(letter)
        scalar, image = antipode_letter(mapped, ctx)
        letters.append(image)
        scalars.append(sign * scalar)
    out: dict[BasisIndex, complex] = {}
    shifts = {tl: word_shift(tl / 2, letters, ctx, scalars)
              for tl in {idx[0] for idx in a.terms}}
    for (tl, tm, tn), c in a.terms.items():
        shift, coeffs = shifts[tl]
        col = (tm + tl) // 2 - shift
        if 0 <= col <= tl and coeffs[col] != 0:
            tgt = BasisIndex.doubled(tl, tm - 2 * shift, tn)
            out[tgt] = out.get(tgt, 0) + c * coeffs[col]
    return AlgebraElement(out)


def haar(a: AlgebraElement) -> complex:
    """Haar state: h(1) = 1, h(t^lam_{mn}) = 0 for lam > 0."""
    return a.coeff(_UNIT_INDEX)


def inner(a: AlgebraElement, b: AlgebraElement, ctx: QContext) -> complex:
    """GNS inner product h(a* b)."""
    return complex(gram([a], [b], ctx)[0, 0])


def gram(left, right, ctx: QContext) -> np.ndarray:
    """Matrix of GNS inner products h(a* b), a from ``left``, b from ``right``.

    Each entry sums only the unit coefficient of star(a) b: the mu = 0
    coupling entries, which exist only where lam1 = lam2, so each term of
    star(a) is paired with the terms of b in its own shell lam and reads the
    block (lam, lam) alone.  The terms are added in the order :func:`multiply`
    adds them, so an entry equals haar(multiply(star(a, ctx), b, ctx)) bit for
    bit.
    """
    # shell -> column -> that column's terms in the shell, columns and terms in order
    by_shell: dict[int, dict[int, list]] = {}
    for col, b in enumerate(right):
        for (tl, tm, tn), c in b.terms.items():
            by_shell.setdefault(tl, {}).setdefault(col, []).append((tm, tn, c))
    shells = {idx[0] for a in left for idx in a.terms} & by_shell.keys()
    couplings = cg_blocks([(tl, tl) for tl in shells], ctx)
    out = np.zeros((len(left), len(right)), dtype=complex)
    for row, a in enumerate(left):
        totals: dict[int, complex] = {}
        for (tl, m1, n1), c1 in star(a, ctx).terms.items():
            coupling = couplings.get((tl, tl))
            for col, terms in by_shell.get(tl, {}).items():
                for m2, n2, c2 in terms:
                    cm = coupling[(m1 + tl) // 2][(m2 + tl) // 2][0]
                    cn = coupling[(n1 + tl) // 2][(n2 + tl) // 2][0]
                    if cm and cn:
                        totals[col] = totals.get(col, 0) + c1 * c2 * cm * cn
        for col, total in totals.items():
            out[row, col] = total
    return out


# ---------------------------------------------------------------------------
# serialization (line-delimited records, used by the CLI for golden files)


def to_records(a: AlgebraElement) -> list[dict]:
    recs = []
    for idx in sorted(a.terms):
        c = a.terms[idx]
        recs.append(
            {
                "two_lambda": idx[0],
                "two_m": idx[1],
                "two_n": idx[2],
                "re": c.real,
                "im": c.imag,
            }
        )
    return recs


def to_jsonl(a: AlgebraElement) -> str:
    return "\n".join(json.dumps(rec) for rec in to_records(a))


# ---------------------------------------------------------------------------
# residual reports (consumed by the CLI verify command and the test suite)


def relation_residuals(ctx: QContext) -> dict:
    """Max-norm residuals of the five defining relations of the algebra."""
    alpha, beta, alpha_s, beta_s = gens(ctx)
    one = unit()
    q = ctx.q

    def mul(x, y):
        return multiply(x, y, ctx)

    residuals = {
        "beta_alpha": (mul(beta, alpha) - q * mul(alpha, beta)).norm_inf(),
        "betastar_alpha": (mul(beta_s, alpha) - q * mul(alpha, beta_s)).norm_inf(),
        "beta_normal": (mul(beta, beta_s) - mul(beta_s, beta)).norm_inf(),
        "unitarity_1": (mul(alpha, alpha_s) + mul(beta, beta_s) - one).norm_inf(),
        "unitarity_2": (mul(alpha_s, alpha) + q * q * mul(beta_s, beta) - one).norm_inf(),
    }
    residuals["max"] = residual_max(residuals.values())
    return residuals


def _generator_table(ctx: QContext):
    alpha, beta, alpha_s, beta_s = gens(ctx)
    return {"alpha": alpha, "beta": beta, "alpha_star": alpha_s, "beta_star": beta_s}


def action_table_residuals(ctx: QContext) -> dict:
    """Residuals of every generator-table entry of the regular actions."""
    g = _generator_table(ctx)
    q = ctx.q
    zero = AlgebraElement()
    right_table = [
        ("e", "alpha", zero),
        ("f", "alpha", g["beta"]),
        ("k", "alpha", q**0.5 * g["alpha"]),
        ("kinv", "alpha", q**-0.5 * g["alpha"]),
        ("e", "beta", g["alpha"]),
        ("f", "beta", zero),
        ("k", "beta", q**-0.5 * g["beta"]),
        ("kinv", "beta", q**0.5 * g["beta"]),
        ("e", "alpha_star", -q * g["beta_star"]),
        ("f", "alpha_star", zero),
        ("k", "alpha_star", q**-0.5 * g["alpha_star"]),
        ("kinv", "alpha_star", q**0.5 * g["alpha_star"]),
        ("e", "beta_star", zero),
        ("f", "beta_star", (-1.0 / q) * g["alpha_star"]),
        ("k", "beta_star", q**0.5 * g["beta_star"]),
        ("kinv", "beta_star", q**-0.5 * g["beta_star"]),
    ]
    left_table = [
        ("e", "alpha", zero),
        ("f", "alpha", (-(q**2)) * g["beta_star"]),
        ("k", "alpha", q**0.5 * g["alpha"]),
        ("kinv", "alpha", q**-0.5 * g["alpha"]),
        ("e", "beta", zero),
        ("f", "beta", q * g["alpha_star"]),
        ("k", "beta", q**0.5 * g["beta"]),
        ("kinv", "beta", q**-0.5 * g["beta"]),
        ("e", "alpha_star", (1.0 / q) * g["beta"]),
        ("f", "alpha_star", zero),
        ("k", "alpha_star", q**-0.5 * g["alpha_star"]),
        ("kinv", "alpha_star", q**0.5 * g["alpha_star"]),
        ("e", "beta_star", (-1.0 / q**2) * g["alpha"]),
        ("f", "beta_star", zero),
        ("k", "beta_star", q**-0.5 * g["beta_star"]),
        ("kinv", "beta_star", q**0.5 * g["beta_star"]),
    ]
    residuals = {
        f"{side}:{letter}:{name}": (act(letter, g[name], ctx) - expected).norm_inf()
        for side, act, table in (("right", right_act, right_table), ("left", left_act, left_table))
        for letter, name, expected in table
    }
    residuals["max"] = residual_max(residuals.values())
    return residuals


# the Haar check pairs each t^lam_{mn} with lam <= lam_max with the terms of its own shell,
# about lam_max^5 pairs, but fills an n x n matrix over the n = sum (2lam+1)^2 labels, so its
# memory grows about as lam_max^6: from an emptied cache at q = 0.5 with one BLAS thread it
# took 0.015 s at 4, 0.031 s at 5, 0.076 s (76 MB peak RSS) at 6, 0.18 s (125 MB) at 7 and
# 0.24 s (167 MB) at 15/2 on 2 cores
HAAR_GUARD = 6


def haar_orthogonality_residual(ctx: QContext, lam_max=2) -> float:
    """Max deviation of <t^lam_{mn}, t^lam'_{m'n'}> from delta*q^{-2m}/[2lam+1];
    refuses lam_max above HAAR_GUARD before it builds a block."""
    t_max = twice(lam_max, "lam_max")
    if t_max > 2 * HAAR_GUARD:
        raise ValueError(f"lam_max = {Fraction(t_max, 2)} exceeds the cost guard {HAAR_GUARD}")
    indices = [(tl, tm, tn) for tl in range(t_max + 1)
               for tm in range(-tl, tl + 1, 2) for tn in range(-tl, tl + 1, 2)]
    basis = [AlgebraElement.basis(BasisIndex.doubled(*idx)) for idx in indices]
    deviation = gram(basis, basis, ctx)
    for k, (tl, tm, _) in enumerate(indices):
        deviation[k, k] -= ctx.q ** -tm / q_int(tl + 1, ctx)
    return residual_max(np.abs(deviation).ravel().tolist())


def equivariance_residuals(ctx: QContext) -> dict:
    """Regular representations against the coproduct: act(x)(ab) = sum act(x')a act(x'')b.

    Each generator product and each action on a generator is computed once;
    the gaps are listed in the order letter, a, b, side.
    """
    g = gens(ctx)
    sides = (("right", right_act), ("left", left_act))
    products = {(i, j): multiply(a, b, ctx) for i, a in enumerate(g) for j, b in enumerate(g)}
    acted = {(side, x, i): act(x, a, ctx)
             for side, act in sides for x in LETTERS for i, a in enumerate(g)}
    gaps = {"right": [], "left": []}
    for letter in ("e", "f", "k"):
        for (i, j), ab in products.items():
            for side, act in sides:
                rhs = AlgebraElement()
                for x1, x2 in COPRODUCT[letter]:
                    rhs = rhs + multiply(acted[side, x1, i], acted[side, x2, j], ctx)
                gaps[side].append((act(letter, ab, ctx) - rhs).norm_inf())
    worst = {side: residual_max(values) for side, values in gaps.items()}
    worst["max"] = residual_max(worst.values())
    return worst


def star_pairing_residual(ctx: QContext) -> float:
    """Check the closed-form star against t*(x) = conj(t(S(x)*)) for every
    t^lam_{mn} with lam <= 3/2 and every generator word of length <= 2.

    S(x)* maps each letter to a real multiple of a letter and reverses twice,
    so a word (x1 ... xr) pairs through the letterwise image in word order.
    Each word's weighted shift is built once per lam, and t^lam_{mn}(x) is its
    coefficient at n where m = n + shift, 0 elsewhere.
    """
    words = [()] + [(a,) for a in LETTERS] + list(product(LETTERS, repeat=2))
    mapped = []
    for w in words:
        images = [star_antipode_letter(letter, ctx) for letter in w]
        mapped.append((w, math.prod(c for c, _ in images), tuple(x for _, x in images)))
    tls = range(4)  # 2 lam
    rho = {(tl, w): word_shift(tl / 2, w, ctx) for tl in tls for w in words}

    def pair(a, word):  # the dual pairing, by linearity
        total = 0j
        for (tl, tm, tn), c in a.terms.items():
            shift, coeffs = rho[tl, word]
            total += c * (coeffs[(tn + tl) // 2] if tm == tn + 2 * shift else 0.0)
        return total

    gaps = []
    for tl in tls:
        for tm, tn in product(range(-tl, tl + 1, 2), repeat=2):
            t = AlgebraElement.basis(BasisIndex.doubled(tl, tm, tn))
            ts = star(t, ctx)
            for w, coeff, image in mapped:
                gaps.append(abs(pair(ts, w) - np.conj(coeff * pair(t, image))))
    return residual_max(gaps)
