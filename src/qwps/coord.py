"""The coordinate algebra of quantum SU(2) as finite spans of matrix elements.

An element is a finite complex combination of basis functionals t^lam_{mn},
the (m, n) matrix elements of the highest-weight-lam irreducible.  The
product is the Clebsch-Gordan rule

    t^lam_{mn} t^lam'_{m'n'} =
        sum_mu C_q(lam lam' mu; m m') C_q(lam lam' mu; n n') t^mu_{m+m', n+n'}

with coefficients read from :func:`qwps.cg.cg_block` rows, so t^0_{00} is the
unit.  Star, the dual pairing with generator words, the left/right regular
actions, the Haar state and the GNS basis all live here, together with the
residual reports that drive the verification CLI.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .cg import cg_block
from .qcore import (
    HalfInt,
    QContext,
    antipode_letter,
    hi,
    irrep_word,
    q_int,
    star_antipode_letter,
    theta_letter,
    weight_position,
    weight_range,
)

__all__ = [
    "BasisIndex",
    "AlgebraElement",
    "unit",
    "gens",
    "multiply",
    "star",
    "pairing",
    "right_act",
    "left_act",
    "haar",
    "inner",
    "gns_basis_vector",
    "to_records",
    "from_records",
    "to_jsonl",
    "from_jsonl",
    "relation_residuals",
    "action_table_residuals",
    "haar_orthogonality_residual",
    "equivariance_residuals",
    "star_pairing_residual",
]


@dataclass(frozen=True)
class BasisIndex:
    """Label (lam, m, n) of the matrix element t^lam_{mn}."""

    lam: HalfInt
    m: HalfInt
    n: HalfInt

    def __post_init__(self):
        lam, m, n = self.lam, self.m, self.n
        if lam.twice < 0:
            raise ValueError(f"lam must be >= 0, got {lam}")
        for name, w in (("m", m), ("n", n)):
            if abs(w.twice) > lam.twice:
                raise ValueError(f"|{name}| = |{w}| exceeds lam = {lam}")
            if (lam.twice - w.twice) % 2:
                raise ValueError(f"{name} = {w} has wrong parity for lam = {lam}")

    def __hash__(self):
        return hash((self.lam.twice, self.m.twice, self.n.twice))

    @staticmethod
    def of(lam, m, n) -> "BasisIndex":
        return BasisIndex(hi(lam), hi(m), hi(n))

    def __str__(self):
        return f"t[{self.lam};{self.m},{self.n}]"


_UNIT_INDEX = BasisIndex.of(0, 0, 0)


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
    def zero() -> "AlgebraElement":
        return AlgebraElement()

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
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff(self, idx: BasisIndex) -> complex:
        return self.terms.get(idx, 0j)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms, key=lambda i: (i.lam.twice, i.m.twice, i.n.twice)):
            parts.append(f"({self.terms[idx]:.6g})*{idx}")
        return " + ".join(parts)


def unit() -> AlgebraElement:
    return AlgebraElement.basis(_UNIT_INDEX)


def gens(ctx: QContext):
    """Generators (alpha, beta, alpha*, beta*) of the *-algebra.

    alpha = t^{1/2}_{1/2,1/2}, beta = t^{1/2}_{1/2,-1/2},
    alpha* = t^{1/2}_{-1/2,-1/2}, beta* = -(1/q) t^{1/2}_{-1/2,1/2}.
    """
    h = hi(0.5)
    alpha = AlgebraElement.basis(BasisIndex(h, h, h))
    beta = AlgebraElement.basis(BasisIndex(h, h, -h))
    alpha_star = AlgebraElement.basis(BasisIndex(h, -h, -h))
    beta_star = AlgebraElement.basis(BasisIndex(h, -h, h), -1.0 / ctx.q)
    return alpha, beta, alpha_star, beta_star


def multiply(a: AlgebraElement, b: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Bilinear extension of the Clebsch-Gordan product rule.

    Sums run on doubled weights (2 mu, 2 m, 2 n) through each block's coupling
    table; the terms with |coefficient| <= ctx.prune are dropped as roundoff.
    """
    right = [(i2.lam, i2.m.twice, i2.n.twice, c2) for i2, c2 in b.terms.items()]
    out: dict[tuple, complex] = {}
    for i1, c1 in a.terms.items():
        m1, n1 = i1.m.twice, i1.n.twice
        for lam2, m2, n2, c2 in right:
            table = cg_block(i1.lam, lam2, ctx).table
            col_n = table[n1, n2]
            m, n = m1 + m2, n1 + n2
            c12 = c1 * c2
            for mu, cm in table[m1, m2].items():
                cn = col_n.get(mu)
                if cn is not None:
                    key = (mu, m, n)
                    out[key] = out.get(key, 0) + c12 * cm * cn
    return AlgebraElement({
        BasisIndex(HalfInt(mu), HalfInt(m), HalfInt(n)): c
        for (mu, m, n), c in out.items() if abs(c) > ctx.prune
    })


def star(a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Antilinear involution (t^lam_{mn})* = (-q)^{n-m} t^lam_{-m,-n}.

    The closed form is cross-checked against the pairing definition
    t*(x) = conj(t(S(x)*)) by :func:`star_pairing_residual`.
    """
    out: dict[BasisIndex, complex] = {}
    for idx, c in a.terms.items():
        power = (idx.n - idx.m).as_int()
        factor = (-ctx.q) ** power
        tgt = BasisIndex(idx.lam, -idx.m, -idx.n)
        out[tgt] = out.get(tgt, 0) + factor * c.conjugate()
    return AlgebraElement(out)


def pairing(a: AlgebraElement, word, ctx: QContext) -> complex:
    """Dual pairing: linear extension of t^lam_{mn}(x) = (rho_lam(x))_{mn}."""
    total = 0j
    mats: dict[int, np.ndarray] = {}
    for idx, c in a.terms.items():
        mat = mats.get(idx.lam.twice)
        if mat is None:
            mat = irrep_word(idx.lam, word, ctx)
            mats[idx.lam.twice] = mat
        total += c * mat[weight_position(idx.lam, idx.m), weight_position(idx.lam, idx.n)]
    return total


def right_act(word, a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Right regular representation: the word acts on the column index n."""
    out: dict[BasisIndex, complex] = {}
    mats: dict[int, np.ndarray] = {}
    for idx, c in a.terms.items():
        mat = mats.get(idx.lam.twice)
        if mat is None:
            mat = irrep_word(idx.lam, word, ctx)
            mats[idx.lam.twice] = mat
        col = weight_position(idx.lam, idx.n)
        for i, n_new in enumerate(weight_range(idx.lam)):
            v = mat[i, col]
            if v != 0:
                tgt = BasisIndex(idx.lam, idx.m, n_new)
                out[tgt] = out.get(tgt, 0) + c * v
    return AlgebraElement(out)


def _left_matrix(lam, word, ctx: QContext) -> np.ndarray:
    """rho_lam(S(theta(word))); S∘theta is an anti-homomorphism, so the
    per-letter matrices multiply in reversed word order."""
    if isinstance(word, str):
        word = (word,)
    d = hi(lam).twice + 1
    out = np.eye(d, dtype=complex)
    for letter in reversed(tuple(word)):
        sign, mapped = theta_letter(letter)
        a_coeff, a_letter = antipode_letter(mapped, ctx)
        out = out @ ((sign * a_coeff) * irrep_word(lam, a_letter, ctx))
    return out


def left_act(word, a: AlgebraElement, ctx: QContext) -> AlgebraElement:
    """Left regular representation: acts on the row index m through the dual
    representation twisted by the automorphism theta."""
    out: dict[BasisIndex, complex] = {}
    mats: dict[int, np.ndarray] = {}
    for idx, c in a.terms.items():
        mat = mats.get(idx.lam.twice)
        if mat is None:
            mat = _left_matrix(idx.lam, word, ctx)
            mats[idx.lam.twice] = mat
        row = weight_position(idx.lam, idx.m)
        for i, m_new in enumerate(weight_range(idx.lam)):
            v = mat[row, i]
            if v != 0:
                tgt = BasisIndex(idx.lam, m_new, idx.n)
                out[tgt] = out.get(tgt, 0) + c * v
    return AlgebraElement(out)


def haar(a: AlgebraElement) -> complex:
    """Haar state: h(1) = 1, h(t^lam_{mn}) = 0 for lam > 0."""
    return a.coeff(_UNIT_INDEX)


def inner(a: AlgebraElement, b: AlgebraElement, ctx: QContext) -> complex:
    """GNS inner product h(a* b)."""
    return haar(multiply(star(a, ctx), b, ctx))


def gns_basis_vector(idx: BasisIndex, ctx: QContext) -> AlgebraElement:
    """Orthonormal GNS basis vector q^m sqrt([2 lam + 1]) t^lam_{mn}."""
    scale = ctx.q ** idx.m.float * math.sqrt(q_int(2 * idx.lam + 1, ctx))
    return AlgebraElement.basis(idx, scale)


# ---------------------------------------------------------------------------
# serialization (line-delimited records, used by the CLI for golden files)


def to_records(a: AlgebraElement) -> list[dict]:
    recs = []
    for idx in sorted(a.terms, key=lambda i: (i.lam.twice, i.m.twice, i.n.twice)):
        c = a.terms[idx]
        recs.append(
            {
                "two_lambda": idx.lam.twice,
                "two_m": idx.m.twice,
                "two_n": idx.n.twice,
                "re": c.real,
                "im": c.imag,
            }
        )
    return recs


def from_records(records) -> AlgebraElement:
    terms = {}
    for rec in records:
        idx = BasisIndex(
            HalfInt(int(rec["two_lambda"])),
            HalfInt(int(rec["two_m"])),
            HalfInt(int(rec["two_n"])),
        )
        terms[idx] = terms.get(idx, 0) + complex(rec["re"], rec["im"])
    return AlgebraElement(terms)


def to_jsonl(a: AlgebraElement) -> str:
    return "\n".join(json.dumps(rec) for rec in to_records(a))


def from_jsonl(text: str) -> AlgebraElement:
    records = [json.loads(line) for line in text.splitlines() if line.strip()]
    return from_records(records)


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
    residuals["max"] = max(residuals.values())
    return residuals


def _generator_table(ctx: QContext):
    alpha, beta, alpha_s, beta_s = gens(ctx)
    return {"alpha": alpha, "beta": beta, "alpha_star": alpha_s, "beta_star": beta_s}


def action_table_residuals(ctx: QContext) -> dict:
    """Residuals of every generator-table entry of the regular actions."""
    g = _generator_table(ctx)
    q = ctx.q
    zero = AlgebraElement.zero()
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
    residuals = {}
    for letter, name, expected in right_table:
        residuals[f"right:{letter}:{name}"] = (
            right_act(letter, g[name], ctx) - expected
        ).norm_inf()
    for letter, name, expected in left_table:
        residuals[f"left:{letter}:{name}"] = (
            left_act(letter, g[name], ctx) - expected
        ).norm_inf()
    residuals["max"] = max(residuals.values())
    return residuals


def haar_orthogonality_residual(ctx: QContext, lam_max=2) -> float:
    """Max deviation of <t^lam_{mn}, t^lam'_{m'n'}> from delta*q^{-2m}/[2lam+1]."""
    lam_max = hi(lam_max)
    indices = []
    for tl in range(0, lam_max.twice + 1):
        lam = HalfInt(tl)
        for m in weight_range(lam):
            for n in weight_range(lam):
                indices.append(BasisIndex(lam, m, n))
    worst = 0.0
    for i1 in indices:
        for i2 in indices:
            val = inner(AlgebraElement.basis(i1), AlgebraElement.basis(i2), ctx)
            if i1 == i2:
                expected = ctx.q ** (-2 * i1.m.float) / q_int(2 * i1.lam + 1, ctx)
            else:
                expected = 0.0
            worst = max(worst, abs(val - expected))
    return worst


_SWEEDLER = {
    "e": (("e", "k"), ("kinv", "e")),
    "f": (("f", "k"), ("kinv", "f")),
    "k": (("k", "k"),),
    "kinv": (("kinv", "kinv"),),
}


def equivariance_residuals(ctx: QContext) -> dict:
    """Regular representations against the coproduct: act(x)(ab) = sum act(x')a act(x'')b."""
    g = _generator_table(ctx)
    worst_right = 0.0
    worst_left = 0.0
    for letter in ("e", "f", "k"):
        for a in g.values():
            for b in g.values():
                ab = multiply(a, b, ctx)
                lhs_r = right_act(letter, ab, ctx)
                lhs_l = left_act(letter, ab, ctx)
                rhs_r = AlgebraElement.zero()
                rhs_l = AlgebraElement.zero()
                for x1, x2 in _SWEEDLER[letter]:
                    rhs_r = rhs_r + multiply(right_act(x1, a, ctx), right_act(x2, b, ctx), ctx)
                    rhs_l = rhs_l + multiply(left_act(x1, a, ctx), left_act(x2, b, ctx), ctx)
                worst_right = max(worst_right, (lhs_r - rhs_r).norm_inf())
                worst_left = max(worst_left, (lhs_l - rhs_l).norm_inf())
    return {"right": worst_right, "left": worst_left, "max": max(worst_right, worst_left)}


def star_pairing_residual(ctx: QContext, lam_max=1.5, max_word_len=2) -> float:
    """Check the closed-form star against t*(x) = conj(t(S(x)*)).

    S(x)* maps each letter to a real multiple of a letter and reverses twice,
    so a word (x1 ... xr) pairs through the letterwise image in word order.
    """
    lam_max = hi(lam_max)
    letters = ("e", "f", "k", "kinv")
    words = [()]
    words += [(a,) for a in letters]
    if max_word_len >= 2:
        words += [(a, b) for a in letters for b in letters]
    worst = 0.0
    for tl in range(0, lam_max.twice + 1):
        lam = HalfInt(tl)
        for m in weight_range(lam):
            for n in weight_range(lam):
                t = AlgebraElement.basis(BasisIndex(lam, m, n))
                ts = star(t, ctx)
                for w in words:
                    coeff = 1.0
                    mapped = []
                    for letter in w:
                        c, mapped_letter = star_antipode_letter(letter, ctx)
                        coeff *= c
                        mapped.append(mapped_letter)
                    lhs = pairing(ts, w, ctx)
                    rhs = np.conj(coeff * pairing(t, tuple(mapped), ctx))
                    worst = max(worst, abs(lhs - rhs))
    return worst
