"""Circle grading of the quantum SU(2) algebra for a coprime weight pair.

The coaction by the circle algebra is equivalent to the integer grading

    deg t^lam_{mn} = -(m+n) k + (m-n) l,

so the generators satisfy deg(alpha) = -k and deg(beta) = l.  The degree-zero
subalgebra is the quantum weighted projective algebra; it is generated by
a = beta beta* and b = beta^k alpha^l, and this module verifies its defining
relations inside the coordinate algebra and enumerates its orthogonal basis.
The eigenspace dimension formulas and their counting oracles live in
:mod:`qwps.exact`.  The coinvariant spinors are the ambient spinor labels that
:func:`qwps.dirac.coinvariant_spinor_basis` lists with the same p-window.
"""

from __future__ import annotations

from functools import reduce

from .coord import AlgebraElement, BasisIndex, gens, multiply, star, unit
from .exact import QContext, WeightPair, _p_window, hi
# bench/ reads the five dimension functions under this module's name
from .exact import dim_V, dim_V_down, dim_V_oracle  # noqa: F401
from .exact import dim_V_down_oracle, dim_V_up_oracle  # noqa: F401

__all__ = [
    "degree",
    "project_degree",
    "wp_gens",
    "verify_wp_relations",
    "uq_degree",
    "spinor_degree",
    "coinvariant_coord_basis",
]

# beta^k alpha^l blows up combinatorially; verify_wp_relations refuses beyond this
WP_RELATION_GUARD = 8


def degree(wp: WeightPair, idx: BasisIndex) -> int:
    """Homogeneity order -(m+n)k + (m-n)l of a basis matrix element."""
    _, tm, tn = idx
    t = -(tm + tn) * wp.k + (tm - tn) * wp.l
    assert t % 2 == 0
    return t // 2


def project_degree(a: AlgebraElement, wp: WeightPair, i: int) -> AlgebraElement:
    """Component of homogeneity order i; summing over occurring orders gives a back."""
    return AlgebraElement(
        {idx: c for idx, c in a.terms.items() if degree(wp, idx) == i}
    )


def wp_gens(wp: WeightPair, ctx: QContext):
    """Generators a = beta beta*, b = beta^k alpha^l of the degree-0 subalgebra."""
    alpha, beta, _, beta_star = gens(ctx)
    a = multiply(beta, beta_star, ctx)
    factors = [beta] * wp.k + [alpha] * wp.l
    b = reduce(lambda x, y: multiply(x, y, ctx), factors)
    return a, b


def _poly_in(a: AlgebraElement, factors, ctx: QContext) -> AlgebraElement:
    """Product of (1 + c*a) style factors given as scalars c."""
    out = unit()
    for c in factors:
        out = multiply(out, unit() + c * a, ctx)
    return out


def verify_wp_relations(wp: WeightPair, ctx: QContext) -> dict:
    """Residuals of the weighted projective algebra relations, computed in coord.

    a* = a,
    a b* = q^{-2l} b* a,
    b* b = q^{2kl} a^k prod_{m=0}^{l-1} (1 - q^{2(m+1)} a),
    b b* = a^k prod_{m=1}^{l} (1 - q^{-2(m-1)} a).
    """
    if wp.s > WP_RELATION_GUARD:
        raise ValueError(
            f"k + l = {wp.s} exceeds the guard {WP_RELATION_GUARD}; "
            f"b = beta^k alpha^l would be too costly"
        )
    q = ctx.q
    a, b = wp_gens(wp, ctx)
    bs = star(b, ctx)

    def mul(*xs):
        return reduce(lambda u, v: multiply(u, v, ctx), xs)

    a_pow_k = reduce(lambda u, v: multiply(u, v, ctx), [a] * wp.k)
    rhs_bsb = multiply(
        q ** (2 * wp.k * wp.l) * a_pow_k,
        _poly_in(a, [-(q ** (2 * (m + 1))) for m in range(wp.l)], ctx),
        ctx,
    )
    rhs_bbs = multiply(
        a_pow_k,
        _poly_in(a, [-(q ** (-2 * (m - 1))) for m in range(1, wp.l + 1)], ctx),
        ctx,
    )
    residuals = {
        "a_selfadjoint": (star(a, ctx) - a).norm_inf(),
        "a_bstar": (mul(a, bs) - q ** (-2 * wp.l) * mul(bs, a)).norm_inf(),
        "bstar_b": (mul(bs, b) - rhs_bsb).norm_inf(),
        "b_bstar": (mul(b, bs) - rhs_bbs).norm_inf(),
    }
    residuals["max"] = max(residuals.values())
    return residuals


def uq_degree(wp: WeightPair, word) -> int:
    """Homogeneity order of a generator word of the enveloping algebra:
    e has order -(k+l), f has k+l, k^{±1} have 0; words add."""
    if isinstance(word, str):
        word = (word,)
    table = {"e": -wp.s, "f": wp.s, "k": 0, "kinv": 0}
    return sum(table[letter] for letter in word)


def spinor_degree(wp: WeightPair, i: int, sign: str) -> int:
    """Order of the spin-1/2 basis vectors under the lifted coaction indexed by i.

    e_+ is homogeneous of order i and e_- of order i + k + l; the fixed
    choice downstream is i = -k, giving orders (-k, l).
    """
    if sign in ("+", "plus", "up"):
        return i
    if sign in ("-", "minus", "down"):
        return i + wp.s
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def coinvariant_coord_basis(wp: WeightPair, lam_max) -> list[BasisIndex]:
    """Degree-0 basis: indices (lam, p(l+k), p(l-k)) over half-integer p.

    |p(l-k)| <= |p(l+k)| <= lam, so the window on m alone bounds n too.
    """
    lam_max = hi(lam_max)
    return [
        BasisIndex.doubled(tl, tp * wp.s, tp * (wp.l - wp.k))
        for tl in range(0, lam_max.twice + 1)
        for tp in _p_window(wp, -tl, tl, tl)
    ]
