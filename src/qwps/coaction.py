"""Circle grading of the quantum SU(2) algebra for a coprime weight pair.

The coaction by the circle algebra is equivalent to the integer grading

    deg t^lam_{mn} = -(m+n) k + (m-n) l,

so the generators satisfy deg(alpha) = -k and deg(beta) = l.  The degree-zero
subalgebra is the quantum weighted projective algebra; it is generated by
a = beta beta* and b = beta^k alpha^l, and this module evaluates the defining
relations stated by :func:`qwps.exact.wp_relations` inside the coordinate
algebra and enumerates its orthogonal basis.
The eigenspace dimension formulas and their counting oracles live in
:mod:`qwps.exact`.  The coinvariant spinors are the ambient spinor labels that
:func:`qwps.dirac.coinvariant_spinor_basis` lists with the same p-window.
"""

from __future__ import annotations

from contextlib import suppress
from functools import cache, reduce

from .cg import cg_blocks
from .coord import AlgebraElement, BasisIndex, gens, multiply, star, unit
from .exact import QContext, WeightPair, _p_window, residual_max, twice, wp_relations, wp_words
# bench/ reads the five dimension functions under this module's name
from .exact import dim_V, dim_V_down, dim_V_oracle  # noqa: F401
from .exact import dim_V_down_oracle, dim_V_up_oracle  # noqa: F401

__all__ = [
    "degree",
    "wp_gens",
    "verify_wp_relations",
    "spinor_degree",
    "coinvariant_coord_basis",
]

# b = beta^k alpha^l is one matrix element, so the check is cheap (0.35 s at (7, 13), 2 cores),
# but rounding in the right-hand sides grows as q^{-l(l-1)}: at q = 0.5 the max residual is
# 5.5e-4 at the edge (1, 7) and 1.1e31 at (7, 13).  verify_wp_relations refuses k + l beyond this
WP_RELATION_GUARD = 8


def degree(wp: WeightPair, idx: BasisIndex) -> int:
    """Homogeneity order -(m+n)k + (m-n)l of a basis matrix element."""
    _, tm, tn = idx
    t = -(tm + tn) * wp.k + (tm - tn) * wp.l
    assert t % 2 == 0
    return t // 2


def wp_gens(wp: WeightPair, ctx: QContext):
    """Generators a = beta beta*, b = beta^k alpha^l of the degree-0 subalgebra,
    the words of :func:`qwps.exact.wp_words` multiplied left to right.

    Each prefix of b is one matrix element of spin i/2, so the product reads the
    blocks (2lam1, 2lam2) = (i, 1), i < k + l; one call builds them in batches
    first.  A block refused there (an overflowing q-integer) is left to the
    product, which reads it only if its prefix has not underflowed to zero, so
    every refusal is the product's."""
    with suppress(ValueError):
        cg_blocks([(i, 1) for i in range(1, wp.s)], ctx)
    letters = dict(zip(("alpha", "beta", "alphastar", "betastar"), gens(ctx)))
    return tuple(reduce(lambda x, y: multiply(x, y, ctx), map(letters.get, word))
                 for word in wp_words(wp.k, wp.l)[:2])


def _poly_in(a: AlgebraElement, factors, ctx: QContext) -> AlgebraElement:
    """Product of (1 + c*a) style factors given as scalars c."""
    out = unit()
    for c in factors:
        out = multiply(out, unit() + c * a, ctx)
    return out


@cache  # WP_RELATION_GUARD bounds the weight pairs it sees
def _wp_relation_blocks(k: int, l: int) -> tuple:
    """Every block (2lam1, 2lam2) the products of :func:`verify_wp_relations`
    read at (k, l): the chain (i, 1), i < k + l, of b = beta^k alpha^l;
    a = beta beta* and a^j, j <= k or l, are degree 0 with every shell
    lam <= j, and b, b* have the one shell (k + l)/2.  So a b* and b* a read
    (0 or 2, k + l) and its mirror, b* b and b b* read (k + l, k + l), each
    step of a^k and of the products of the l factors (1 + f a) reads
    (2i, 0 or 2) with i < max(k, l), and a^k times those products reads
    (2i, 2j), i <= k, j <= l."""
    s = k + l
    return tuple(dict.fromkeys([
        *((i, 1) for i in range(1, s)),
        (0, s), (2, s), (s, 0), (s, 2), (s, s),
        *((2 * i, t) for i in range(max(k, l)) for t in (0, 2)),
        *((2 * i, 2 * j) for i in range(k + 1) for j in range(l + 1)),
    ]))


def verify_wp_relations(wp: WeightPair, ctx: QContext) -> dict:
    """Residuals of the relations of :func:`qwps.exact.wp_relations`, computed in coord.

    Every block the products read is asked for in one :func:`~qwps.cg.cg_blocks`
    call first, so a cold check builds them in a few batches.  A block refused
    there is left to the product that reads it, as in :func:`wp_gens`, so every
    refusal is the product's.  Refuses k + l beyond WP_RELATION_GUARD, and the q
    that wp_relations refuses."""
    if wp.s > WP_RELATION_GUARD:
        raise ValueError(
            f"k + l = {wp.s} exceeds the guard {WP_RELATION_GUARD}; "
            "rounding in the right-hand sides grows as q^(-l(l-1)), so the residuals would "
            "measure rounding, not the relations"
        )
    with suppress(ValueError):
        cg_blocks(_wp_relation_blocks(wp.k, wp.l), ctx)
    a, b = wp_gens(wp, ctx)
    bs = star(b, ctx)
    r, s, f_bsb, f_bbs = wp_relations(wp.k, wp.l, ctx.q)

    def mul(*xs):
        return reduce(lambda u, v: multiply(u, v, ctx), xs)

    a_pow_k = mul(*[a] * wp.k)
    rhs_bsb = mul(s * a_pow_k, _poly_in(a, f_bsb, ctx))
    rhs_bbs = mul(a_pow_k, _poly_in(a, f_bbs, ctx))
    residuals = {
        "a_selfadjoint": (star(a, ctx) - a).norm_inf(),
        "a_bstar": (mul(a, bs) - r * mul(bs, a)).norm_inf(),
        "bstar_b": (mul(bs, b) - rhs_bsb).norm_inf(),
        "b_bstar": (mul(b, bs) - rhs_bbs).norm_inf(),
    }
    residuals["max"] = residual_max(residuals.values())
    return residuals


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
    return [
        BasisIndex.doubled(tl, tp * wp.s, tp * (wp.l - wp.k))
        for tl in range(0, twice(lam_max) + 1)
        for tp in _p_window(wp, -tl, tl, tl)
    ]
