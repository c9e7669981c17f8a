"""q-arithmetic and the finite dimensional representation theory of U_q(su2).

Weights live in (1/2)Z and are kept exact by storing twice their value as an
integer (:class:`~qwps.exact.HalfInt`).  The deformation parameter q and the
numeric tolerance travel together in a :class:`~qwps.exact.QContext`; every
module downstream takes its q from there.

The irreducible module of highest weight lam has the ordered weight basis
u_{lam,-lam}, ..., u_{lam,lam} and the generators act in ladder form

    e . u_m = sqrt([lam-m][lam+m+1]) u_{m+1}
    f . u_m = sqrt([lam-m+1][lam+m]) u_{m-1}
    k . u_m = q^m u_m

with the q-integer [n] = (q^n - q^-n)/(q - q^-1).  Matrices act on column
vectors; a generator word evaluates to the matrix product in word order.
:func:`irrep_word` builds them afresh on each call, for a single letter as for
a word, from :func:`raising_bands`, the e band as lists; every band reads its
sqrt([n]) from one :func:`q_roots` list.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .exact import HalfInt, QContext, hi, nonneg_hi

__all__ = [
    "LETTERS",
    "COPRODUCT",
    "q_int",
    "antipode_letter",
    "theta_letter",
    "star_antipode_letter",
    "weight_range",
    "q_roots",
    "raising_bands",
    "irrep_word",
    "coproduct_action",
]

LETTERS = ("e", "f", "k", "kinv")
# Delta(letter) in Sweedler form, the sum of x1 ⊗ x2 over its pairs
COPRODUCT = {
    "e": (("e", "k"), ("kinv", "e")),
    "f": (("f", "k"), ("kinv", "f")),
    "k": (("k", "k"),),
    "kinv": (("kinv", "kinv"),),
}


def q_int(n, ctx: QContext) -> float:
    """q-integer [n] = (q^n - q^-n)/(q - q^-1); odd in n, positive for n > 0."""
    if not isinstance(n, int):  # a HalfInt, or a float that is one
        n = hi(n)
        if not n.is_integer():
            raise ValueError(f"q_int expects an integer, got {n}")
        n = n.as_int()
    q = ctx.q
    try:
        return (q**n - q**-n) / (q - 1.0 / q)
    except OverflowError:
        raise ValueError(f"q = {q:g}: the q-integer [{n}] overflows a double") from None


def antipode_letter(letter: str, ctx: QContext):
    """Antipode on a generator letter, as (scalar, letter).

    S(k) = k^-1, S(k^-1) = k, S(e) = -q e, S(f) = -q^-1 f.
    """
    q = ctx.q
    return {
        "e": (-q, "e"),
        "f": (-1.0 / q, "f"),
        "k": (1.0, "kinv"),
        "kinv": (1.0, "k"),
    }[letter]


def theta_letter(letter: str):
    """The coproduct-restoring automorphism: theta(k^±1) = k^∓1, theta(e) = -f, theta(f) = -e."""
    return {
        "e": (-1.0, "f"),
        "f": (-1.0, "e"),
        "k": (1.0, "kinv"),
        "kinv": (1.0, "k"),
    }[letter]


def star_antipode_letter(letter: str, ctx: QContext):
    """(S(letter))* as (scalar, letter): the antipode, then e* = f, f* = e,
    k* = k; the scalars are real, so the star leaves them unchanged."""
    scalar, image = antipode_letter(letter, ctx)
    return scalar, {"e": "f", "f": "e", "k": "k", "kinv": "kinv"}[image]


def weight_range(lam) -> list[HalfInt]:
    """Weights -lam, -lam+1, ..., lam in basis order."""
    lam = hi(lam)
    return [HalfInt(t) for t in range(-lam.twice, lam.twice + 1, 2)]


def q_roots(top: int, ctx: QContext) -> list[float]:
    """sqrt([n]) at index n for n = 0, ..., top, with sqrt([0]) = 0.

    The list is built from n = top down, so an overflow names [top].
    """
    roots = [math.sqrt(q_int(n, ctx)) for n in range(top, 0, -1)]
    roots.append(0.0)
    roots.reverse()
    return roots


def raising_bands(lams, ctx: QContext) -> list[list[float]]:
    """The band of rho_lam(e) for each highest weight lam in ``lams``: entry i
    is sqrt([lam-m]) sqrt([lam+m+1]) at m = -lam + i, i < 2 lam, so
    rho_lam(e) = diag(band, -1) and rho_lam(f) = diag(band, 1).

    One :func:`q_roots` list, to the largest 2 lam, serves every lam of the call.
    """
    twice = [nonneg_hi(lam, "highest weight").twice for lam in lams]
    roots = q_roots(max(twice, default=0), ctx)
    return [[roots[tl - i] * roots[i + 1] for i in range(tl)] for tl in twice]


def irrep_word(lam, word, ctx: QContext) -> np.ndarray:
    """Product of generator matrices in word order; the empty word is the identity.

    Basis ordered u_{lam,-lam}, ..., u_{lam,lam}; e populates the (i+1, i)
    line, f the (i-1, i) line, k the diagonal q^m.  The matrices are real.
    The band is read once per word, at its first e or f; each letter is built
    in word order and multiplied in from the right.
    """
    lam = hi(lam)
    word = (word,) if isinstance(word, str) else tuple(word)
    for letter in word:
        if letter not in LETTERS:
            raise ValueError(f"unknown generator letter {letter!r}")
    tl = nonneg_hi(lam, "highest weight").twice
    out = band = None
    for letter in word:
        if letter in ("e", "f"):
            if band is None:
                band = raising_bands([lam], ctx)[0]
            mat = np.diag(band, -1 if letter == "e" else 1)
        else:
            sign = 1 if letter == "k" else -1
            mat = np.diag([ctx.q ** (sign * t / 2) for t in range(-tl, tl + 1, 2)])
        out = mat if out is None else out @ mat
    return np.eye(tl + 1) if out is None else out


def coproduct_action(lam1, lam2, letter: str, ctx: QContext) -> np.ndarray:
    """(rho_lam1 ⊗ rho_lam2)(Delta(letter)) on the lexicographic tensor basis,
    summed over the pairs of :data:`COPRODUCT` in their order:
    Delta(k^±1) = k^±1 ⊗ k^±1 and Delta(e) = e ⊗ k + k^-1 ⊗ e (same shape for f).
    """
    if letter not in COPRODUCT:
        raise ValueError(f"unknown generator letter {letter!r}")
    terms = [np.kron(irrep_word(lam1, x1, ctx), irrep_word(lam2, x2, ctx))
             for x1, x2 in COPRODUCT[letter]]
    return reduce(np.add, terms)
