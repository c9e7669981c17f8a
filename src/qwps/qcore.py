"""q-arithmetic and the finite dimensional representation theory of U_q(su2).

Weights live in (1/2)Z and are kept exact as twice their value, an int that
:func:`~qwps.exact.twice` reads at each public entry.  The deformation
parameter q and the numeric tolerance travel together in a
:class:`~qwps.exact.QContext`; every module downstream takes its q from there.

The irreducible module of highest weight lam has the ordered weight basis
u_{lam,-lam}, ..., u_{lam,lam} and the generators act in ladder form

    e . u_m = sqrt([lam-m][lam+m+1]) u_{m+1}
    f . u_m = sqrt([lam-m+1][lam+m]) u_{m-1}
    k . u_m = q^m u_m

with the q-integer [n] = (q^n - q^-n)/(q - q^-1).  Matrices act on column
vectors; a generator word evaluates to the matrix product in word order.
Every word is a weighted shift u_m -> c_m u_{m + #e - #f}; :func:`word_shift`
states it once, reading the e band from one :func:`q_roots` list of sqrt([n]),
and :func:`irrep_word` is that shift laid out as a dense matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .exact import QContext, twice
from .exact import HalfInt, hi  # noqa: F401  (bench/ reads them here)

__all__ = [
    "LETTERS",
    "COPRODUCT",
    "q_int",
    "antipode_letter",
    "theta_letter",
    "star_antipode_letter",
    "q_roots",
    "word_shift",
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
    if not isinstance(n, int):  # a float or a Fraction that is one
        t = twice(n)
        if t % 2:
            raise ValueError(f"q_int expects an integer, got {Fraction(t, 2)}")
        n = t // 2
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


def q_roots(top: int, ctx: QContext) -> list[float]:
    """sqrt([n]) at index n for n = 0, ..., top, with sqrt([0]) = 0.

    The list is built from n = top down, so an overflow names [top].
    """
    roots = [math.sqrt(q_int(n, ctx)) for n in range(top, 0, -1)]
    roots.append(0.0)
    roots.reverse()
    return roots


def word_shift(lam, word, ctx: QContext, scalars=None) -> tuple[int, list[float]]:
    """rho_lam(word) as the weighted shift u_i -> coeffs[i] u_{i+shift}, i = lam + m,
    shift = #e - #f, coeffs[i] = 0 where i + shift leaves the basis.  The letters
    fold in word order, as the dense product associates, so each coefficient is
    its matrix entry to the bit: a letter's factor m (the e band for e and f,
    q^{±m} for k^{±1}), times its entry of ``scalars`` first if given, takes c to
    c * m.  Every factor is read first, so an overflow is named in any letter order.
    """
    word = (word,) if isinstance(word, str) else tuple(word)
    for letter in word:
        if letter not in LETTERS:
            raise ValueError(f"unknown generator letter {letter!r}")
    tl = twice(lam, "highest weight")
    q, shift, coeffs = ctx.q, 0, [1.0] * (tl + 1)
    if "e" in word or "f" in word:  # sqrt([lam-m]) sqrt([lam+m+1]) at i = lam + m < 2 lam
        roots = q_roots(tl, ctx)
        band = [roots[tl - j] * roots[j + 1] for j in range(tl)]
    if "k" in word or "kinv" in word:
        try:
            powers = [q ** (t / 2) for t in range(-tl, tl + 1, 2)]  # q^m; q^-m reversed
        except OverflowError:  # q < 1, so q^-lam is the largest power
            raise ValueError(f"q = {q:g}: q^(-{Fraction(tl, 2)}) overflows a double") from None
    for i, letter in enumerate(word):
        factors = band if letter in ("e", "f") else powers if letter == "k" else powers[::-1]
        if scalars is not None:
            factors = [scalars[i] * m for m in factors]
        if letter == "e":
            shift, coeffs = shift + 1, [c * m for c, m in zip(coeffs[1:], factors)] + [0.0]
        elif letter == "f":
            shift, coeffs = shift - 1, [0.0] + [c * m for c, m in zip(coeffs, factors)]
        else:
            coeffs = [c * m for c, m in zip(coeffs, factors)]
    return shift, coeffs


def irrep_word(lam, word, ctx: QContext) -> np.ndarray:
    """rho_lam(word) as a dense real matrix on u_{lam,-lam}, ..., u_{lam,lam}:
    the :func:`word_shift` coefficients on the -shift diagonal, entry (i + shift, i)."""
    shift, coeffs = word_shift(lam, word, ctx)
    d = len(coeffs)
    if abs(shift) >= d:
        return np.zeros((d, d))
    return np.diag(coeffs[max(-shift, 0):d - max(shift, 0)], -shift)


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
