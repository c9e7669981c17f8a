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
:func:`irrep_word` is the one way to read them, for a single letter as for a
word: it is memoized and returns its arrays read-only.
"""

from __future__ import annotations

import math
import threading
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
    n = hi(n)
    if not n.is_integer():
        raise ValueError(f"q_int expects an integer, got {n}")
    q = ctx.q
    m = n.as_int()
    try:
        return (q**m - q**-m) / (q - 1.0 / q)
    except OverflowError:
        raise ValueError(f"q = {q:g}: the q-integer [{m}] overflows a double") from None


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


_word_cache: dict = {}
_memo_lock = threading.Lock()


def _memo(store: dict, key, build, *args):
    """``store[key]``, set to ``build(*args)`` on a miss.  The lock guards the
    dict only, so builds may nest; of two racing builds, the first stored wins."""
    with _memo_lock:
        value = store.get(key)
    if value is None:
        value = build(*args)
        with _memo_lock:
            value = store.setdefault(key, value)
    return value


def _as_word(word) -> tuple[str, ...]:
    word = (word,) if isinstance(word, str) else tuple(word)
    for letter in word:
        if letter not in LETTERS:
            raise ValueError(f"unknown generator letter {letter!r}")
    return word


def irrep_word(lam, word, ctx: QContext) -> np.ndarray:
    """Product of generator matrices in word order; the empty word is the identity.

    Basis ordered u_{lam,-lam}, ..., u_{lam,lam}; e populates the (i+1, i)
    line, f the (i-1, i) line, k the diagonal q^m.  The matrices are real.
    Memoized on (2 lam, word, q): a one-letter word is built here, a longer
    one from the memo's one-letter entries.  The shared product is returned
    read-only, so a caller that writes must copy it.
    """
    lam = hi(lam)
    word = _as_word(word)
    return _memo(_word_cache, (lam.twice, word, ctx.q), _build_word, lam, word, ctx)


def _build_word(lam: HalfInt, word: tuple, ctx: QContext) -> np.ndarray:
    d = nonneg_hi(lam, "highest weight").twice + 1  # a miss for any negative key
    if len(word) == 1:
        letter = word[0]
        out = np.zeros((d, d))
        for i, m in enumerate(weight_range(lam)):
            if letter == "k":
                out[i, i] = ctx.q ** m.float
            elif letter == "kinv":
                out[i, i] = ctx.q ** (-m.float)
            elif letter == "e":
                if i + 1 < d:
                    out[i + 1, i] = math.sqrt(q_int(lam - m, ctx)) * math.sqrt(q_int(lam + m + 1, ctx))
            elif i - 1 >= 0:  # f
                out[i - 1, i] = math.sqrt(q_int(lam - m + 1, ctx)) * math.sqrt(q_int(lam + m, ctx))
    else:
        out = irrep_word(lam, word[0], ctx) if word else np.eye(d)
        for letter in word[1:]:
            out = out @ irrep_word(lam, letter, ctx)
    out.flags.writeable = False
    return out


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
