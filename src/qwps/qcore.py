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
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .exact import HalfInt, QContext, hi

__all__ = [
    "LETTERS",
    "q_int",
    "q_sqrt_int",
    "antipode_letter",
    "theta_letter",
    "star_antipode_letter",
    "weight_range",
    "irrep_matrix",
    "irrep_word",
    "dual_irrep_matrix",
    "coproduct_action",
]

LETTERS = ("e", "f", "k", "kinv")


def q_int(n, ctx: QContext) -> float:
    """q-integer [n] = (q^n - q^-n)/(q - q^-1); odd in n, positive for n > 0."""
    n = hi(n)
    if not n.is_integer():
        raise ValueError(f"q_int expects an integer, got {n}")
    q = ctx.q
    m = n.as_int()
    return (q**m - q**-m) / (q - 1.0 / q)


def q_sqrt_int(n, ctx: QContext) -> float:
    """sqrt([n]); ladder coefficients are products of these."""
    v = q_int(n, ctx)
    if v < 0:
        raise ValueError(f"[{n}] = {v} < 0, square root undefined")
    return math.sqrt(v)


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
    """(S(letter))* as (scalar, letter), using e* = f, f* = e, k* = k."""
    q = ctx.q
    return {
        "e": (-q, "f"),
        "f": (-1.0 / q, "e"),
        "k": (1.0, "kinv"),
        "kinv": (1.0, "k"),
    }[letter]


def weight_range(lam) -> list[HalfInt]:
    """Weights -lam, -lam+1, ..., lam in basis order."""
    lam = hi(lam)
    return [HalfInt(t) for t in range(-lam.twice, lam.twice + 1, 2)]


def _check_highest_weight(lam) -> HalfInt:
    lam = hi(lam)
    if lam.twice < 0:
        raise ValueError(f"highest weight must be >= 0, got {lam}")
    return lam


_word_cache: dict = {}
_irrep_lock = threading.Lock()


def irrep_matrix(lam, letter: str, ctx: QContext) -> np.ndarray:
    """Matrix of the generator on the highest-weight-lam module (column convention).

    Basis ordered u_{lam,-lam}, ..., u_{lam,lam}; e populates the (i+1, i)
    line, f the (i-1, i) line, k the diagonal q^m.  Shared with the one-letter
    word of :func:`irrep_word`'s memo and read-only, so a caller that writes
    must copy it.
    """
    lam = _check_highest_weight(lam)
    if letter not in LETTERS:
        raise ValueError(f"unknown generator letter {letter!r}")
    key = (lam.twice, (letter,), ctx.q)
    with _irrep_lock:
        cached = _word_cache.get(key)
    if cached is not None:
        return cached

    weights = weight_range(lam)
    d = len(weights)
    mat = np.zeros((d, d), dtype=complex)
    for i, m in enumerate(weights):
        if letter == "k":
            mat[i, i] = ctx.q ** m.float
        elif letter == "kinv":
            mat[i, i] = ctx.q ** (-m.float)
        elif letter == "e":
            if i + 1 < d:
                mat[i + 1, i] = q_sqrt_int(lam - m, ctx) * q_sqrt_int(lam + m + 1, ctx)
        elif letter == "f":
            if i - 1 >= 0:
                mat[i - 1, i] = q_sqrt_int(lam - m + 1, ctx) * q_sqrt_int(lam + m, ctx)
    mat.flags.writeable = False
    with _irrep_lock:
        return _word_cache.setdefault(key, mat)


def _as_word(word) -> tuple[str, ...]:
    if isinstance(word, str):
        return (word,)
    out = []
    for item in word:
        if isinstance(item, str):
            out.append(item)
        else:  # (letter, exponent) pairs are accepted as well
            letter, exp = item
            if exp < 1:
                raise ValueError(f"exponent must be >= 1, got {exp}")
            out.extend([letter] * exp)
    for letter in out:
        if letter not in LETTERS:
            raise ValueError(f"unknown generator letter {letter!r}")
    return tuple(out)


def irrep_word(lam, word, ctx: QContext) -> np.ndarray:
    """Product of generator matrices in word order; the empty word is the identity.

    Memoized on (2 lam, word, q), in the memo that also holds the generator
    matrices; the shared product is returned read-only, so a caller that
    writes must copy it.
    """
    lam = _check_highest_weight(lam)
    word = _as_word(word)
    key = (lam.twice, word, ctx.q)
    with _irrep_lock:
        cached = _word_cache.get(key)
    if cached is not None:
        return cached
    out = irrep_matrix(lam, word[0], ctx) if word else np.eye(lam.twice + 1, dtype=complex)
    for letter in word[1:]:
        out = out @ irrep_matrix(lam, letter, ctx)
    out.flags.writeable = False
    with _irrep_lock:
        return _word_cache.setdefault(key, out)


def dual_irrep_matrix(lam, letter: str, ctx: QContext) -> np.ndarray:
    """Dual representation (rho_lam(S(letter)))^t on the dual weight basis."""
    coeff, mapped = antipode_letter(letter, ctx)
    return coeff * irrep_matrix(lam, mapped, ctx).T


def coproduct_action(lam1, lam2, letter: str, ctx: QContext) -> np.ndarray:
    """(rho_lam1 ⊗ rho_lam2)(Delta(letter)) on the lexicographic tensor basis.

    Delta(k^±1) = k^±1 ⊗ k^±1 and Delta(e) = e ⊗ k + k^-1 ⊗ e (same shape
    for f).
    """
    r1 = lambda g: irrep_matrix(lam1, g, ctx)  # noqa: E731
    r2 = lambda g: irrep_matrix(lam2, g, ctx)  # noqa: E731
    if letter in ("k", "kinv"):
        return np.kron(r1(letter), r2(letter))
    if letter in ("e", "f"):
        return np.kron(r1(letter), r2("k")) + np.kron(r1("kinv"), r2(letter))
    raise ValueError(f"unknown generator letter {letter!r}")
