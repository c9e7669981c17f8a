"""Exact weights, q-integers and the ladder-form irreducible matrices."""

import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwps.exact import HalfInt, QContext, hi, residual_max
from qwps.qcore import (
    LETTERS,
    antipode_letter,
    coproduct_action,
    irrep_word,
    q_int,
    star_antipode_letter,
    weight_range,
    word_shift,
)

Q_VALUES = (0.3, 0.5, 0.8)
LAMBDAS = [hi(t / 2) for t in range(0, 7)]


def ctx_for(q):
    return QContext(q, 1e-9)


# ---------------------------------------------------------------------------
# the residual max every report takes


def test_residual_max_propagates_nan():
    assert residual_max([]) == 0.0
    for values in ([1.0, math.nan], [math.nan, 1.0], [0.0, 2.0, math.nan, 3.0]):
        assert math.isnan(residual_max(values))
        assert math.isnan(residual_max(iter(values)))
    assert residual_max([1.0, math.inf, 2.0]) == math.inf


def test_residual_max_is_max_without_nan():
    # the first largest value itself, as max returns it, so reports keep their types
    half, zero = np.float64(0.5), np.float64(0.0)
    for values in ([0.5, 2.0, 1.0], [half, 0.5], [0.5, half], [zero, 0.0], [1e-300, 3e300]):
        result = residual_max(values)
        assert result == max(values)
        assert type(result) is type(max([0.0, *values]))


# ---------------------------------------------------------------------------
# HalfInt


ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-25, 25))
@example(3, 3, 1)
@example(4, 3, 2)
def test_halfint_arithmetic_closed(a, b, c):
    x, y = HalfInt(a), HalfInt(b)
    assert (x + y).twice == a + b
    assert (x - y).twice == a - b
    assert (-x).twice == -a
    # all six comparisons, against a HalfInt and against an int on either side
    for op in (*ORDERINGS, operator.eq, operator.ne):
        assert op(x, y) == op(a, b)
        assert op(x, c) == op(a, 2 * c)
        assert op(c, x) == op(2 * c, a)
    for op in ORDERINGS:
        with pytest.raises(TypeError):
            op(x, 0.5)


@given(st.integers(-50, 50))
def test_halfint_integrality(a):
    x = HalfInt(a)
    assert x.is_integer() == (a % 2 == 0)
    assert float(x) == a / 2


def test_halfint_hash_agrees_with_equality():
    # 2**60 + 1 is not a double, so a hash through twice / 2 would miss it
    for n in [*range(-50, 50), 2**60 + 1, -(10**30)]:
        assert hi(n) == n and hash(hi(n)) == hash(n)
    assert len({hi(1), 1}) == 1
    assert {1: "x"}.get(hi(1)) == "x"
    assert {hi(0.5): "y"}.get(hi(0.5)) == "y"


def test_halfint_of_rejects_non_half_integer():
    # 2 * 1e308 overflows to inf, which int() cannot convert
    for value in (0.3, 1e308, -1e308, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            hi(value)


def test_halfint_str():
    assert str(hi(1.5)) == "3/2"
    assert str(hi(2)) == "2"


# ---------------------------------------------------------------------------
# QContext and q-integers


def test_qcontext_validation():
    with pytest.raises(ValueError):
        QContext(1.0, 1e-9)
    with pytest.raises(ValueError):
        QContext(0.0, 1e-9)
    with pytest.raises(ValueError):
        QContext(0.5, 0.0)
    for tol in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite"):
            QContext(0.5, tol)
    # a threshold tol >= 1 would pass a suite vacuously
    for tol in (1.0, 1e300):
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            QContext(0.5, tol)


def test_q_int_examples():
    ctx = ctx_for(0.5)
    assert q_int(0, ctx) == 0.0
    assert q_int(1, ctx) == 1.0
    assert q_int(2, ctx) == pytest.approx(2.5, abs=1e-15)  # (0.25-4)/(0.5-2)


@pytest.mark.parametrize("q", Q_VALUES)
def test_q_int_odd_and_positive(q):
    ctx = ctx_for(q)
    for n in range(1, 12):
        assert q_int(n, ctx) > 0
        assert q_int(-n, ctx) == pytest.approx(-q_int(n, ctx), abs=1e-12)


def test_q_int_classical_limit():
    ctx = QContext(0.999, 1e-9)
    for n in range(1, 11):
        assert abs(q_int(n, ctx) - n) < 0.01


# ---------------------------------------------------------------------------
# irreducible representation matrices


def test_irrep_trivial_module_is_counit():
    ctx = ctx_for(0.5)
    for g, eps in (("e", 0.0), ("f", 0.0), ("k", 1.0), ("kinv", 1.0)):
        mat = irrep_word(hi(0), g, ctx)
        assert mat.shape == (1, 1)
        assert mat[0, 0] == pytest.approx(eps)


def test_irrep_k_spin_half():
    ctx = ctx_for(0.5)
    mat = irrep_word(hi(0.5), "k", ctx)
    # ascending basis u_{-1/2}, u_{1/2}: diag(q^{-1/2}, q^{1/2})
    assert mat[0, 0] == pytest.approx(np.sqrt(2.0))
    assert mat[1, 1] == pytest.approx(1 / np.sqrt(2.0))
    assert abs(mat[0, 1]) == 0 and abs(mat[1, 0]) == 0


def test_irrep_e_spin_half_single_entry():
    ctx = ctx_for(0.5)
    mat = irrep_word(hi(0.5), "e", ctx)
    # maps u_{-1/2} to u_{+1/2} with coefficient sqrt([1][1]) = 1
    assert mat[1, 0] == pytest.approx(1.0)
    assert np.abs(mat).sum() == pytest.approx(1.0)


def test_irrep_rejects_negative_weight():
    with pytest.raises(ValueError):
        irrep_word(hi(-0.5), "e", ctx_for(0.5))
    with pytest.raises(ValueError):
        irrep_word(hi(1), "x", ctx_for(0.5))


@pytest.mark.parametrize("q", Q_VALUES)
@pytest.mark.parametrize("lam", LAMBDAS)
def test_defining_relations(q, lam):
    ctx = ctx_for(q)
    e = irrep_word(lam, "e", ctx)
    f = irrep_word(lam, "f", ctx)
    k = irrep_word(lam, "k", ctx)
    kinv = irrep_word(lam, "kinv", ctx)
    tol = ctx.tol
    assert np.abs(k @ e - q * e @ k).max() < tol
    assert np.abs(k @ f - f @ k / q).max() < tol
    lhs = e @ f - f @ e
    rhs = (k @ k - kinv @ kinv) / (q - 1 / q)
    assert np.abs(lhs - rhs).max() < tol
    eye = np.eye(lam.twice + 1)
    assert np.abs(k @ kinv - eye).max() < tol
    assert np.abs(kinv @ k - eye).max() < tol


@pytest.mark.parametrize("lam", LAMBDAS)
def test_e_f_conjugate_transpose(lam):
    ctx = ctx_for(0.5)
    e = irrep_word(lam, "e", ctx)
    f = irrep_word(lam, "f", ctx)
    assert np.abs(e.conj().T - f).max() < 1e-12


def test_e_ladder_line_positions():
    # e populates only the (i+1, i) line, f only (i-1, i), pinned by the
    # column-vector convention of the pairing values
    ctx = ctx_for(0.5)
    lam = hi(1.5)
    e = irrep_word(lam, "e", ctx)
    f = irrep_word(lam, "f", ctx)
    d = lam.twice + 1
    for i in range(d):
        for j in range(d):
            if i != j + 1:
                assert e[i, j] == 0
            if i != j - 1:
                assert f[i, j] == 0


def test_irrep_word_examples():
    ctx = ctx_for(0.5)
    assert np.abs(irrep_word(hi(0.5), ("k", "kinv"), ctx) - np.eye(2)).max() < 1e-15
    assert np.abs(irrep_word(hi(0.5), (), ctx) - np.eye(2)).max() == 0
    comm = irrep_word(hi(0.5), ("e", "f"), ctx) - irrep_word(hi(0.5), ("f", "e"), ctx)
    k2 = irrep_word(hi(0.5), ("k", "k"), ctx)
    kinv2 = irrep_word(hi(0.5), ("kinv", "kinv"), ctx)
    assert np.abs(comm - (k2 - kinv2) / (0.5 - 2.0)).max() < 1e-12
    assert np.abs(irrep_word(hi(1), ("e", "e", "e"), ctx)).max() == 0


def reference_letter(lam: HalfInt, letter: str, ctx: QContext) -> np.ndarray:
    """One generator's matrix filled entry by entry from the ladder formulas."""
    d = lam.twice + 1
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
    return out


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1e-3])
def test_irrep_word_is_bitwise_the_entrywise_reference(q):
    # every word of up to 3 letters, 2 lam <= 40: the reference letters
    # multiplied left to right, the empty word the identity
    ctx = ctx_for(q)
    words = [w for r in range(4) for w in itertools.product(LETTERS, repeat=r)]
    for tl in range(41):
        lam = HalfInt(tl)
        letters = {letter: reference_letter(lam, letter, ctx) for letter in LETTERS}
        for word in words:
            want = np.eye(tl + 1) if not word else letters[word[0]]
            for letter in word[1:]:
                want = want @ letters[letter]
            got = irrep_word(lam, word, ctx)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), (tl, word)


@pytest.mark.parametrize("q", Q_VALUES)
def test_irrep_word_is_the_product_of_its_letters(q):
    ctx = ctx_for(q)
    words = [(), ("e",), ("f", "kinv"), ("e", "f", "k"), ("kinv", "kinv", "f", "e")]
    words += [(letter,) for letter in LETTERS]
    for lam in LAMBDAS:
        for word in words:
            fresh = np.eye(lam.twice + 1)
            for letter in word:
                fresh = fresh @ irrep_word(lam, letter, ctx)
            calls = [irrep_word(lam, list(word), ctx)]
            if len(word) == 1:  # a bare letter is the one-letter word
                calls.append(irrep_word(lam, word[0], ctx))
            for got in calls:
                assert got.dtype == np.float64 and got.tobytes() == fresh.tobytes()


def test_raising_bands_are_the_e_lines():
    # the band sqrt([lam-m]) sqrt([lam+m+1]) is e's shift and f's, and their lines
    ctx = ctx_for(0.5)
    for lam in [hi(2), hi(0), hi(0.5), hi(3.5)]:
        band = [math.sqrt(q_int(lam - m, ctx)) * math.sqrt(q_int(lam + m + 1, ctx))
                for m in weight_range(lam)[:-1]]
        assert word_shift(lam, "e", ctx) == (1, band + [0.0])
        assert word_shift(lam, "f", ctx) == (-1, [0.0] + band)
        assert band == irrep_word(lam, "e", ctx).diagonal(-1).tolist()
        assert band == irrep_word(lam, "f", ctx).diagonal(1).tolist()


def test_irrep_word_overflow_names_the_top_q_integer():
    # sqrt([n]) is read from n = 2 lam down, so the overflow names the largest
    # q-integer of the word, [2 lam]
    with pytest.raises(ValueError, match=r"the q-integer \[4\] overflows a double"):
        irrep_word(2, "e", QContext(1e-120, 1e-9))


@pytest.mark.parametrize("word, message", [
    ("kinv", r"q = 1e-120: q\^\(-4\) overflows a double"),
    (("k", "e"), r"q = 1e-120: the q-integer \[8\] overflows a double"),
    (("e", "k"), r"q = 1e-120: the q-integer \[8\] overflows a double"),
])
def test_word_overflow_is_named_whatever_the_letter_order(word, message):
    # both q^-4 and [8] overflow; the band is read before the powers of q, in any letter order
    for build in (word_shift, irrep_word):
        with pytest.raises(ValueError, match=message):
            build(4, word, QContext(1e-120, 1e-9))


# ---------------------------------------------------------------------------
# coproduct action


def test_coproduct_k_is_kron():
    ctx = ctx_for(0.5)
    lhs = coproduct_action(hi(1), hi(0.5), "k", ctx)
    rhs = np.kron(irrep_word(hi(1), "k", ctx), irrep_word(hi(0.5), "k", ctx))
    assert np.abs(lhs - rhs).max() == 0


def test_coproduct_counit_leg():
    ctx = ctx_for(0.5)
    for g in ("e", "f", "k", "kinv"):
        lhs = coproduct_action(hi(1), hi(0), g, ctx)
        assert np.abs(lhs - irrep_word(hi(1), g, ctx)).max() < 1e-15


def test_coproduct_e_rank_two():
    ctx = ctx_for(0.5)
    mat = coproduct_action(hi(0.5), hi(0.5), "e", ctx)
    assert np.linalg.matrix_rank(mat) == 2


@pytest.mark.parametrize("g", ["e", "f", "k", "kinv"])
def test_coproduct_coassociative_desk_scale(g):
    # both triple actions on M_1/2 ⊗ M_1/2 ⊗ M_1/2 agree
    ctx = ctx_for(0.5)
    h = hi(0.5)
    r = lambda letter: irrep_word(h, letter, ctx)  # noqa: E731
    cop = lambda letter: coproduct_action(h, h, letter, ctx)  # noqa: E731
    if g in ("k", "kinv"):
        lhs = np.kron(cop(g), r(g))
        rhs = np.kron(r(g), cop(g))
    else:
        lhs = np.kron(cop(g), r("k")) + np.kron(cop("kinv"), r(g))
        rhs = np.kron(r(g), cop("k")) + np.kron(r("kinv"), cop(g))
    assert np.abs(lhs - rhs).max() < ctx.tol


def test_star_antipode_letter():
    # (S(x))* of each letter: S(e) = -q e, S(f) = -f/q, S(k^±1) = k^∓1, then e* = f
    for q in Q_VALUES:
        ctx = ctx_for(q)
        assert star_antipode_letter("e", ctx) == (-q, "f")
        assert star_antipode_letter("f", ctx) == (-1.0 / q, "e")
        assert star_antipode_letter("k", ctx) == (1.0, "kinv")
        assert star_antipode_letter("kinv", ctx) == (1.0, "k")
        for letter in LETTERS:
            assert star_antipode_letter(letter, ctx)[0] == antipode_letter(letter, ctx)[0]


def test_weight_range_order():
    assert [w.twice for w in weight_range(hi(1))] == [-2, 0, 2]
