"""Coordinate algebra: product, star, pairing, regular actions, Haar state."""

import itertools
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwps import cg, coord
from qwps.cg import cg_block, clear_cache
from qwps.coord import (
    AlgebraElement,
    BasisIndex,
    gens,
    gram,
    haar,
    inner,
    left_act,
    multiply,
    right_act,
    star,
    to_jsonl,
    unit,
)
from qwps.exact import QContext, twice
from qwps.qcore import (
    COPRODUCT,
    LETTERS,
    antipode_letter,
    coproduct_action,
    irrep_word,
    q_int,
    star_antipode_letter,
    theta_letter,
    word_shift,
)

CTX = QContext(0.5, 1e-9)
Q_VALUES = (0.3, 0.5, 0.8)

SMALL_INDICES = [
    BasisIndex.doubled(tl, tm, tn)
    for tl in range(0, 3)
    for tm in range(-tl, tl + 1, 2)
    for tn in range(-tl, tl + 1, 2)
]

coeffs = st.complex_numbers(
    max_magnitude=2.0, allow_nan=False, allow_infinity=False
)
elements = st.dictionaries(st.sampled_from(SMALL_INDICES), coeffs, max_size=4).map(
    AlgebraElement
)


# ---------------------------------------------------------------------------
# basis indices and elements


def test_basis_index_validation():
    with pytest.raises(ValueError):
        BasisIndex(-0.5, 0, 0)
    with pytest.raises(ValueError):
        BasisIndex(1, 2, 0)
    with pytest.raises(ValueError):
        BasisIndex(1, 0.5, 0)  # parity mismatch


BAD_INDICES = [
    ((-0.5, 0, 0), "lam must be >= 0, got -1/2"),
    ((1, 2, 0), "|m| = |2| exceeds lam = 1"),
    ((1, 0.5, 0), "m = 1/2 has wrong parity for lam = 1"),
    ((1, 0, 3), "|n| = |3| exceeds lam = 1"),
    ((1.5, 0.5, 1), "n = 1 has wrong parity for lam = 3/2"),
    ((1.5, -2.5, 0.5), "|m| = |-5/2| exceeds lam = 3/2"),
]


@pytest.mark.parametrize("args, message", BAD_INDICES, ids=[str(a) for a, _ in BAD_INDICES])
def test_basis_index_rejects_bad_labels(args, message):
    # the text the dataclass-based index raised, from both constructors
    doubled = [int(2 * x) for x in args]
    for build in (lambda: BasisIndex(*args), lambda: BasisIndex.doubled(*doubled)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message


def test_basis_index_contract():
    for idx in SMALL_INDICES:
        tl, tm, tn = idx
        assert hash(idx) == hash((tl, tm, tn))
        assert all(type(x) is Fraction for x in (idx.lam, idx.m, idx.n))
        assert (twice(idx.lam), twice(idx.m), twice(idx.n)) == (tl, tm, tn)
        same = BasisIndex.doubled(tl, tm, tn)
        assert same == idx and hash(same) == hash(idx) and type(same) is BasisIndex
        assert BasisIndex(tl / 2, tm / 2, tn / 2) == idx == BasisIndex(idx.lam, idx.m, idx.n)
        assert str(idx) == f"t[{Fraction(tl, 2)};{Fraction(tm, 2)},{Fraction(tn, 2)}]"
        assert {idx: 1}[same] == 1
        for name in ("lam", "m", "n"):
            with pytest.raises(AttributeError):
                setattr(idx, name, Fraction(0, 2))
        assert pickle.loads(pickle.dumps(idx)) == idx
        assert repr(idx) == f"BasisIndex(lam={idx.lam!r}, m={idx.m!r}, n={idx.n!r})"


def test_element_drops_zeros():
    idx = BasisIndex(0.5, 0.5, 0.5)
    a = AlgebraElement({idx: 0.0})
    assert len(a) == 0 and a.norm_inf() == 0.0


def test_norm_inf_propagates_nan():
    one, other = BasisIndex(0, 0, 0), BasisIndex(0.5, 0.5, 0.5)
    for terms in ({one: 1.0, other: math.nan}, {other: math.nan, one: 1.0}):
        assert math.isnan(AlgebraElement(terms).norm_inf())


@given(elements)
def test_add_negate_roundtrip(a):
    assert ((a + (-a))).norm_inf() == 0.0
    assert ((2.0 * a) - a - a).norm_inf() < 1e-12


# ---------------------------------------------------------------------------
# generators and unit


def test_generator_terms():
    alpha, beta, alpha_s, beta_s = gens(CTX)
    assert alpha.terms == {BasisIndex(0.5, 0.5, 0.5): 1.0 + 0j}
    assert beta.terms == {BasisIndex(0.5, 0.5, -0.5): 1.0 + 0j}
    assert alpha_s.terms == {BasisIndex(0.5, -0.5, -0.5): 1.0 + 0j}
    assert beta_s.terms == {BasisIndex(0.5, -0.5, 0.5): -2.0 + 0j}  # -1/q at q = 1/2
    assert unit().terms == {BasisIndex(0, 0, 0): 1.0 + 0j}


@settings(max_examples=30)
@given(elements)
def test_unit_is_neutral(a):
    # each term picks up two unit-block coefficients, within 4.5e-16 of 1 (the
    # measured worst for 2 lam <= 40, q from 0.05 to 0.95), and two roundings
    # of 1.1e-16 in each component: sqrt(2) * (2 * 4.5e-16 + 2 * 1.1e-16) < 4 * 4.5e-16
    bound = 4 * 4.5e-16 * a.norm_inf()
    assert (multiply(unit(), a, CTX) - a).norm_inf() <= bound
    assert (multiply(a, unit(), CTX) - a).norm_inf() <= bound


def reference_multiply(a, b, ctx):
    """The product rule one coefficient at a time, read from the block matrix:
    every mu from |lam1 - lam2| to lam1 + lam2, skipping zero coefficients; a
    sum that is exactly zero (an underflow, say) is dropped, as AlgebraElement
    drops it."""
    out = {}
    for i1, c1 in a.terms.items():
        for i2, c2 in b.terms.items():
            matrix = cg_block(i1.lam, i2.lam, ctx).matrix  # laid out on each read
            m, n = i1.m + i2.m, i1.n + i2.n
            t1, t2 = twice(i1.lam), twice(i2.lam)

            def coeff(mu, w, w1, w2):
                # rows (mu, m) with mu, then m, ascending; columns (m1, m2)
                # lexicographic (the CGBlock layout)
                row = sum(t + 1 for t in range(abs(t1 - t2), twice(mu), 2))
                row += (twice(mu) + twice(w)) // 2
                col = (t1 + twice(w1)) // 2 * (t2 + 1) + (t2 + twice(w2)) // 2
                return float(matrix[row, col])

            for mu in (Fraction(t, 2) for t in range(abs(t1 - t2), t1 + t2 + 1, 2)):
                if abs(twice(m)) > twice(mu) or abs(twice(n)) > twice(mu):
                    continue
                cm = coeff(mu, m, i1.m, i2.m)
                if cm == 0.0:
                    continue
                cn = coeff(mu, n, i1.n, i2.n)
                if cn == 0.0:
                    continue
                idx = BasisIndex(mu, m, n)
                out[idx] = out.get(idx, 0) + c1 * c2 * cm * cn
    return {i: c for i, c in out.items() if c != 0}


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=40, deadline=None)
@given(a=elements, b=elements)
def test_product_matches_per_coefficient_reference(q, a, b):
    # same values and same term order: the table-driven sum rounds like the reference
    ctx = QContext(q, 1e-9)
    assert list(multiply(a, b, ctx).terms.items()) == list(reference_multiply(a, b, ctx).items())


@pytest.mark.parametrize("q", Q_VALUES)
def test_defining_relations(q):
    res = coord.relation_residuals(QContext(q, 1e-9))
    assert res["max"] < 1e-9


# ---------------------------------------------------------------------------
# star structure


def test_star_generators():
    alpha, beta, alpha_s, beta_s = gens(CTX)
    assert (star(alpha, CTX) - alpha_s).norm_inf() == 0.0
    assert (star(beta, CTX) - beta_s).norm_inf() == 0.0
    assert (star(alpha_s, CTX) - alpha).norm_inf() == 0.0
    assert (star(beta_s, CTX) - beta).norm_inf() == 0.0


@given(elements)
def test_star_involution(a):
    assert (star(star(a, CTX), CTX) - a).norm_inf() < 1e-12


@settings(max_examples=25)
@given(elements, elements)
def test_star_antihomomorphism(a, b):
    lhs = star(multiply(a, b, CTX), CTX)
    rhs = multiply(star(b, CTX), star(a, CTX), CTX)
    assert (lhs - rhs).norm_inf() < 1e-7 * max(1.0, a.norm_inf() * b.norm_inf())


def test_star_agrees_with_pairing_definition():
    # t*(x) = conj(t(S(x)*)) over lam <= 3/2 and generator words of length <= 2
    assert coord.star_pairing_residual(CTX) < CTX.tol


# ---------------------------------------------------------------------------
# pairing


def pairing(a: AlgebraElement, word, ctx: QContext) -> complex:
    """Dual pairing: linear extension of t^lam_{mn}(x) = (rho_lam(x))_{mn}."""
    total = 0j
    for (tl, tm, tn), c in a.terms.items():
        total += c * irrep_word(Fraction(tl, 2), word, ctx)[(tm + tl) // 2, (tn + tl) // 2]
    return total


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1e-3])
def test_star_pairing_residual_matches_the_pairing_loop(q):
    # the former loop, one pairing (and so one word) per t and word
    ctx = QContext(q, 1e-9)
    words = [()] + [(a,) for a in LETTERS] + [(a, b) for a in LETTERS for b in LETTERS]
    gaps = []
    for idx in (BasisIndex.doubled(tl, tm, tn) for tl in range(4)
                for tm in range(-tl, tl + 1, 2) for tn in range(-tl, tl + 1, 2)):
        t = AlgebraElement.basis(idx)
        for w in words:
            images = [star_antipode_letter(letter, ctx) for letter in w]
            coeff, image = math.prod(c for c, _ in images), tuple(x for _, x in images)
            rhs = np.conj(coeff * pairing(t, image, ctx))
            gaps.append(abs(pairing(star(t, ctx), w, ctx) - rhs))
    assert coord.star_pairing_residual(ctx) == max(gaps)


def test_pairing_generator_values():
    alpha, beta, alpha_s, beta_s = gens(CTX)
    q = CTX.q
    assert pairing(alpha, "k", CTX) == pytest.approx(q**0.5)
    assert pairing(alpha, "kinv", CTX) == pytest.approx(q**-0.5)
    assert pairing(alpha_s, "k", CTX) == pytest.approx(q**-0.5)
    assert pairing(alpha_s, "kinv", CTX) == pytest.approx(q**0.5)
    assert pairing(beta, "e", CTX) == pytest.approx(1.0)
    assert pairing(beta_s, "f", CTX) == pytest.approx(-1.0 / q)
    for t, w in [
        (alpha, "e"),
        (alpha, "f"),
        (beta, "f"),
        (beta, "k"),
        (beta_s, "e"),
        (alpha_s, "e"),
    ]:
        assert pairing(t, w, CTX) == pytest.approx(0.0, abs=1e-15)


_SWEEDLER = {
    "e": (("e", "k"), ("kinv", "e")),
    "f": (("f", "k"), ("kinv", "f")),
    "k": (("k", "k"),),
    "kinv": (("kinv", "kinv"),),
}


def test_coproduct_table_is_the_reference():
    assert COPRODUCT == _SWEEDLER


@settings(max_examples=20, deadline=None)
@given(elements, elements)
def test_product_pairs_through_coproduct(a, b):
    # the product is dual to the coproduct on single generator letters
    for letter, pairs in _SWEEDLER.items():
        lhs = pairing(multiply(a, b, CTX), letter, CTX)
        rhs = sum(pairing(a, x1, CTX) * pairing(b, x2, CTX) for x1, x2 in pairs)
        scale = max(1.0, a.norm_inf() * b.norm_inf())
        assert abs(lhs - rhs) < 1e-8 * scale


# ---------------------------------------------------------------------------
# regular actions


def test_action_tables_exact():
    res = coord.action_table_residuals(CTX)
    assert res["max"] < 1e-12


def test_action_examples():
    alpha, beta, alpha_s, beta_s = gens(CTX)
    assert (right_act("e", beta, CTX) - alpha).norm_inf() == 0.0
    assert (right_act("f", beta_s, CTX) - (-1 / CTX.q) * alpha_s).norm_inf() == 0.0
    assert (left_act("e", alpha_s, CTX) - (1 / CTX.q) * beta).norm_inf() < 1e-15


def test_actions_are_homomorphisms_on_words():
    alpha, beta, _, _ = gens(CTX)
    for a in (alpha, beta):
        lhs = right_act(("f", "e"), a, CTX)
        rhs = right_act("f", right_act("e", a, CTX), CTX)
        assert (lhs - rhs).norm_inf() < 1e-14
        lhs = left_act(("f", "e"), a, CTX)
        rhs = left_act("f", left_act("e", a, CTX), CTX)
        assert (lhs - rhs).norm_inf() < 1e-14


def reference_right_matrix(lam, word, ctx):
    """rho_lam(word) as the product of the dense one-letter matrices, left to right."""
    out = np.eye(twice(lam) + 1)
    for letter in word:
        out = out @ irrep_word(lam, letter, ctx)
    return out


def reference_left_matrix(lam, word, ctx):
    """rho_lam(S(theta(word))); S∘theta is an anti-homomorphism, so the
    per-letter matrices multiply in reversed word order."""
    out = np.eye(twice(lam) + 1)
    for letter in reversed(word):
        sign, mapped = theta_letter(letter)
        a_coeff, a_letter = antipode_letter(mapped, ctx)
        out = out @ ((sign * a_coeff) * irrep_word(lam, a_letter, ctx))
    return out


def reference_act(word, a, ctx, side):
    """The regular actions as dense matrices whose whole row is scanned for
    entries: the right action reads row n of the transpose, the left row m."""
    out, rows = {}, {}
    for (tl, tm, tn), c in a.terms.items():
        if tl not in rows:
            if side == "right":
                rows[tl] = reference_right_matrix(Fraction(tl, 2), word, ctx).T.tolist()
            else:
                rows[tl] = reference_left_matrix(Fraction(tl, 2), word, ctx).tolist()
        row = rows[tl][((tn if side == "right" else tm) + tl) // 2]
        for t_new, v in zip(range(-tl, tl + 1, 2), row):
            if v != 0:
                m, n = (tm, t_new) if side == "right" else (t_new, tn)
                tgt = BasisIndex.doubled(tl, m, n)
                out[tgt] = out.get(tgt, 0) + c * v
    return AlgebraElement(out)


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8, 1e-3])
def test_actions_equal_the_dense_row_scan(q):
    # every t^lam_{mn} with 2 lam <= 8 in one element: a word moves an index by
    # one injective shift, so no two terms meet and each target holds one term's
    # product; every word of up to 3 letters, terms and their order compared
    ctx = QContext(q, 1e-9)
    a = AlgebraElement({BasisIndex.doubled(tl, tm, tn): 1.0 for tl in range(9)
                        for tm in range(-tl, tl + 1, 2) for tn in range(-tl, tl + 1, 2)})
    for word in (w for r in range(4) for w in itertools.product(LETTERS, repeat=r)):
        for side, act in (("right", right_act), ("left", left_act)):
            got, want = act(word, a, ctx).terms, reference_act(word, a, ctx, side).terms
            assert list(got.items()) == list(want.items()), (side, word)


def test_equivariance():
    res = coord.equivariance_residuals(CTX)
    assert res["max"] < CTX.tol


def _reference_equivariance(ctx):
    """The per-letter triple loop, each product and action built where it is used."""
    g = gens(ctx)
    gaps = {"right": [], "left": []}
    for letter in ("e", "f", "k"):
        for a in g:
            for b in g:
                ab = multiply(a, b, ctx)
                for side, act in (("right", right_act), ("left", left_act)):
                    rhs = AlgebraElement()
                    for x1, x2 in COPRODUCT[letter]:
                        rhs = rhs + multiply(act(x1, a, ctx), act(x2, b, ctx), ctx)
                    gaps[side].append((act(letter, ab, ctx) - rhs).norm_inf())
    worst = {side: coord.residual_max(values) for side, values in gaps.items()}
    worst["max"] = coord.residual_max(worst.values())
    return worst


@pytest.mark.parametrize("q", [*Q_VALUES, 1e-3])
def test_equivariance_matches_the_reference_loop(q):
    ctx = QContext(q, 1e-9)
    assert coord.equivariance_residuals(ctx) == _reference_equivariance(ctx)


# ---------------------------------------------------------------------------
# associativity


@settings(max_examples=15, deadline=None)
@given(elements, elements, elements)
def test_associativity(a, b, c):
    lhs = multiply(multiply(a, b, CTX), c, CTX)
    rhs = multiply(a, multiply(b, c, CTX), CTX)
    scale = max(1.0, a.norm_inf() * b.norm_inf() * c.norm_inf())
    assert (lhs - rhs).norm_inf() < 10 * CTX.tol * scale


# ---------------------------------------------------------------------------
# Haar state and GNS basis


def test_haar_examples():
    alpha, beta, _, _ = gens(CTX)
    assert haar(unit()) == 1.0
    assert haar(alpha) == 0.0
    got = haar(multiply(star(beta, CTX), beta, CTX))
    expected = CTX.q**-1 / q_int(2, CTX)
    assert got == pytest.approx(expected, abs=1e-14)


def test_inner_examples():
    alpha, beta, _, _ = gens(CTX)
    assert inner(alpha, beta, CTX) == pytest.approx(0.0, abs=1e-15)
    t = AlgebraElement.basis(BasisIndex(0.5, 0.5, 0.5))
    assert inner(t, t, CTX) == pytest.approx(CTX.q**-1 / q_int(2, CTX), abs=1e-14)
    assert inner(unit(), unit(), CTX) == pytest.approx(1.0)


@pytest.mark.parametrize("q", Q_VALUES)
def test_haar_orthogonality(q):
    ctx = QContext(q, 1e-9)
    assert coord.haar_orthogonality_residual(ctx, 1.5) < ctx.tol


def reference_inner(a, b, ctx):
    """h(a* b) read off the whole product, as inner computed it before gram."""
    return haar(multiply(star(a, ctx), b, ctx))


GRAM_INDICES = [
    BasisIndex.doubled(tl, tm, tn)
    for tl in range(0, 7)
    for tm in range(-tl, tl + 1, 2)
    for tn in range(-tl, tl + 1, 2)
]
gram_elements = st.dictionaries(
    st.sampled_from(GRAM_INDICES), coeffs, min_size=1, max_size=6
).map(AlgebraElement)


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=30, deadline=None)
@given(xs=st.lists(gram_elements, max_size=4), ys=st.lists(gram_elements, max_size=4))
def test_gram_matches_whole_product_reference(q, xs, ys):
    # gram sums the unit coefficient in multiply's order, so every entry is bitwise equal
    ctx = QContext(q, 1e-9)
    g = gram(xs, ys, ctx)
    assert g.shape == (len(xs), len(ys))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            assert g[i, j] == reference_inner(x, y, ctx)
            assert inner(x, y, ctx) == reference_inner(x, y, ctx)


@pytest.mark.parametrize("q", Q_VALUES)
def test_gram_of_basis_matches_whole_product_reference(q):
    ctx = QContext(q, 1e-9)
    basis = [AlgebraElement.basis(idx) for idx in GRAM_INDICES if twice(idx.lam) <= 4]
    assert len(basis) == 55
    g = gram(basis, basis, ctx)
    expected = [[reference_inner(x, y, ctx) for y in basis] for x in basis]
    assert g.tolist() == expected


@pytest.mark.parametrize("q", Q_VALUES)
def test_gram_of_dense_elements_matches_whole_product_reference(q):
    # every index with lam <= 3 in each element, so each entry sums 140 terms
    # and a change in their order would show
    ctx = QContext(q, 1e-9)
    xs = [
        AlgebraElement({idx: complex(np.cos(k * s), np.sin(2 * k + s)) for k, idx in
                        enumerate(GRAM_INDICES)})
        for s in (1, 2)
    ]
    expected = [[reference_inner(x, y, ctx) for y in xs] for x in xs]
    assert gram(xs, xs, ctx).tolist() == expected


@pytest.mark.parametrize("q", Q_VALUES)
@settings(max_examples=30, deadline=None)
@given(xs=st.lists(gram_elements, max_size=4))
def test_gram_is_hermitian(q, xs):
    # h(x*) = conj(h(x)); the two sums round differently, within eps of their
    # l1 sizes (the worst of 6,000 random draws was 0.14 eps)
    ctx = QContext(q, 1e-9)
    g = gram(xs, xs, ctx)
    size = np.array([sum(map(abs, x.terms.values())) for x in xs])
    star_size = np.array([sum(map(abs, star(x, ctx).terms.values())) for x in xs])
    scale = np.outer(star_size, size)
    assert np.all(np.abs(g - g.conj().T) <= np.finfo(float).eps * (scale + scale.T))


def test_gram_of_empty_lists():
    assert gram([], [], CTX).shape == (0, 0)
    assert gram([unit()], [], CTX).shape == (1, 0)


@pytest.fixture
def fresh_cg_cache():
    clear_cache()
    yield
    clear_cache()


def test_haar_check_reads_computed_cg_entries(fresh_cg_cache):
    # one mu = 0 coefficient of the cached (1, 1) block, off by one part in a million
    ctx = QContext(0.5, 1e-9)
    assert coord.haar_orthogonality_residual(ctx, 2) < ctx.tol
    column = cg_block(1, 1, ctx).coupling[1][1]  # (m1, m2) = (0, 0), mu from 0 up
    column[0] *= 1 + 1e-6
    assert coord.haar_orthogonality_residual(ctx, 2) > ctx.tol


def test_haar_check_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="lam_max must be >= 0, got -1"):
        coord.haar_orthogonality_residual(QContext(0.5, 1e-9), -1)


def test_haar_check_refuses_caps_above_its_guard_before_building(monkeypatch):
    def no_blocks(*args):
        raise AssertionError("a block was requested")

    monkeypatch.setattr(coord, "cg_blocks", no_blocks)
    twice_cap = 2 * coord.HAAR_GUARD + 1
    with pytest.raises(ValueError, match=f"lam_max = {twice_cap}/2 exceeds the cost guard "
                                         f"{coord.HAAR_GUARD}$"):
        coord.haar_orthogonality_residual(CTX, coord.HAAR_GUARD + 0.5)


def test_haar_check_accepts_its_guard(monkeypatch):
    # the guard's edge pairs every label with 2 lam <= 2 HAAR_GUARD; gram is stubbed
    sizes = []

    def zero_gram(left, right, ctx):
        sizes.append((len(left), len(right)))
        return np.zeros((len(left), len(right)), dtype=complex)

    monkeypatch.setattr(coord, "gram", zero_gram)
    count = sum((tl + 1) ** 2 for tl in range(2 * coord.HAAR_GUARD + 1))
    assert coord.haar_orthogonality_residual(CTX, coord.HAAR_GUARD) > 0
    assert sizes == [(count, count)]


def test_generator_matrices_are_real():
    # the left action's words carry the real scalars of S∘theta
    ctx = QContext(0.5, 1e-9)
    for lam in (0, 0.5, 1, 2.5):
        for word in (("e",), ("kinv",), ("f", "k", "e")):
            letters, scalars = [], []
            for letter in reversed(word):
                sign, mapped = theta_letter(letter)
                scalar, image = antipode_letter(mapped, ctx)
                letters.append(image)
                scalars.append(sign * scalar)
            _, coeffs = word_shift(lam, letters, ctx, scalars)
            assert all(type(c) is float for c in coeffs)
        for letter in COPRODUCT:
            assert coproduct_action(lam, 1.5, letter, ctx).dtype == np.float64


def test_haar_check_builds_every_block_it_pairs(fresh_cg_cache):
    # every pair of terms reads its own block, also where lam1 != lam2 leaves it
    # no mu = 0 entry: no pair is taken to be zero from its weights alone
    ctx = QContext(0.5, 1e-9)
    assert coord.haar_orthogonality_residual(ctx, 2) < ctx.tol
    assert set(cg._cache) == {(t1, t2, ctx.q) for t1 in range(5) for t2 in range(5)}


def gns_basis_vector(idx, ctx):
    """Orthonormal GNS basis vector q^m sqrt([2 lam + 1]) t^lam_{mn}."""
    return AlgebraElement.basis(idx, ctx.q ** float(idx.m) * np.sqrt(q_int(2 * idx.lam + 1, ctx)))


def test_gns_basis_examples():
    idx0 = BasisIndex(0, 0, 0)
    assert (gns_basis_vector(idx0, CTX) - unit()).norm_inf() == 0.0
    idx = BasisIndex(0.5, 0.5, 0.5)
    v = gns_basis_vector(idx, CTX)
    expected = CTX.q**0.5 * np.sqrt(q_int(2, CTX))
    assert v.coeff(idx) == pytest.approx(expected)
    assert inner(v, v, CTX) == pytest.approx(1.0, abs=1e-12)
    w = gns_basis_vector(BasisIndex(1, 0, 1), CTX)
    assert inner(v, w, CTX) == pytest.approx(0.0, abs=1e-12)
    assert inner(w, w, CTX) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# serialization


def test_jsonl_round_trip():
    a = AlgebraElement(
        {
            BasisIndex(0.5, 0.5, -0.5): 1.25 - 0.75j,
            BasisIndex(1.5, -0.5, 1.5): -3.0 + 0.125j,
            BasisIndex(0, 0, 0): 2.0,
        }
    )
    text = to_jsonl(a)
    assert len(text.splitlines()) == 3
    recs = [json.loads(line) for line in text.splitlines()]
    back = {BasisIndex.doubled(r["two_lambda"], r["two_m"], r["two_n"]): complex(r["re"], r["im"])
            for r in recs}
    assert back == a.terms
    # a -0.0 part (from negating a real coefficient) is stored as +0.0
    assert "-0.0" not in to_jsonl(-a) + to_jsonl(a * -2.0)


def test_records_are_sorted_and_typed():
    a = AlgebraElement(
        {BasisIndex(1, 0, 0): 1.0, BasisIndex(0, 0, 0): 1.0}
    )
    recs = coord.to_records(a)
    assert [r["two_lambda"] for r in recs] == [0, 2]
    assert set(recs[0]) == {"two_lambda", "two_m", "two_n", "re", "im"}
