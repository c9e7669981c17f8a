"""Circle grading, weighted projective generators, coinvariants, dimensions."""

import math

import numpy as np
import pytest

from qwps import cg, coaction, exact, teardrop
from qwps.coaction import (
    coinvariant_coord_basis,
    degree,
    spinor_degree,
    verify_wp_relations,
    wp_gens,
)
from qwps.coord import AlgebraElement, BasisIndex, gens, multiply, right_act, star
from qwps.dirac import SpinorBasisIndex, coinvariant_spinor_basis
from qwps.exact import (
    HalfInt,
    QContext,
    WeightPair,
    dim_table,
    dim_V,
    dim_V_doubled,
    dim_V_down,
    dim_V_down_doubled,
    dim_V_down_oracle,
    dim_V_oracle,
    dim_V_up_oracle,
    hi,
)
from qwps.qcore import weight_range

CTX = QContext(0.5, 1e-9)

COPRIME_PAIRS = [
    (k, l)
    for k in range(1, 9)
    for l in range(1, 9)
    if k + l <= 9 and math.gcd(k, l) == 1
]


def test_weight_pair_validation():
    with pytest.raises(ValueError):
        WeightPair(2, 4)
    with pytest.raises(ValueError):
        WeightPair(0, 1)
    assert WeightPair(3, 4).s == 7


def test_weight_pair_refuses_non_integers():
    with pytest.raises(ValueError, match=r"k, l must be integers, got \(1.5, 2\)"):
        WeightPair(1.5, 2)
    with pytest.raises(ValueError, match=r"k, l must be integers, got \(1, 2.0\)"):
        WeightPair(1, 2.0)
    assert WeightPair(np.int64(2), np.int32(3)).s == 5


def test_generator_degrees():
    wp = WeightPair(2, 3)
    alpha, beta, alpha_s, beta_s = gens(CTX)
    for el, expected in ((alpha, -2), (beta, 3), (alpha_s, 2), (beta_s, -3)):
        (idx,) = el.terms
        assert degree(wp, idx) == expected
    assert degree(wp, BasisIndex.of(0, 0, 0)) == 0


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 1), (2, 3)])
def test_wp_generators_are_coinvariant(k, l):
    wp = WeightPair(k, l)
    a, b = wp_gens(wp, CTX)
    assert all(degree(wp, idx) == 0 for idx in a.terms)
    assert all(degree(wp, idx) == 0 for idx in b.terms)
    assert (star(a, CTX) - a).norm_inf() < CTX.tol


def test_wp_b_oracle_for_unit_weights():
    # b = beta * alpha for (1, 1): a single coupled term, cross-checked by an
    # explicit evaluation of the product rule on the 2 ⊗ 2 block
    wp = WeightPair(1, 1)
    _, b = wp_gens(wp, CTX)
    from qwps.cg import cg_block

    block = cg_block(hi(0.5), hi(0.5), CTX)
    # C(1/2 1/2 1; 1/2 1/2 1) and C(1/2 1/2 1; -1/2 1/2 0), at [lam + m1][lam + m2][mu]
    cm = block.coupling[1][1][1]
    cn = block.coupling[0][1][1]
    expected = AlgebraElement.basis(BasisIndex.of(1, 1, 0), cm * cn)
    assert (b - expected).norm_inf() < 1e-14


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_wp_b_is_one_matrix_element(q):
    # each factor of beta^k alpha^l keeps the row index at the top weight, so one
    # mu survives every product: b = c t^{(k+l)/2}_{(k+l)/2, (l-k)/2}
    ctx = QContext(q, 1e-9)
    for s in range(2, 21):
        for k in range(1, s):
            if math.gcd(k, s - k) == 1:
                _, b = wp_gens(WeightPair(k, s - k), ctx)
                assert list(b.terms) == [BasisIndex.doubled(s, s, s - 2 * k)], (k, s - k)


def test_cold_wp_gens_builds_its_chain_in_few_batches(monkeypatch):
    # b = beta^k alpha^l reads the blocks (i, 1), i < k + l, one per letter; they
    # are requested before the product, so a cold call builds each once, in 22
    # batches at (1, 64) where it took one build per letter, and a warm one none
    calls = []
    build_batch = cg._build_batch

    def counted(pairs, ctx):
        calls.append(list(pairs))
        return build_batch(pairs, ctx)

    monkeypatch.setattr(cg, "_cache", {})
    monkeypatch.setattr(cg, "_build_batch", counted)
    wp = WeightPair(1, 64)
    wp_gens(wp, CTX)
    assert sorted(pair for batch in calls for pair in batch) == [(i, 1) for i in range(1, 65)]
    assert len(calls) <= wp.s // 2
    calls.clear()
    wp_gens(wp, CTX)
    assert calls == []


WP_RELATION_CASES = [
    (1, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 4, 0.3), (4, 3, 0.3), (3, 5, 0.3), (5, 3, 0.3)
]


@pytest.mark.parametrize(
    "k,l,q",
    WP_RELATION_CASES,
    ids=[f"{k}-{l}" if q == 0.5 else f"{k}-{l}-q{q}" for k, l, q in WP_RELATION_CASES],
)
def test_wp_relations(k, l, q):
    ctx = QContext(q, 1e-9)
    wp = WeightPair(k, l)
    _, b = wp_gens(wp, ctx)
    bs = star(b, ctx)
    # products prune nothing: b b* and b* b keep their terms, all below 3e-13
    # for the last four pairs
    assert len(multiply(b, bs, ctx)) > 0 and len(multiply(bs, b, ctx)) > 0
    if (k, l, q) != (3, 5, 0.3):  # its expanded b b* still fails by rounding (2.5e-6)
        assert verify_wp_relations(wp, ctx)["max"] < ctx.tol


def _r_off(k, l, q):
    _, s, f_bsb, f_bbs = exact.wp_relations(k, l, q)
    return q ** (-2 * l + 2), s, f_bsb, f_bbs


def _f_bbs_off(k, l, q):
    r, s, f_bsb, f_bbs = exact.wp_relations(k, l, q)
    return r, s, f_bsb, f_bbs[:-1] + [f_bbs[-1] * q**-2]


@pytest.mark.parametrize("mutant", [None, _r_off, _f_bbs_off])
def test_both_relation_checks_read_the_one_statement(monkeypatch, mutant):
    # the coordinate-algebra check and the teardrop check both fail when the
    # statement they read from exact is wrong, and both pass when it is not
    if mutant is not None:
        monkeypatch.setattr(coaction, "wp_relations", mutant)
        monkeypatch.setattr(teardrop, "wp_relations", mutant)
    coord_max = verify_wp_relations(WeightPair(1, 2), CTX)["max"]
    teardrop_max = teardrop.wp_relation_residuals(2, 16, CTX)["max"]
    if mutant is None:
        assert coord_max < 10 * CTX.tol and teardrop_max < CTX.tol
    else:
        assert coord_max > 10 * CTX.tol and teardrop_max > CTX.tol


def test_wp_relations_guard():
    with pytest.raises(ValueError):
        verify_wp_relations(WeightPair(4, 5), CTX)


def test_spinor_degrees():
    wp = WeightPair(1, 2)
    assert spinor_degree(wp, -wp.k, "+") == -1
    assert spinor_degree(wp, -wp.k, "-") == 2
    assert spinor_degree(wp, 0, "-") == 3


def test_right_action_shifts_degree():
    wp = WeightPair(1, 2)
    # e lowers the order by k + l, f raises it by k + l, and k keeps it; words add
    order = {"e": -wp.s, "f": wp.s, "k": 0, "kinv": 0}
    alpha, beta, alpha_s, beta_s = gens(CTX)
    samples = [alpha, beta, multiply(beta, beta_s, CTX), multiply(alpha, beta, CTX)]
    for a in samples:
        degs = {degree(wp, idx) for idx in a.terms}
        assert len(degs) == 1
        (d,) = degs
        for word in ("e", "f", "k", ("e", "f"), ("f", "k")):
            moved = right_act(word, a, CTX)
            shift = sum(order[letter] for letter in ((word,) if isinstance(word, str) else word))
            for idx in moved.terms:
                assert degree(wp, idx) == d + shift


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3), (1, 4)])
def test_degree_additivity_of_products(k, l):
    wp = WeightPair(k, l)
    alpha, beta, alpha_s, beta_s = gens(CTX)
    homo = [alpha, beta, alpha_s, beta_s, multiply(alpha, beta, CTX)]
    for x in homo:
        for y in homo:
            dx = {degree(wp, i) for i in x.terms}
            dy = {degree(wp, i) for i in y.terms}
            prod = multiply(x, y, CTX)
            for idx in prod.terms:
                assert degree(wp, idx) == next(iter(dx)) + next(iter(dy))


# ---------------------------------------------------------------------------
# coinvariant bases


def test_coinvariant_coord_basis_examples():
    assert coinvariant_coord_basis(WeightPair(2, 3), hi(0)) == [BasisIndex.of(0, 0, 0)]
    lam1 = [
        idx
        for idx in coinvariant_coord_basis(WeightPair(1, 1), hi(1))
        if idx.lam.twice == 2
    ]
    assert {(i.m.twice, i.n.twice) for i in lam1} == {(-2, 0), (0, 0), (2, 0)}
    # half-integer levels below 3/2 are empty for (1, 2)
    small = coinvariant_coord_basis(WeightPair(1, 2), hi(1.0))
    assert [i for i in small if i.lam.twice == 1] == []


def degree_zero_scan(wp, lam_max):
    """Oracle: every (lam, m, n) with lam <= lam_max, in that order, kept if
    it has degree 0."""
    lams = [HalfInt(tl) for tl in range(hi(lam_max).twice + 1)]
    scan = (BasisIndex(lam, m, n) for lam in lams
            for m in weight_range(lam) for n in weight_range(lam))
    return [idx for idx in scan if degree(wp, idx) == 0]


COPRIME_UP_TO_9 = [(k, s - k) for s in range(2, 10) for k in range(1, s)
                   if math.gcd(k, s - k) == 1]


@pytest.mark.parametrize("k,l", COPRIME_UP_TO_9)
def test_coinvariant_coord_basis_is_degree_zero_scan(k, l):
    # same indices in the same order as the scan, at every cap up to 6; the
    # scan at a smaller cap is the prefix with lam <= cap
    wp = WeightPair(k, l)
    brute = degree_zero_scan(wp, 6)
    for t in range(13):
        fast = coinvariant_coord_basis(wp, hi(t / 2))
        assert fast == [idx for idx in brute if idx.lam.twice <= t]


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 3)])
def test_coord_basis_cardinality_matches_dimensions(k, l):
    wp = WeightPair(k, l)
    count = len(coinvariant_coord_basis(wp, hi(8)))
    assert count == sum(dim_V(wp, hi(t / 2)) for t in range(17))


def test_spinor_index_validation():
    # coinvariant spinors are labelled |j, p(l+k) - 1/2, p(l-k), arrow>; at
    # p = 0 that is m = -1/2, mu = 0
    with pytest.raises(ValueError):
        SpinorBasisIndex(hi(1), hi(-0.5), hi(0), "sideways")
    with pytest.raises(ValueError):
        SpinorBasisIndex(hi(-1), hi(-0.5), hi(0), "up")
    with pytest.raises(ValueError):
        spinor_degree(WeightPair(1, 1), -1, "sideways")
    # the doubled constructor refuses them with the same messages
    with pytest.raises(ValueError, match="^arrow must be 'up' or 'down', got 'sideways'$"):
        SpinorBasisIndex.doubled(2, -1, 0, "sideways")
    with pytest.raises(ValueError, match="^j must be >= 0, got -1$"):
        SpinorBasisIndex.doubled(-2, -1, 0, "up")
    idx = SpinorBasisIndex(hi(1), hi(-0.5), hi(0), "up")
    assert idx in coinvariant_spinor_basis(WeightPair(1, 1), hi(1))


# ---------------------------------------------------------------------------
# dimension formulas


@pytest.mark.parametrize("k,l", COPRIME_PAIRS)
def test_dimensions_match_oracles(k, l):
    wp = WeightPair(k, l)
    for t in range(0, 51):
        x = hi(t / 2)
        assert dim_V_down(wp, x) == dim_V_down_oracle(wp, x)
        assert dim_V(wp, x) == dim_V_oracle(wp, x)


def test_doubled_dimension_cores_match_oracles():
    # every coprime pair with k + l <= 12, doubled indices up to three periods 2(k + l)
    pairs = [(k, s - k) for s in range(2, 13) for k in range(1, s) if math.gcd(k, s) == 1]
    for k, l in pairs:
        wp = WeightPair(k, l)
        for t in range(0, 6 * wp.s + 1):
            assert dim_V_down_doubled(wp, t) == dim_V_down_oracle(wp, HalfInt(t)), (k, l, t)
            assert dim_V_doubled(wp, t) == dim_V_oracle(wp, HalfInt(t)), (k, l, t)
    families = ((dim_V_down_doubled, dim_V_down, "j"), (dim_V_doubled, dim_V, "lam"))
    for core, wrapper, name in families:
        for bad in (-1, -2):
            for call in (lambda: core(WeightPair(1, 2), bad),
                         lambda: wrapper(WeightPair(1, 2), HalfInt(bad))):
                with pytest.raises(ValueError) as info:
                    call()
                assert str(info.value) == f"{name} must be >= 0, got {HalfInt(bad)}"


@pytest.mark.parametrize("k,l", COPRIME_PAIRS)
def test_up_down_shift_identity(k, l):
    wp = WeightPair(k, l)
    for t in range(0, 41):
        j = hi(t / 2)
        assert dim_V_up_oracle(wp, j) == dim_V_down_oracle(wp, j + 1)


def test_dimension_examples():
    assert dim_V_down(WeightPair(1, 1), hi(0)) == 0
    assert dim_V_down(WeightPair(2, 3), hi(0)) == 0
    assert dim_V_down(WeightPair(1, 1), hi(2)) == 4
    assert dim_V_down(WeightPair(1, 2), hi(1.5)) == 1
    assert dim_V(WeightPair(1, 2), hi(1)) == 1
    assert dim_V(WeightPair(1, 1), hi(0)) == 1
    for t in range(0, 9, 2):
        assert dim_V(WeightPair(1, 1), hi(t / 2)) == t + 1  # 2*lam + 1


def test_dim_table_shape():
    rows = dim_table(WeightPair(1, 2), hi(3))
    assert all(row["match"] for row in rows)
    # odd k+l: half-integer rows included
    assert any(row["index"] == 1.5 for row in rows)
    rows = dim_table(WeightPair(1, 1), hi(3))
    # even k+l: integer rows only
    assert all(float(row["index"]).is_integer() for row in rows)
