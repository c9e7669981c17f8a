"""Circle grading, weighted projective generators, coinvariants, dimensions."""

import math

import pytest

from qwps.coaction import (
    coinvariant_coord_basis,
    degree,
    project_degree,
    spinor_degree,
    uq_degree,
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


def test_generator_degrees():
    wp = WeightPair(2, 3)
    alpha, beta, alpha_s, beta_s = gens(CTX)
    for el, expected in ((alpha, -2), (beta, 3), (alpha_s, 2), (beta_s, -3)):
        (idx,) = el.terms
        assert degree(wp, idx) == expected
    assert degree(wp, BasisIndex.of(0, 0, 0)) == 0


def test_project_degree():
    wp = WeightPair(1, 1)
    alpha, beta, _, _ = gens(CTX)
    both = alpha + beta
    assert (project_degree(both, wp, -1) - alpha).norm_inf() == 0.0
    assert (project_degree(both, wp, 1) - beta).norm_inf() == 0.0
    assert project_degree(both, wp, 0).norm_inf() == 0.0
    # homogeneous element projects to itself
    assert (project_degree(alpha, wp, -1) - alpha).norm_inf() == 0.0
    # occurring degrees reconstruct the element
    degrees = {degree(wp, idx) for idx in both.terms}
    rebuilt = AlgebraElement.zero()
    for d in degrees:
        rebuilt = rebuilt + project_degree(both, wp, d)
    assert (rebuilt - both).norm_inf() == 0.0


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
    # C(1/2 1/2 1; 1/2 1/2 1) and C(1/2 1/2 1; -1/2 1/2 0), keyed by doubled weights
    cm = block.table[1, 1][2]
    cn = block.table[-1, 1][2]
    expected = AlgebraElement.basis(BasisIndex.of(1, 1, 0), cm * cn)
    assert (b - expected).norm_inf() < 1e-14


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


def test_wp_relations_guard():
    with pytest.raises(ValueError):
        verify_wp_relations(WeightPair(4, 5), CTX)


def test_uq_and_spinor_degrees():
    wp = WeightPair(1, 2)
    assert uq_degree(wp, "e") == -3
    assert uq_degree(wp, "k") == 0
    assert uq_degree(wp, ("e", "f")) == 0
    assert spinor_degree(wp, -wp.k, "+") == -1
    assert spinor_degree(wp, -wp.k, "-") == 2
    assert spinor_degree(wp, 0, "-") == 3


def test_right_action_shifts_degree():
    wp = WeightPair(1, 2)
    alpha, beta, alpha_s, beta_s = gens(CTX)
    samples = [alpha, beta, multiply(beta, beta_s, CTX), multiply(alpha, beta, CTX)]
    for a in samples:
        degs = {degree(wp, idx) for idx in a.terms}
        assert len(degs) == 1
        (d,) = degs
        for word in ("e", "f", "k", ("e", "f"), ("f", "k")):
            moved = right_act(word, a, CTX)
            for idx in moved.terms:
                assert degree(wp, idx) == d + uq_degree(wp, word)


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
