"""Spectral triples: spinor basis, spectra, summability, commutators, grading."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from qwps.coaction import coinvariant_coord_basis, degree, spinor_degree, wp_gens
from qwps.coord import AlgebraElement, BasisIndex, gens, inner, multiply, unit
from qwps.dirac import (
    SpinorBasisIndex,
    _gns_labels,
    ambient_dirac_spectrum,
    chirality_checks,
    coinvariant_spinor_basis,
    commutator_norm,
    even_triple_operators,
    fredholm_degeneracy,
    gns_multiplication,
    q_dirac_check,
    spinor_basis,
    spinor_vector,
)
from qwps.exact import (
    HalfInt,
    QContext,
    SpectrumTable,
    WeightPair,
    dim_V,
    dim_V_down,
    dim_V_down_oracle,
    dim_V_oracle,
    even_triple_spectrum,
    hi,
    odd_triple_spectrum,
    summability_partial_sum,
)
from qwps.operators import TruncatedOperator, operator_norm
from qwps.qcore import q_int

CTX = QContext(0.5, 1e-9)
WPS = [WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3)]


def spinor_inner(a, b):
    """Inner product on coord ⊗ M_{1/2}: the Haar pairing summed over both legs."""
    return inner(a.minus, b.minus, CTX) + inner(a.plus, b.plus, CTX)


# ---------------------------------------------------------------------------
# spinor basis


def test_spinor_index_validation():
    with pytest.raises(ValueError):
        SpinorBasisIndex(hi(0), hi(0.5), hi(0), "down")  # down needs j >= 1/2
    with pytest.raises(ValueError):
        SpinorBasisIndex(hi(1), hi(0), hi(2), "up")  # |mu| > j
    with pytest.raises(ValueError):
        SpinorBasisIndex(hi(0.5), hi(1.5), hi(0.5), "up")  # |m| > j + 1/2
    idx = SpinorBasisIndex(hi(0.5), hi(0), hi(0.5), "down")
    assert idx.lam.twice == 0


def test_spinor_basis_counts_match_dirac_multiplicities():
    for tj in range(0, 6):
        j = hi(tj / 2)
        ups = [x for x in spinor_basis(j) if x.arrow == "up" and x.j == j]
        downs = [x for x in spinor_basis(j) if x.arrow == "down" and x.j == j]
        assert len(ups) == (tj + 1) * (tj + 2)
        assert len(downs) == tj * (tj + 1)


def test_boundary_spinor_has_single_leg():
    idx = SpinorBasisIndex(hi(0.5), hi(0), hi(0.5), "down")
    v = spinor_vector(idx, CTX)
    assert v.minus.norm_inf() == 0.0  # C vanishes at mu = j
    assert v.plus.norm_inf() > 0


@pytest.mark.parametrize("tj", range(0, 5))
def test_spinor_vectors_normalized(tj):
    for idx in spinor_basis(hi(tj / 2)):
        if idx.j.twice != tj:
            continue
        v = spinor_vector(idx, CTX)
        assert spinor_inner(v, v) == pytest.approx(1.0, abs=1e-10)


def test_spinor_vectors_orthogonal():
    basis = spinor_basis(hi(1.5))
    vecs = [spinor_vector(i, CTX) for i in basis]
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            assert abs(spinor_inner(vecs[i], vecs[k])) < 1e-10


# ---------------------------------------------------------------------------
# coinvariant spinors


def test_coinvariant_spinor_basis_examples():
    for wp in (WeightPair(1, 1), WeightPair(1, 2)):
        basis = coinvariant_spinor_basis(wp, hi(3))
        assert not any(x.arrow == "down" and x.j.twice <= 1 for x in basis)
    down1 = [
        x
        for x in coinvariant_spinor_basis(WeightPair(1, 1), hi(1))
        if x.arrow == "down" and x.j.twice == 2
    ]
    # twice p(l+k) = twice (m + 1/2)
    assert {x.m.twice + 1 for x in down1} == {0, 2}
    assert len(down1) == 2


def test_coinvariant_spinor_basis_recombination_oracle():
    # a (j, p, arrow) label is legal exactly when the constituent matrix
    # elements of its expansion exist (skipping boundary legs whose coupling
    # coefficient vanishes)
    for k, l in [(1, 1), (1, 2), (2, 3)]:
        wp = WeightPair(k, l)
        basis = set()
        s = wp.s
        for tj in range(0, 13):
            for tp in range(-12, 13):
                v2 = tp * s  # twice p(l+k)
                if (v2 - tj) % 2:
                    continue
                m2 = v2 - 1  # twice of p(l+k) - 1/2
                mu2 = tp * (l - k)  # twice of p(l-k)
                for arrow in ("down", "up"):
                    lam2 = tj - 1 if arrow == "down" else tj + 1
                    if lam2 < 0 or abs(m2) > lam2:
                        continue
                    legs = []
                    if arrow == "down":
                        if mu2 != tj:  # e_- leg survives unless mu = j
                            legs.append(mu2 + 1)
                        if mu2 != -tj:  # e_+ leg survives unless mu = -j
                            legs.append(mu2 - 1)
                    else:
                        legs = [mu2 + 1, mu2 - 1]
                    if abs(mu2) > tj:
                        continue
                    if all(abs(n2) <= lam2 for n2 in legs) and legs:
                        basis.add((tj, m2, mu2, arrow))
        fast = {
            (x.j.twice, x.m.twice, x.mu.twice, x.arrow)
            for x in coinvariant_spinor_basis(wp, hi(6))
        }
        assert fast == basis


COPRIME_UP_TO_5 = [(k, l) for k in range(1, 6) for l in range(1, 6) if math.gcd(k, l) == 1]


@pytest.mark.parametrize("k,l", COPRIME_UP_TO_5)
def test_coinvariant_spinor_basis_is_degree_zero_scan(k, l):
    # oracle: the ambient labels, in spinor_basis order, whose every leg has
    # the degree cancelling its spin-1/2 order (i = -k: -k on e_+, l on e_-);
    # the scan at a smaller cap is the prefix with j <= cap
    wp = WeightPair(k, l)

    def coinvariant(idx):
        vec = spinor_vector(idx, CTX)
        legs = [(t, "+") for t in vec.plus.terms] + [(t, "-") for t in vec.minus.terms]
        return all(degree(wp, t) + spinor_degree(wp, -wp.k, sign) == 0 for t, sign in legs)

    brute = [idx for idx in spinor_basis(hi(4)) if coinvariant(idx)]
    for tj in range(9):
        fast = coinvariant_spinor_basis(wp, hi(tj / 2))
        assert fast == [idx for idx in brute if idx.j.twice <= tj]


# ---------------------------------------------------------------------------
# ambient spectrum and the q-Dirac block identity


def test_ambient_spectrum_examples():
    table = ambient_dirac_spectrum(hi(0))
    assert table.rows == ((1.5, 2),)
    table = ambient_dirac_spectrum(hi(0.5))
    assert table.multiplicity(2.5) == 6
    assert table.multiplicity(-1.5) == 2
    assert table.multiplicity(0.0) == 0


@pytest.mark.parametrize("tj", range(0, 7))
def test_ambient_spectrum_counts(tj):
    j_max = hi(tj / 2)
    assert ambient_dirac_spectrum(j_max).total() == len(spinor_basis(j_max))


def test_q_dirac_eigenvalues():
    assert q_dirac_check(hi(2), CTX) < CTX.tol


def test_q_dirac_guard():
    with pytest.raises(ValueError):
        q_dirac_check(hi(3.5), CTX)


# ---------------------------------------------------------------------------
# spectra of the two triples


def test_odd_spectrum_pairing_and_oracle():
    for wp in WPS:
        table = odd_triple_spectrum(wp, hi(20))
        for ev, mult in table.rows:
            assert table.multiplicity(-ev) == mult
            # ev = ±2(j+1), so the shifted level is j + 1 = |ev|/2
            assert mult == dim_V_down_oracle(wp, hi(abs(ev) / 2))


def test_odd_spectrum_unit_weights():
    table = odd_triple_spectrum(WeightPair(1, 1), hi(4))
    assert [(ev, m) for ev, m in table.rows if ev > 0] == [
        (2.0, 2),
        (4.0, 4),
        (6.0, 6),
        (8.0, 8),
        (10.0, 10),
    ]


def test_even_spectrum_examples():
    table = even_triple_spectrum(WeightPair(1, 1), hi(3))
    assert table.rows == (
        (-4.0, 7),
        (-3.0, 5),
        (-2.0, 3),
        (-1.0, 1),
        (1.0, 1),
        (2.0, 3),
        (3.0, 5),
        (4.0, 7),
    )
    for wp in WPS:
        assert even_triple_spectrum(wp, hi(0)).rows == ((-1.0, 1), (1.0, 1))
    table = even_triple_spectrum(WeightPair(2, 3), hi(12))
    for ev, mult in table.rows:
        assert mult == dim_V_oracle(WeightPair(2, 3), hi(abs(ev) - 1))


def test_spectrum_totals_match_enumeration():
    pairs = [
        WeightPair(k, l)
        for k in range(1, 7)
        for l in range(1, 7)
        if k + l <= 7 and math.gcd(k, l) == 1
    ]
    for wp in pairs:
        table = odd_triple_spectrum(wp, hi(20))
        # rows at ±2(j+1) for j <= 20 count the down labels at levels 1..21
        downs = [
            x
            for x in coinvariant_spinor_basis(wp, hi(21))
            if x.arrow == "down" and x.j.twice >= 2
        ]
        assert table.total() == 2 * len(downs)
        table = even_triple_spectrum(wp, hi(20))
        assert table.total() == 2 * len(coinvariant_coord_basis(wp, hi(20)))


def test_spectrum_table_validation():
    with pytest.raises(ValueError):
        SpectrumTable(((1.0, 0),))
    with pytest.raises(ValueError):
        SpectrumTable(((2.0, 1), (1.0, 1)))


def test_spectrum_serialization():
    table = even_triple_spectrum(WeightPair(1, 1), hi(1))
    csv = table.to_csv_text()
    assert csv.splitlines()[0] == "eigenvalue,multiplicity"
    assert len(csv.splitlines()) == 1 + len(table.rows)
    import json

    data = json.loads(table.to_json_text())
    assert data[0]["multiplicity"] == table.rows[0][1]


# ---------------------------------------------------------------------------
# summability


@pytest.mark.parametrize("triple", ["odd", "even"])
def test_summability_monotone(triple):
    wp = WeightPair(1, 2)
    values = [summability_partial_sum(wp, n, triple) for n in (8, 16, 32, 64)]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("triple", ["odd", "even"])
@pytest.mark.parametrize("wp", WPS, ids=str)
def test_summability_matches_halfint_dimension_sum(wp, triple):
    # the sum over the doubled-int cores, bitwise against one over the HalfInt wrappers
    for N, exponent in ((1, 2), (7.5, 2), (512, 2), (2048, 3)):
        expected = 0.0
        for t in range(int(2 * N) + 1):
            if triple == "odd":
                ev, mult = t + 2.0, dim_V_down(wp, HalfInt(t + 2))
            else:
                ev, mult = t / 2.0 + 1, dim_V(wp, HalfInt(t))
            if mult:
                expected += 2.0 * mult * ev ** (-exponent)
        got = summability_partial_sum(wp, N, triple, exponent)
        assert got.hex() == expected.hex(), (N, exponent)


@pytest.mark.parametrize("triple", ["odd", "even"])
@pytest.mark.parametrize("wp", WPS, ids=str)
def test_summability_log_divergence(wp, triple):
    s512 = summability_partial_sum(wp, 512, triple)
    s1024 = summability_partial_sum(wp, 1024, triple)
    s2048 = summability_partial_sum(wp, 2048, triple)
    d1, d2 = s1024 - s512, s2048 - s1024
    assert abs(d1 / d2 - 1.0) < 0.05


@pytest.mark.parametrize("triple", ["odd", "even"])
@pytest.mark.parametrize("wp", WPS, ids=str)
def test_summability_cube_converges(wp, triple):
    s512 = summability_partial_sum(wp, 512, triple, exponent=3)
    s1024 = summability_partial_sum(wp, 1024, triple, exponent=3)
    s2048 = summability_partial_sum(wp, 2048, triple, exponent=3)
    d1, d2 = s1024 - s512, s2048 - s1024
    assert d2 < d1
    assert d2 < 0.01 * s512


# ---------------------------------------------------------------------------
# commutator boundedness evidence


def _multiply_reference(element, base, ctx):
    """Left multiplication on the orthonormal GNS vectors of ``base``: multiply
    the element into each vector and divide every coefficient by the norm of
    its target t^lam_mn."""
    def norm(idx):
        return ctx.q**idx.m.float * math.sqrt(q_int(2 * idx.lam + 1, ctx))

    pos = {idx: i for i, idx in enumerate(base)}
    mat = np.zeros((len(base), len(base)), dtype=complex)
    for col, idx in enumerate(base):
        vector = AlgebraElement.basis(idx, norm(idx))
        for tgt, c in multiply(element, vector, ctx).terms.items():
            if tgt in pos:
                mat[pos[tgt], col] += c / norm(tgt)
    return mat


GNS_ELEMENTS = [("alpha", None), ("beta", None), ("one", None)] + [
    (name, wp) for wp in ((1, 1), (1, 2), (2, 3), (3, 5)) for name in ("a", "b")
]
GNS_IDS = [name if wp is None else f"{name}-{wp[0]},{wp[1]}" for name, wp in GNS_ELEMENTS]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("name, wp", GNS_ELEMENTS, ids=GNS_IDS)
def test_gns_multiplication_matrix_matches_multiply(name, wp, q):
    # the reference multiplies at tol 1e-300, so that it prunes nothing; the
    # generators act on every shell up to 3, and pi(a), pi(b) are the
    # even-triple operators on the degree-0 basis up to lam 5
    ref_ctx = QContext(q, 1e-300)
    ctx = QContext(q, 1e-9)
    if wp is None:
        alpha, beta, _, _ = gens(ref_ctx)
        element = {"alpha": alpha, "beta": beta, "one": unit()}[name]
        labels = _gns_labels(hi(3))
        base = [BasisIndex(HalfInt(tl), HalfInt(tm), HalfInt(tn))
                for tl, tm, tn in np.array(labels).T.tolist()]
        got = np.zeros((len(base), len(base)))
        rows, cols, vals = gns_multiplication(element, labels, ctx)
        np.add.at(got, (rows, cols), vals)
    else:
        wp = WeightPair(*wp)
        element = dict(zip("ab", wp_gens(wp, ref_ctx)))[name]
        ops = even_triple_operators(wp, hi(5), ctx)
        B = len(ops["basis"]) // 2
        base = [idx for idx, _ in ops["basis"][:B]]
        full = ops[f"pi_{name}"]
        assert (full[B:, B:] == full[:B, :B]).all()
        assert not full[:B, B:].any() and not full[B:, :B].any()
        got = full[:B, :B]
    expected = _multiply_reference(element, base, ref_ctx)
    assert np.abs(expected).max() > 0
    assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


def test_commutator_norm_identity_is_zero():
    assert commutator_norm("one", hi(4), CTX) == 0.0


def test_gns_multiplication_edge_cases():
    with pytest.raises(ValueError):
        commutator_norm("gamma", hi(4), CTX)
    rows, cols, vals = gns_multiplication(unit(), np.zeros((3, 0), dtype=int), CTX)
    assert rows.size == cols.size == vals.size == 0
    # images outside the labels are dropped: alpha sends shell 0 to shell 1/2 only
    rows, cols, vals = gns_multiplication(gens(CTX)[0], _gns_labels(hi(0)), CTX)
    assert rows.size == 0


def test_commutator_norm_plateau_small():
    n10 = commutator_norm("alpha", hi(10), CTX)
    n20 = commutator_norm("alpha", hi(20), CTX)
    assert n20 >= n10 - 1e-12  # the cap-10 block is a submatrix of the cap-20 one
    assert abs(n20 - n10) / n10 < 0.01


def _doubled_commutator_interior(gen, cap):
    """The interior block of [Q, Pi] on two GNS copies, built explicitly."""
    labels = _gns_labels(hi(cap))
    shells = labels[0]
    alpha, beta, _, _ = gens(CTX)
    rows, cols, vals = gns_multiplication(alpha if gen == "alpha" else beta, labels, CTX)
    P = sp.csr_matrix((vals, (rows, cols)), shape=(shells.size, shells.size))
    D = sp.diags(shells / 2.0 + 1.0)
    Q = sp.bmat([[None, D], [D, None]], format="csr")
    Pi = sp.bmat([[P, None], [None, P]], format="csr")
    comm = (Q @ Pi - Pi @ Q).tocsc()
    interior = np.concatenate([shells <= 2 * cap - 1] * 2)
    return comm[:, np.flatnonzero(interior)].toarray()


@pytest.mark.parametrize("cap", [2, 3, 4, 5])
@pytest.mark.parametrize("gen", ["alpha", "beta"])
def test_commutator_norm_matches_doubled_operator(gen, cap):
    expected = np.linalg.norm(_doubled_commutator_interior(gen, cap), 2)
    assert commutator_norm(gen, hi(cap), CTX) == pytest.approx(expected, rel=1e-13)


def test_sparse_operator_norm_matches_dense():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in (3, 3, 1, 4)]
    mat = sp.block_diag(blocks, format="csr")
    perm = rng.permutation(mat.shape[1])
    mats = [
        mat[:, perm],
        sp.csr_matrix((5, 7)),
        sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, -3.0]])),
    ]
    for m in mats:
        dense = np.linalg.norm(m.toarray(), 2)
        assert operator_norm(m) == pytest.approx(dense, rel=1e-13, abs=0.0)


def test_commutator_norm_beta_bounded():
    n = commutator_norm("beta", hi(10), CTX)
    assert 0.1 < n < 1.0


# ---------------------------------------------------------------------------
# even triple: chirality and Fredholm degeneracy


@pytest.mark.parametrize("wp", WPS, ids=str)
def test_chirality_exact(wp):
    report = chirality_checks(wp, hi(3), CTX)
    assert report["max"] < 1e-12


@pytest.mark.parametrize("wp", WPS, ids=str)
def test_fredholm_exact(wp):
    report = fredholm_degeneracy(wp, hi(3), CTX)
    assert report["max"] < 1e-12


def test_even_triple_operators_structure():
    ops = even_triple_operators(WeightPair(1, 1), hi(2), CTX)
    # two copies of the degree-0 basis, each operator a square array on it
    base = coinvariant_coord_basis(WeightPair(1, 1), hi(2))
    assert ops["basis"] == tuple((i, "up") for i in base) + tuple((i, "down") for i in base)
    for name in ("D", "omega", "F", "pi_a", "pi_b"):
        assert isinstance(ops[name], np.ndarray)
        assert ops[name].shape == (2 * len(base), 2 * len(base))
    d = ops["D"]
    evals = np.sort(np.linalg.eigvalsh(d))
    # eigenvalues ±(lam+1) with multiplicity dim V_lam
    expected = []
    for tl in range(0, 5):
        mult = dim_V_oracle(WeightPair(1, 1), hi(tl / 2))
        expected += [tl / 2.0 + 1.0] * mult + [-(tl / 2.0 + 1.0)] * mult
    assert np.allclose(evals, np.sort(expected), atol=1e-12)


@pytest.mark.parametrize("q", [0.3, 0.5])
def test_even_triple_pi_a_is_hermitian(q):
    # a = beta beta^* is self-adjoint; pi(a) is built from (1, lam)
    # Clebsch-Gordan blocks, whose errors show up as non-Hermitian entries
    ops = even_triple_operators(WeightPair(1, 2), 10, QContext(q, 1e-9))
    keep = [i for i, (idx, _) in enumerate(ops["basis"]) if idx.lam.twice <= 18]
    p = ops["pi_a"][np.ix_(keep, keep)]
    assert np.abs(p - p.conj().T).max() <= 1e-11


def test_coinvariant_spinors_are_ambient_eigenvectors():
    # the coinvariant labels are legal ambient kets whose legs carry the
    # degrees cancelling the spin-1/2 coaction orders (-k on e_+, l on e_-);
    # the ambient Dirac is diagonal on them, and after the +1/2 shift the
    # eigenvalue is exactly ±2(j+1)
    for wp in WPS:
        for idx in coinvariant_spinor_basis(wp, hi(3)):
            vec = spinor_vector(idx, CTX)
            for term in vec.plus.terms:
                assert degree(wp, term) == wp.k
            for term in vec.minus.terms:
                assert degree(wp, term) == -wp.l
            j = float(idx.j)
            if idx.arrow == "up":
                ambient = 2 * j + 1.5
                assert ambient + 0.5 == 2 * (j + 1)
            else:
                ambient = -(2 * j + 0.5)
                assert ambient + 0.5 == -2 * ((j - 1) + 1)


def test_truncated_operator_shape_check():
    with pytest.raises(ValueError):
        TruncatedOperator(("a", "b"), np.zeros((3, 3)))
