"""Spectral triples: spinor basis, spectra, summability, commutators, grading."""

import inspect
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse as sp

from qwps import cli, dirac
from qwps.cg import cg_coeff_updown
from qwps.coaction import coinvariant_coord_basis, degree, spinor_degree, wp_gens
from qwps.coord import AlgebraElement, BasisIndex, gens, inner, multiply, right_act, unit
from qwps.dirac import (
    SpinorBasisIndex,
    _gns_labels,
    chirality_checks,
    coinvariant_spinor_basis,
    commutator_norm,
    even_triple_operators,
    fredholm_degeneracy,
    gns_multiplication,
    q_dirac_check,
    spinor_basis,
    spinor_legs,
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
from qwps.operators import TruncatedOperator, gram_norm, operator_norm
from qwps.qcore import q_int

CTX = QContext(0.5, 1e-9)
WPS = [WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3)]


# ---------------------------------------------------------------------------
# reference: each spinor as a pair of algebra elements, acted on word by word


@dataclass(frozen=True)
class Spinor:
    """Element of coord ⊗ M_{1/2}, split into the e_- and e_+ components."""

    minus: AlgebraElement
    plus: AlgebraElement

    def __sub__(self, other):
        return Spinor(self.minus - other.minus, self.plus - other.plus)

    def __rmul__(self, scalar):
        return Spinor(scalar * self.minus, scalar * self.plus)

    def norm_inf(self) -> float:
        return max(self.minus.norm_inf(), self.plus.norm_inf())


def spinor_vector(idx, ctx):
    """Orthonormal spinor basis vector as an element of coord ⊗ M_{1/2}.

    down: q^m sqrt[2j^-+1] ( C_{j mu} t^{j-}_{m,mu+1/2} ⊗ e_-
                           + S_{j mu} t^{j-}_{m,mu-1/2} ⊗ e_+ )
    up:   q^m sqrt[2j^++1] ( -S_{j+1,mu} t^{j+}_{m,mu+1/2} ⊗ e_-
                           + C_{j+1,mu} t^{j+}_{m,mu-1/2} ⊗ e_+ )
    """
    lam = idx.lam
    scale = ctx.q ** idx.m.float * math.sqrt(q_int(2 * lam + 1, ctx))
    half = hi(0.5)
    if idx.arrow == "down":
        c, s = cg_coeff_updown(idx.j, idx.mu, ctx)
        minus_coeff, plus_coeff = c, s
        # C vanishes iff mu = j, S vanishes iff mu = -j (exact boundary cases)
        if idx.mu.twice == idx.j.twice:
            minus_coeff = 0.0
        if idx.mu.twice == -idx.j.twice:
            plus_coeff = 0.0
    else:
        c, s = cg_coeff_updown(idx.j + 1, idx.mu, ctx)
        minus_coeff, plus_coeff = -s, c
    minus = AlgebraElement()
    plus = AlgebraElement()
    if minus_coeff != 0.0:
        minus = AlgebraElement.basis(BasisIndex(lam, idx.m, idx.mu + half), scale * minus_coeff)
    if plus_coeff != 0.0:
        plus = AlgebraElement.basis(BasisIndex(lam, idx.m, idx.mu - half), scale * plus_coeff)
    return Spinor(minus, plus)


def q_dirac_reference(j_max, ctx):
    """The q^{-D} backward error, every spinor of the basis acted on by five
    two-letter right_act words."""
    j_max = hi(j_max)
    q = ctx.q
    lam_q = q - 1.0 / q
    pref = q**1.5
    ev_max = q ** (-(2 * j_max.float + 1.5))
    worst = 0.0
    for idx in spinor_basis(j_max):
        v = spinor_vector(idx, ctx)
        out_plus = pref * (
            right_act(("k", "k"), v.plus, ctx)
            + (lam_q**2 / q) * right_act(("f", "e"), v.plus, ctx)
            + (lam_q / q**0.5) * right_act(("f", "kinv"), v.minus, ctx)
        )
        out_minus = pref * (
            (lam_q / q**0.5) * right_act(("kinv", "e"), v.plus, ctx)
            + right_act(("kinv", "kinv"), v.minus, ctx)
        )
        if idx.arrow == "up":
            expected = q ** (-(2 * idx.j.float + 1.5))
        else:
            expected = q ** (2 * idx.j.float + 0.5)
        resid = (Spinor(out_minus, out_plus) - expected * v).norm_inf()
        worst = max(worst, resid / (ev_max * v.norm_inf()))
    return worst


def spinor_inner(a, b):
    """Inner product on coord ⊗ M_{1/2}: the Haar pairing summed over both legs."""
    return inner(a.minus, b.minus, CTX) + inner(a.plus, b.plus, CTX)


def leg_matrix(labels, ctx):
    """The labels' legs as the columns of one array, rows keyed by (sign, index)."""
    rows = {}
    cols = [{rows.setdefault((sign, t), len(rows)): c for sign, t, c in spinor_legs(idx, ctx)}
            for idx in labels]
    mat = np.zeros((len(rows), len(labels)))
    for col, legs in enumerate(cols):
        for row, c in legs.items():
            mat[row, col] = c
    return mat


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
    legs = spinor_legs(idx, CTX)
    # C vanishes at mu = j: only the e_+ leg, at n = mu - 1/2
    assert [(sign, t) for sign, t, _ in legs] == [("+", BasisIndex.of(0, 0, 0))]
    assert legs[0][2] > 0


@pytest.mark.parametrize("tj", range(0, 5))
def test_spinor_vectors_normalized(tj):
    # shell lam = tj/2 holds the up labels with j = lam - 1/2 and the down
    # labels with j = lam + 1/2; their legs are orthonormal there
    for q in (0.3, 0.5, 0.8):
        labels = [idx for idx in spinor_basis(hi(tj / 2 + 0.5)) if idx.lam.twice == tj]
        vecs = leg_matrix(labels, QContext(q, 1e-9))
        assert np.abs(vecs.T @ vecs - np.eye(len(labels))).max() <= 1e-15, q


def test_spinor_vectors_orthogonal():
    # the reference vectors, which are the legs times their GNS norms, are
    # orthogonal in the Haar inner product
    basis = spinor_basis(hi(1.5))
    vecs = [spinor_vector(i, CTX) for i in basis]
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            assert abs(spinor_inner(vecs[i], vecs[k])) < 1e-10


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_spinor_legs_match_reference_vectors(q):
    # each leg is the reference term divided by the GNS norm q^m sqrt([2lam+1])
    ctx = QContext(q, 1e-9)
    for idx in spinor_basis(hi(2)):
        ref = spinor_vector(idx, ctx)
        scale = q**idx.m.float * math.sqrt(q_int(2 * idx.lam + 1, ctx))
        expected = [("-", t, c) for t, c in ref.minus.terms.items()]
        expected += [("+", t, c) for t, c in ref.plus.terms.items()]
        assert [(sign, t, scale * c) for sign, t, c in spinor_legs(idx, ctx)] == expected


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
        legs = spinor_legs(idx, CTX)
        return all(degree(wp, t) + spinor_degree(wp, -wp.k, sign) == 0 for sign, t, _ in legs)

    brute = [idx for idx in spinor_basis(hi(4)) if coinvariant(idx)]
    for tj in range(9):
        fast = coinvariant_spinor_basis(wp, hi(tj / 2))
        assert fast == [idx for idx in brute if idx.j.twice <= tj]


# ---------------------------------------------------------------------------
# ambient spectrum and the q-Dirac block identity


@pytest.mark.parametrize("tj", range(0, 7))
def test_ambient_spectrum_counts(tj):
    # level 2j = t holds (t+1)(t+2) up and t(t+1) down labels, the multiplicities
    # of the classical Dirac eigenvalues t+3/2 and -(t+1/2)
    basis = spinor_basis(hi(tj / 2))
    for t in range(tj + 1):
        arrows = [idx.arrow for idx in basis if idx.j.twice == t]
        assert (arrows.count("up"), arrows.count("down")) == ((t + 1) * (t + 2), t * (t + 1))
    assert len(basis) == sum(2 * (t + 1) ** 2 for t in range(tj + 1))


def test_q_dirac_eigenvalues():
    assert q_dirac_check(hi(2), CTX) < CTX.tol


def test_q_dirac_guard():
    with pytest.raises(ValueError):
        q_dirac_check(hi(3.5), CTX)


def test_q_dirac_refuses_an_overflowing_block():
    # (q - 1/q)^2 / q overflows at 1e-150 and (q - 1/q)^2 itself at 1e-160; the
    # refusal comes last, so a q-integer overflowing in a later shell keeps its message
    for j_max, q, message in [(0, 1e-150, "the q^-D block overflows a double"),
                              (0, 1e-160, "the q^-D block overflows a double"),
                              (0.5, 1e-103, "the q-integer [3] overflows a double")]:
        with pytest.raises(ValueError, match=re.escape(f"q = {q:g}: {message}")):
            q_dirac_check(hi(j_max), QContext(q, 1e-9))


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("j_max", [0, 1, 2])
def test_q_dirac_matches_per_vector_reference(q, j_max):
    ctx = QContext(q, 1e-9)
    assert q_dirac_reference(hi(j_max), ctx) <= 1e-15
    assert q_dirac_check(hi(j_max), ctx) <= 1e-15


def mutated_q_dirac_check(func, old, new):
    """q_dirac_check from a copy of the module namespace in which ``func``'s
    source has ``old`` replaced by ``new``; the module itself is untouched."""
    namespace = dict(vars(dirac))
    source = inspect.getsource(func)
    assert source.count(old) == 1, old
    exec(source.replace(old, new), namespace)
    if func is not dirac.q_dirac_check:
        exec(inspect.getsource(dirac.q_dirac_check), namespace)
    return namespace["q_dirac_check"]


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_q_dirac_check_fails_on_mutants(q):
    ctx = QContext(q, 1e-9)
    flipped_fe = mutated_q_dirac_check(
        dirac.q_dirac_check, '+ (lam_q**2 / q) * rho("f", "e")', '- (lam_q**2 / q) * rho("f", "e")')
    swapped_up = mutated_q_dirac_check(dirac.spinor_legs, "else (-s, c)", "else (-c, s)")
    for mutant in (flipped_fe, swapped_up):
        assert mutant(hi(2), ctx) >= 0.1
    # the next down level's eigenvalue q^{2j+5/2}: the residual is scaled by the
    # largest eigenvalue q^{-(2 j_max + 3/2)}, so a down error reads largest at
    # large q and the smallest cap holding down labels
    shifted_down = mutated_q_dirac_check(
        dirac.q_dirac_check, "else idx.j.twice + 0.5", "else idx.j.twice + 2.5")
    if q == 0.8:
        assert shifted_down(hi(0.5), ctx) >= 0.1
    assert shifted_down(hi(2), ctx) > 1e3 * ctx.tol


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


def test_spectrum_serialization(capsys):
    # the table goes out through the command line writer
    table = even_triple_spectrum(WeightPair(1, 1), hi(1))
    argv = ["spectrum", "--triple", "even", "--k", "1", "--l", "1", "--lmax", "1"]
    assert cli.main(argv) == 0
    csv = capsys.readouterr().out
    assert csv.splitlines()[0] == "eigenvalue,multiplicity"
    assert len(csv.splitlines()) == 1 + len(table.rows)
    import json

    assert cli.main(argv + ["--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
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


def _reference_operator_norm(mat):
    """operator_norm's former sparse branch: Gram matrix, connected components,
    and one zero-filled stack per component size, filled through a mask over
    every Gram entry."""
    from scipy.sparse.csgraph import connected_components

    gram = (mat.conj().T @ mat).tocsr()
    n_comp, labels = connected_components(gram != 0, directed=False)
    gram = gram.tocoo()
    sizes = np.bincount(labels, minlength=n_comp)
    order = np.argsort(labels, kind="stable")
    pos = np.empty_like(labels)
    pos[order] = np.arange(labels.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    top = 0.0
    for size in np.unique(sizes):
        members = sizes == size
        slot = np.cumsum(members) - 1
        keep = members[labels[gram.row]]
        stack = np.zeros((int(members.sum()), size, size), dtype=gram.dtype)
        r, c = gram.row[keep], gram.col[keep]
        stack[slot[labels[r]], pos[r], pos[c]] = gram.data[keep]
        top = max(top, float(np.linalg.eigvalsh(stack).max()))
    return math.sqrt(top)


def _reference_commutator_norm(gen, cap, ctx):
    """commutator_norm's former path: the interior operator C as a CSR matrix,
    normed by _reference_operator_norm."""
    cap = hi(cap)
    labels = _gns_labels(cap)
    element = dict(zip(("alpha", "beta"), gens(ctx)), one=unit())[gen]
    rows, cols, vals = gns_multiplication(element, labels, ctx)
    shells = labels[0]
    interior = int(np.count_nonzero(shells <= cap.twice - 1))
    keep = cols < interior
    rows, cols = rows[keep], cols[keep]
    vals = (shells[rows] - shells[cols]) / 2.0 * vals[keep]
    return _reference_operator_norm(
        sp.csr_matrix((vals, (rows, cols)), shape=(shells.size, interior)))


@pytest.mark.parametrize("q", [0.1, 0.3, 0.5, 0.8, 0.95])
@pytest.mark.parametrize("gen", ["alpha", "beta", "one"])
def test_commutator_norm_equals_sparse_reference(gen, q):
    ctx = QContext(q, 1e-9)
    for cap in (1, 1.5, 2, 3, 4, 6, 8, 12, 16):
        assert commutator_norm(gen, hi(cap), ctx) == _reference_commutator_norm(gen, cap, ctx), cap


def test_sparse_operator_norm_equals_reference():
    rng = np.random.default_rng(7)
    mats = [sp.identity(801, format="csr"), sp.csr_matrix((6, 9))]
    for _ in range(50):
        sizes = rng.integers(1, 7, size=rng.integers(1, 12))
        blocks = [rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)) for s in sizes]
        mat = sp.block_diag(blocks, format="csr")
        mats.append(mat[rng.permutation(mat.shape[0])][:, rng.permutation(mat.shape[1])])
    for m in mats:
        assert operator_norm(m) == _reference_operator_norm(m)
    assert operator_norm(mats[0]) == 1.0 and operator_norm(mats[1]) == 0.0


def test_gram_norm_skips_empty_blocks():
    # blocks 0 and 2 are empty; block 1 holds [[2, 1], [1, 2]] (indices 2, 0),
    # whose top eigenvalue 3 beats block 3's [2.5]
    block, pos = np.array([1, 3, 1]), np.array([1, 0, 0])
    rows, cols = np.array([0, 2, 0, 2, 1]), np.array([0, 2, 2, 0, 1])
    vals = np.array([2.0, 2.0, 1.0, 1.0, 2.5])
    assert gram_norm(block, pos, rows, cols, vals) == pytest.approx(math.sqrt(3.0))
    assert gram_norm(np.zeros(0, int), np.zeros(0, int), rows[:0], cols[:0], vals[:0]) == 0.0


def _screen_cases():
    """Sparse A whose Gram blocks sit at the edges of gram_norm's Gershgorin screen."""
    rng = np.random.default_rng(11)
    unitary = lambda s: np.linalg.qr(  # noqa: E731
        rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s)))[0]
    return {
        # [[1, 1], [1, 1]] has row sum 2, exactly the diagonal of [[2]]
        "bound-equals-floor": sp.block_diag([[[1.0, 1.0]], [[1.0], [1.0]]], format="csr"),
        # [[1 + 2^-52]] beside [[1]]: the tops differ by 1 ulp, either way round
        "one-ulp-apart": sp.block_diag([[[1.0], [2.0**-26]], [[1.0]]], format="csr"),
        "one-ulp-apart-swapped": sp.block_diag([[[1.0]], [[1.0], [2.0**-26]]], format="csr"),
        # complex blocks with Gram 0.25 I up to rounding, so every bound is near floor
        "complex-ties": sp.block_diag([0.5 * unitary(s) for s in (1, 2, 3, 4, 3, 2)],
                                      format="csr"),
        "complex": sp.block_diag([rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
                                  for s in (3, 1, 4, 2)], format="csr"),
    }


@pytest.mark.parametrize("case", sorted(_screen_cases()))
def test_gram_norm_screen_is_exact(case):
    mat = _screen_cases()[case]
    assert operator_norm(mat) == _reference_operator_norm(mat)


def test_gram_norm_screen_edge_inputs():
    # an all-zero Gram matrix, and the empty input
    block, pos = np.array([0, 0, 1]), np.array([0, 1, 0])
    every = np.arange(3)
    assert gram_norm(block, pos, every, every, np.zeros(3)) == 0.0
    assert gram_norm(block[:0], pos[:0], every[:0], every[:0], np.zeros(0)) == 0.0


def test_gram_norm_keeps_a_zero_diagonal_block():
    # [[0, 1], [1, 0]] beside [[0.9]]: the norm comes from the block whose diagonal
    # is 0, so a screen that bounded a block by its diagonal would drop it
    block, pos = np.array([0, 0, 1]), np.array([0, 1, 0])
    rows, cols, vals = np.array([0, 1, 2]), np.array([1, 0, 2]), np.array([1.0, 1.0, 0.9])
    top = float(np.linalg.eigvalsh(np.array([[0.0, 1.0], [1.0, 0.0]])).max())
    assert gram_norm(block, pos, rows, cols, vals) == math.sqrt(top) == 1.0


@pytest.mark.parametrize("gen, solved", [("alpha", 379), ("beta", 950)])
def test_commutator_norm_eigensolves_only_screened_blocks(monkeypatch, gen, solved):
    # at cap 16 C*C has 1,985 nonempty weight blocks; the Gershgorin screen
    # leaves these many to eigvalsh at q = 0.5
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(stack):
        seen.append(stack.shape[0])
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    commutator_norm(gen, hi(16), CTX)
    assert sum(seen) == solved


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


@pytest.mark.parametrize("check", [chirality_checks, fredholm_degeneracy])
def test_even_triple_report_max_propagates_nan(monkeypatch, check):
    # pi(b) enters only the last residual, where Python's max dropped a NaN
    operators = dirac.even_triple_operators

    def nan_in_pi_b(wp, lam_max, ctx):
        ops = operators(wp, lam_max, ctx)
        ops["pi_b"][0, 0] = math.nan
        return ops

    monkeypatch.setattr(dirac, "even_triple_operators", nan_in_pi_b)
    report = check(WeightPair(1, 1), hi(1), CTX)
    assert math.isnan(report["commutes_pi_b"]) and not math.isnan(report["commutes_pi_a"])
    assert math.isnan(report["max"])


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
            for sign, term, _ in spinor_legs(idx, CTX):
                assert degree(wp, term) == (wp.k if sign == "+" else -wp.l)
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
