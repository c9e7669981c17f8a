"""Spectral triples: spinor basis, spectra, summability, commutators, grading."""

import functools
import gc
import inspect
import math
import pickle
import re
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwps import cg, cli, dirac, exact, qcore
from qwps.cg import cg_coeff_updown
from qwps.coaction import coinvariant_coord_basis, degree, spinor_degree, wp_gens
from qwps.coord import AlgebraElement, BasisIndex, gens, inner, multiply, right_act, unit
from qwps.dirac import (
    SpinorBasisIndex,
    _slot,
    chirality_checks,
    coinvariant_spinor_basis,
    commutator_norm,
    even_triple_operators,
    fredholm_degeneracy,
    gns_multiplication,
    q_dirac_check,
    spinor_legs,
)
from qwps.exact import (
    HalfInt,
    QContext,
    SpectrumTable,
    WeightPair,
    dim_V_doubled,
    dim_V_down_doubled,
    dim_V_down_oracle,
    dim_V_oracle,
    even_triple_spectrum,
    hi,
    odd_triple_spectrum,
    summability_partial_sum,
)
from qwps.operators import TruncatedOperator, gram_norm, operator_norm
from qwps.qcore import q_int, weight_range

CTX = QContext(0.5, 1e-9)
WPS = [WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3)]


# ---------------------------------------------------------------------------
# reference: the ambient labels built from HalfInts, and each spinor as a pair
# of algebra elements, acted on word by word


def spinor_basis(j_max):
    """The former ambient enumeration, kept as the reference: all spinor labels
    with j <= j_max, ordered (j, arrow, m, mu), built from HalfInts."""
    j_max = hi(j_max)
    out = []
    for tj in range(0, j_max.twice + 1):
        j = HalfInt(tj)
        for arrow in ("down", "up"):
            if arrow == "down" and tj == 0:
                continue
            lam = HalfInt(tj + (1 if arrow == "up" else -1))
            for m in weight_range(lam):
                for mu in weight_range(j):
                    out.append(SpinorBasisIndex(j, m, mu, arrow))
    return out


def reference_legs(idx, ctx):
    """spinor_legs as it was computed on HalfInts, with cg_coeff_updown's former
    body: the exponents -(j+mu).float/2 and (j-mu).float/2, the q-integers
    [2j], [j-mu] and [j+mu] read from HalfInts."""
    down = idx.arrow == "down"
    j, mu, q = (idx.j if down else idx.j + 1), idx.mu, ctx.q
    denom = q_int(2 * j, ctx)
    c = q ** (-(j + mu).float / 2.0) * math.sqrt(q_int(j - mu, ctx) / denom)
    s = q ** ((j - mu).float / 2.0) * math.sqrt(q_int(j + mu, ctx) / denom)
    minus, plus = (c, s) if down else (-s, c)
    tl, tm, tmu = idx.lam.twice, idx.m.twice, idx.mu.twice
    return [
        (sign, BasisIndex.doubled(tl, tm, tn), coeff)
        for sign, tn, coeff in (("-", tmu + 1, minus), ("+", tmu - 1, plus))
        if abs(tn) <= tl
    ]


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
    # the doubled constructor refuses the same labels with the same messages
    for args, message in [((0, 1, 0, "down"), "down vectors need j >= 1/2, got j = 0"),
                          ((2, 0, 4, "up"), "mu = 2 out of range for j = 1"),
                          ((2, 0, 1, "up"), "mu = 1/2 out of range for j = 1"),
                          ((1, 3, 1, "up"), "m = 3/2 out of range for arrow up, j = 1/2"),
                          ((3, 1, 1, "down"), "m = 1/2 out of range for arrow down, j = 3/2")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SpinorBasisIndex.doubled(*args)


def test_spinor_index_is_a_doubled_tuple():
    idx = SpinorBasisIndex(hi(1.5), hi(-1), hi(0.5), "down")
    assert idx == SpinorBasisIndex.doubled(3, -2, 1, "down") == (3, -2, 1, "down")
    assert hash(idx) == hash(SpinorBasisIndex.doubled(3, -2, 1, "down"))
    assert len({idx, SpinorBasisIndex.doubled(3, -2, 1, "down")}) == 1
    assert idx != SpinorBasisIndex.doubled(3, -2, 1, "up")
    assert (idx.j, idx.m, idx.mu, idx.arrow, idx.lam) == (hi(1.5), hi(-1), hi(0.5), "down", hi(1))
    assert all(type(x) is int for x in idx[:3])
    assert pickle.loads(pickle.dumps(idx)) == idx


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
def test_spinor_legs_equal_the_halfint_computation(q):
    ctx = QContext(q, 1e-9)
    for idx in spinor_basis(hi(4)):
        got, expected = spinor_legs(idx, ctx), reference_legs(idx, ctx)
        assert [(sign, t, c.hex()) for sign, t, c in got] == \
            [(sign, t, c.hex()) for sign, t, c in expected], idx


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


def test_q_dirac_refuses_a_negative_cap():
    with pytest.raises(ValueError, match="j_max must be >= 0, got -1"):
        q_dirac_check(hi(-1), CTX)


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


@pytest.mark.parametrize("tj", range(7))
def test_q_dirac_check_reads_the_former_labels(monkeypatch, tj):
    # shell by shell, lam ascending, the labels with m = lam of the former
    # enumeration in its order: the up labels at j = lam - 1/2 before the
    # down labels at j = lam + 1/2, mu ascending
    top = [idx for idx in spinor_basis(hi(tj / 2)) if idx.m == idx.lam]
    read, legs = [], dirac.spinor_legs
    monkeypatch.setattr(dirac, "spinor_legs", lambda idx, ctx: read.append(idx) or legs(idx, ctx))
    q_dirac_check(hi(tj / 2), CTX)
    assert read == [idx for lam in sorted({idx.lam for idx in top}) for idx in top if idx.lam == lam]
    assert all(type(idx) is SpinorBasisIndex for idx in read)


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


COPRIME_PAIRS = [WeightPair(k, s - k) for s in range(2, 13) for k in range(1, s)
                 if math.gcd(k, s - k) == 1]


def reference_spectrum_rows(wp, triple, cap):
    """The spectrum as merged from each shell's ± pair: every (eigenvalue,
    multiplicity) pair summed by eigenvalue, zero multiplicities dropped, and
    sorted, as the former SpectrumTable.from_pairs built it."""
    ts = range(hi(cap).twice + 1)
    if triple == "odd":
        shells = zip([t + 2.0 for t in ts], [dim_V_down_doubled(wp, t + 2) for t in ts])
    else:
        shells = zip([t / 2.0 + 1 for t in ts], [dim_V_doubled(wp, t) for t in ts])
    merged = {}
    for ev, mult in [(sign * ev, mult) for ev, mult in shells for sign in (1, -1)]:
        if mult:
            merged[ev] = merged.get(ev, 0) + mult
    return tuple(sorted(merged.items()))


@pytest.mark.parametrize("triple", ["odd", "even"])
@pytest.mark.parametrize("wp", COPRIME_PAIRS, ids=str)
def test_spectrum_rows_equal_the_merged_pairs(wp, triple):
    spectrum = odd_triple_spectrum if triple == "odd" else even_triple_spectrum
    for cap in (t / 2 for t in range(41)):
        rows, want = spectrum(wp, cap).rows, reference_spectrum_rows(wp, triple, cap)
        assert rows == want and repr(rows) == repr(want), cap


@pytest.mark.parametrize("bad", ["", "Odd", "both", None, ["odd"]])
def test_a_triple_is_refused_unless_odd_or_even(bad):
    message = f"triple must be 'odd' or 'even', got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        summability_partial_sum(WeightPair(1, 2), 4, bad)
    # the cap and N are refused first
    with pytest.raises(ValueError, match="N must be >= 1"):
        summability_partial_sum(WeightPair(1, 2), 0, bad)
    with pytest.raises(ValueError, match="not a half-integer"):
        summability_partial_sum(WeightPair(1, 2), 0.3, bad)


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


# the relative error summability_partial_sum's docstring states past its head
SUMMABILITY_RTOL = 2e-15
# the loop's exact sums are fixed-point integers in units of 1/SUMMABILITY_ONE:
# each of at most 8193 terms is cut by less than one unit, so by < 1e-36 in all
SUMMABILITY_ONE = 10**40


@functools.cache
def summability_loop(wp, triple):
    """A loop that calls an int core per shell, summing 2 mult ev^-2 and
    2 mult ev^-3: {N: (float sums, exact sums)} at its cuts.  N = 1 and 7.5 lie
    in the head, where the function must return the float sums bitwise; at 513,
    2047.5 and 4096 the exact sums are Fractions."""
    cuts = {2: 1, 15: 7.5, 1026: 513, 4095: 2047.5, 8192: 4096}  # 2N: N
    # ev = (t + 2)/scale, so 2 mult ev^-e = 2 mult scale^e / (t + 2)^e
    scale = 1 if triple == "odd" else 2
    sums, square, cube, exact_square, exact_cube = {}, 0.0, 0.0, 0, 0
    for t in range(max(cuts) + 1):
        if triple == "odd":
            ev, mult = t + 2.0, dim_V_down_doubled(wp, t + 2)
        else:
            ev, mult = t / 2.0 + 1, dim_V_doubled(wp, t)
        if mult:
            square += 2.0 * mult * ev ** (-2)
            cube += 2.0 * mult * ev ** (-3)
            exact_square += 2 * mult * scale**2 * SUMMABILITY_ONE // (t + 2) ** 2
            exact_cube += 2 * mult * scale**3 * SUMMABILITY_ONE // (t + 2) ** 3
        if t in cuts:
            sums[cuts[t]] = (square, cube), (Fraction(exact_square, SUMMABILITY_ONE),
                                             Fraction(exact_cube, SUMMABILITY_ONE))
    return sums


def summability_errors(func, wp, triple):
    """Relative errors of ``func`` against the loop's exact sums at the cuts
    past the head, both exponents."""
    return [abs(Fraction(func(wp, N, triple, exponent)) - ref) / ref
            for N, (_, refs) in summability_loop(wp, triple).items() if N > 7.5
            for exponent, ref in zip((2, 3), refs)]


@pytest.mark.parametrize("triple", ["odd", "even"])
@pytest.mark.parametrize("wp", COPRIME_PAIRS, ids=str)
def test_summability_matches_halfint_dimension_sum(wp, triple):
    # within the head the one-sweep sum is bitwise the loop's running sums;
    # past it the Euler-Maclaurin tail is within the stated bound of the exact sums
    sums = summability_loop(wp, triple)
    for N in (1, 7.5):
        (square, cube), _ = sums[N]
        assert summability_partial_sum(wp, N, triple).hex() == square.hex(), N
        assert summability_partial_sum(wp, N, triple, exponent=3).hex() == cube.hex(), N
    assert max(summability_errors(summability_partial_sum, wp, triple)) <= SUMMABILITY_RTOL


def mutated_summability(old, new):
    """summability_partial_sum from a copy of the exact namespace in which its
    source has ``old`` replaced by ``new``; the module itself is untouched."""
    namespace = dict(vars(exact))
    source = inspect.getsource(exact.summability_partial_sum)
    assert source.count(old) == 1, old
    exec(source.replace(old, new), namespace)
    return namespace["summability_partial_sum"]


@pytest.mark.parametrize("mutant", [f"B{2 * j}" for j in range(1, 5)] + ["K+1", "K-1"])
def test_summability_error_check_fails_on_mutants(monkeypatch, mutant):
    # B_2 ... B_8 scaled by 1 + 1e-3; the later ones so scaled move a term at
    # x >= 10 by less than the bound, below what a double sum can show
    func = summability_partial_sum
    if mutant.startswith("B"):
        j = int(mutant[1:]) // 2
        monkeypatch.setattr(exact, "_EM_COEFFS", {
            s: [c * (1 + 1e-3) if i == j else c for i, c in enumerate(coeffs, 1)]
            for s, coeffs in exact._EM_COEFFS.items()})
    else:  # each class's shell count K_r off by one
        new = {"K+1": "// period + 2 -", "K-1": "// period -"}[mutant]
        func = mutated_summability("// period + 1 -", new)
    errors = [e for wp in WPS for triple in ("odd", "even")
              for e in summability_errors(func, wp, triple)]
    assert max(errors) > SUMMABILITY_RTOL


@pytest.mark.parametrize("triple", ["odd", "even"])
def test_summability_refuses_other_exponents(triple):
    for exponent in (1, 4, 2.5):
        with pytest.raises(ValueError, match=f"exponent must be 2 or 3, got {exponent!r}"):
            summability_partial_sum(WeightPair(1, 2), 4, triple, exponent)


@pytest.mark.parametrize("core", [dim_V_down_doubled, dim_V_doubled])
def test_int_cores_are_linear_on_each_residue_class(core):
    # the summability sums read two periods of each core and step each class
    for wp in COPRIME_PAIRS:
        period = 2 * wp.s
        for t in range(period):
            first, second, third = (core(wp, t + n * period) for n in range(3))
            assert third - second == second - first, (wp, t)


@pytest.mark.parametrize("core", [dim_V_down_doubled, dim_V_doubled])
@settings(deadline=None)
@given(ks=st.integers(2, 10_000).flatmap(lambda s: st.tuples(st.integers(1, s - 1), st.just(s))),
       t=st.integers(0, 10**12))
def test_int_cores_are_linear_on_residue_classes_of_large_pairs(core, ks, t):
    # the one assumption of the summability tail, past the pairs pinned above
    k, s = ks
    assume(math.gcd(k, s) == 1)
    wp, period = WeightPair(k, s - k), 2 * s
    first, second, third = (core(wp, t + n * period) for n in range(3))
    assert third - second == second - first


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


def _gns_labels(lam_cap: HalfInt) -> tuple:
    """Doubled (lam, m, n) of every GNS vector with lam <= lam_cap, in that order."""
    size = np.arange(1, lam_cap.twice + 2) ** 2
    tl = np.repeat(np.arange(lam_cap.twice + 1), size)
    i = np.arange(tl.size) - np.repeat(np.cumsum(size) - size, size)
    return tl, 2 * (i // (tl + 1)) - tl, 2 * (i % (tl + 1)) - tl


def _reference_gns_images(element, labels, ctx):
    """gns_multiplication's former core: the images of the columns ``labels``,
    one (2 mu, 2 m', 2 n', vals) per term, each factor read per label from the
    coupling lists laid end to end; vals has a row per mu-shift and a column
    per label, and is 0 where the coupling or the weight window forbids the
    image."""
    tl, tm, tn = labels
    reach = max((idx[0] for idx in element.terms), default=0)
    top = int(tl.max())
    qdim = np.array([q_int(t + 1, ctx) for t in range(top + reach + 1)])
    shells = np.flatnonzero(np.bincount(tl, minlength=top + 1))
    coeffs = np.array(list(element.terms.values()), dtype=complex)
    if not coeffs.imag.any():
        coeffs = coeffs.real
    shell_list = shells.tolist()
    couplings = cg.cg_blocks({idx[0] for idx in element.terms}, shell_list, ctx)
    images = []
    for (l2, a, b), c in zip(element.terms, coeffs):
        blocks = [couplings[l2, s] for s in shell_list]
        leg_m, leg_n = (np.fromiter(chain.from_iterable(chain.from_iterable(
            blk[(w + l2) // 2] for blk in blocks)), float) for w in (a, b))
        width = np.minimum(l2, np.arange(top + 1)) + 1
        size = (shells + 1) * width[shells]
        start = np.zeros(top + 1, dtype=int)
        start[shells] = np.cumsum(size) - size
        m2, n2 = a + tm, b + tn
        mu = tl + np.arange(-l2, l2 + 1, 2)[:, None]
        shift, col = np.nonzero((mu >= np.abs(l2 - tl)) & (np.abs(m2) <= mu) & (np.abs(n2) <= mu))
        s, t = tl[col], mu[shift, col]
        base = start[s] - np.maximum(l2 - s, 0) + shift
        cm = leg_m[base + (tm[col] + s) // 2 * width[s]]
        cn = leg_n[base + (tn[col] + s) // 2 * width[s]]
        vals = np.zeros(mu.shape, dtype=coeffs.dtype)
        vals[shift, col] = c * (ctx.q ** (-a / 2.0) * np.sqrt(qdim[s] / qdim[t])) * (cm * cn)
        images.append((mu, m2, n2, vals))
    return images


def _reference_gns_multiplication(element, labels, ctx):
    """gns_multiplication's former path: the triplets of the per-label images."""
    tl, tm, tn = labels = tuple(np.asarray(x, dtype=int) for x in labels)
    out = [(np.zeros(0, int), np.zeros(0, int), np.zeros(0))]
    top = int(tl.max())
    position = np.full(_slot(top + 1, -top - 1, -top - 1), -1)
    position[_slot(tl, tm, tn)] = np.arange(tl.size)
    for mu, m2, n2, vals in _reference_gns_images(element, labels, ctx):
        shift, col = np.nonzero((mu <= top) & (vals != 0))
        row = position[_slot(mu[shift, col], m2[col], n2[col])]
        keep = row >= 0
        out.append((row[keep], col[keep], vals[shift[keep], col[keep]]))
    return tuple(np.concatenate(part) for part in zip(*out))


def _assert_same_triplets(element, labels, ctx):
    got = gns_multiplication(element, labels, ctx)
    expected = _reference_gns_multiplication(element, labels, ctx)
    for part, ref in zip(got, expected):
        assert part.dtype == ref.dtype and part.tobytes() == ref.tobytes()


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_gns_multiplication_equals_per_label_reference(q):
    # bit for bit: the even triple's pi(a), pi(b) on its labels, and every
    # generator, its adjoint and the unit on all shells up to 12
    ctx = QContext(q, 1e-9)
    for wp in (WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3), WeightPair(1, 16)):
        labels = np.array(coinvariant_coord_basis(wp, hi(6)), dtype=int).T
        for element in wp_gens(wp, ctx):
            _assert_same_triplets(element, labels, ctx)
    labels = _gns_labels(hi(12))
    for element in (*gens(ctx), unit()):
        _assert_same_triplets(element, labels, ctx)


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
    for cap in (1, 1.5, 2, 2.5, 3, 4, 5.5, 6, 8, 12, 16, 20):
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
    """Sparse A whose Gram blocks tie or nearly tie for the largest eigenvalue, at
    the edges of a Gershgorin screen like commutator_norm's; gram_norm solves
    every block, and must still return the reference norm on them."""
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


@pytest.mark.parametrize("gen, solved", [("alpha", 219), ("beta", 950)])
def test_commutator_norm_eigensolves_only_screened_blocks(monkeypatch, gen, solved):
    # at cap 16 C*C has 1,985 nonempty weight blocks; the Gershgorin screen
    # keeps 379 (alpha) and 950 (beta) at q = 0.5.  alpha's blocks (m, n) and
    # (n, m) are the same matrix, so of its 379 only the 59 with m = n and
    # one of each other pair, 160, go to eigvalsh
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(stack):
        seen.append(stack.shape[0])
        return eigvalsh(stack)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    commutator_norm(gen, hi(16), CTX)
    assert sum(seen) == solved


def test_commutator_norm_guard(monkeypatch):
    # refused by name before any factor is read: cap 1000 once asked for 2.7e9 labels
    def unreachable(*args):
        raise AssertionError("the guard let the cap through")

    monkeypatch.setattr(dirac, "_gns_factors", unreachable)
    with pytest.raises(ValueError, match="cost guard"):
        commutator_norm("alpha", dirac.COMMUTATOR_GUARD + hi(0.5), CTX)


def test_commutator_norm_peak_memory():
    # the tracemalloc peak of alpha at cap 40 with its blocks built: 9.17 MiB,
    # bounded here at 10 % more.  With per-label images and one buffer for
    # every kept Gram block it was 68.3 MiB
    commutator_norm("alpha", hi(40), CTX)
    gc.collect()
    tracemalloc.start(1)
    try:
        commutator_norm("alpha", hi(40), CTX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 9.17 * 2**20


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


@pytest.mark.parametrize("cap", [-1, -0.5])
@pytest.mark.parametrize("entry", [even_triple_operators, chirality_checks, fredholm_degeneracy])
def test_even_triple_refuses_a_negative_cap(entry, cap):
    with pytest.raises(ValueError, match=f"lam_max must be >= 0, got {hi(cap)}"):
        entry(WeightPair(1, 1), cap, CTX)


def _retained_by_cg_and_qcore(snapshot) -> int:
    ours = [tracemalloc.Filter(True, mod.__file__, all_frames=True) for mod in (cg, qcore)]
    return sum(t.size for t in snapshot.filter_traces(ours).traces)


def test_chirality_checks_retain_little_memory(monkeypatch):
    # counts what is still allocated, after the call, by code running in cg or
    # qcore: the block cache, filled from empty (the warm one comes back after
    # the test).  The blocks' coupling lists hold 0.6 MiB; with the irrep words
    # that qcore memoised beside them it was 0.9 MiB, and a dense matrix beside
    # each block's lists and complex words held 4.1 MiB
    monkeypatch.setattr(cg, "_cache", {})
    gc.collect()
    tracemalloc.start(4)  # deep enough to reach the cg or qcore frame of each allocation
    try:
        chirality_checks(WeightPair(1, 32), hi(5), QContext(0.5, 1e-9))
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _retained_by_cg_and_qcore(snapshot) < 0.75 * 2**20


def test_chirality_checks_peak_memory_from_an_empty_cache(monkeypatch):
    # the tracemalloc peak of a cold call: 5.58 MiB while each block was built
    # alone, bounded here at 10 % more.  A batch that held all of a request's
    # large blocks took the peak at (1, 127) from 12.4 to 22.8 MiB
    monkeypatch.setattr(cg, "_cache", {})
    gc.collect()
    tracemalloc.start(1)
    try:
        chirality_checks(WeightPair(1, 64), hi(5), QContext(0.5, 1e-9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 5.58 * 2**20


def test_clear_cache_releases_what_a_loop_over_q_retains(monkeypatch):
    # cg._cache is the one memo: after it is cleared, a caller that looped over
    # q keeps nothing in cg or qcore (0.002 MiB measured; 34.7 MiB while qcore
    # memoised every irrep word).  One traceback frame is enough, since every
    # cached object is allocated in a cg or qcore frame, and it halves the
    # tracing cost of the loop
    monkeypatch.setattr(cg, "_cache", {})
    gc.collect()
    tracemalloc.start(1)
    try:
        for i in range(20):
            chirality_checks(WeightPair(1, 64), hi(5), QContext(0.3 + 0.025 * i, 1e-9))
        cg.clear_cache()
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert _retained_by_cg_and_qcore(snapshot) < 0.5 * 2**20


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
