"""Teardrop operator models, block patterns, projection classes."""

import itertools
import math
import re

import numpy as np
import pytest

from qwps import teardrop
from qwps.exact import KTHEORY_GUARD, QContext, ktheory_class
from qwps.operators import operator_norm
from qwps.teardrop import (
    RELATION_WORK_GUARD,
    _ambient_word,
    block_structure_evidence,
    wp_relation_residuals,
    wp_rep,
    wp_rep_via_ambient,
)

CTX = QContext(0.5, 1e-9)
ORACLE_Q = [0.3, 0.5, 0.8, 0.9]


# ---------------------------------------------------------------------------
# dense references: the scalar loops and N x N products the entrywise
# evaluation replaced, kept to compare against bitwise


def reference_bstar_coeff(l, s, p, q):
    prod = 1.0
    for r in range(1, l + 1):
        prod *= math.sqrt(1.0 - q ** (2 * (l * p + s - r)))
    return q ** (l * p + s - 1) * prod


def reference_wp_rep(l, s, gen, N, q):
    mat = np.zeros((N, N), dtype=complex)
    if gen == "a":
        for p in range(N):
            mat[p, p] = q ** (2 * (l * p + s - 1))
    elif gen == "bstar":
        for p in range(1, N):
            mat[p - 1, p] = reference_bstar_coeff(l, s, p, q)
    else:
        for p in range(1, N):
            mat[p, p - 1] = reference_bstar_coeff(l, s, p, q)
    return mat


def reference_wp_relation_residuals(l, N, q):
    q_inv_2l = q ** (-2 * l)
    out = {}
    for s in range(1, l + 1):
        a, b, bs = (reference_wp_rep(l, s, gen, N, q) for gen in ("a", "b", "bstar"))
        eye = np.eye(N)

        def poly(factors):
            outm = eye.copy()
            for c in factors:
                outm = outm @ (eye + c * a)
            return outm

        rhs_bsb = q ** (2 * l) * a @ poly([-(q ** (2 * (mm + 1))) for mm in range(l)])
        rhs_bbs = a @ poly([-(q ** (-2 * (mm - 1))) for mm in range(1, l + 1)])
        out[f"s={s}"] = {
            "a_selfadjoint": float(np.abs(a - a.conj().T).max()),
            "a_bstar": operator_norm(a @ bs - q_inv_2l * bs @ a),
            "bstar_b_interior": operator_norm((bs @ b - rhs_bsb)[:, : N - 1]),
            "b_bstar": operator_norm(b @ bs - rhs_bbs),
        }
    out["max"] = max(v for d in out.values() for v in d.values())
    return out


@pytest.mark.parametrize("q", ORACLE_Q)
def test_wp_relations_match_dense_reference_bitwise(q):
    ctx = QContext(q, 1e-9)
    for l in (1, 2, 3, 4, 7):
        for N in (2, 8, 32, 64):
            got = wp_relation_residuals(l, N, ctx)
            want = reference_wp_relation_residuals(l, N, q)
            assert list(got) == list(want)
            for key in want:
                assert got[key] == want[key], (l, N, key)


@pytest.mark.parametrize("q", ORACLE_Q)
def test_wp_rep_matches_scalar_reference_bitwise(q):
    ctx = QContext(q, 1e-9)
    for l in (1, 2, 3, 4, 7):
        for N in (2, 8, 32, 64):
            for s in range(1, l + 1):
                for gen in ("a", "b", "bstar"):
                    got = wp_rep(l, 0, s, gen, N, ctx)
                    assert got.basis == tuple((s, p) for p in range(N))
                    want = reference_wp_rep(l, s, gen, N, q)
                    assert got.matrix.dtype == want.dtype
                    assert np.array_equal(got.matrix, want), (l, N, s, gen)


def test_wp_rep_diagonal():
    op = wp_rep(2, 0, 1, "a", 4, CTX)
    q = CTX.q
    expected = [q ** (2 * (2 * p)) for p in range(4)]
    assert np.allclose(np.diag(op.matrix), expected, atol=1e-15)
    op = wp_rep(2, 0, 2, "a", 4, CTX)
    expected = [q ** (2 * (2 * p + 1)) for p in range(4)]
    assert np.allclose(np.diag(op.matrix), expected, atol=1e-15)


def test_wp_rep_bstar_kills_bottom():
    for l in (1, 2, 3):
        for s in range(1, l + 1):
            op = wp_rep(l, 0, s, "bstar", 8, CTX)
            assert np.abs(op.matrix[:, 0]).max() == 0.0


def test_wp_rep_b_is_adjoint_of_bstar():
    b = wp_rep(3, 0, 2, "b", 10, CTX).matrix
    bs = wp_rep(3, 0, 2, "bstar", 10, CTX).matrix
    assert np.abs(b - bs.conj().T).max() == 0.0


def test_wp_rep_argument_validation():
    with pytest.raises(ValueError):
        wp_rep(2, 0, 3, "a", 8, CTX)
    with pytest.raises(ValueError):
        wp_rep(2, 0, 1, "a", 1, CTX)
    with pytest.raises(ValueError):
        wp_rep(2, 0, 1, "zz", 8, CTX)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_wp_relations_on_interior(l):
    res = wp_relation_residuals(l, 64, CTX)
    assert res["max"] < CTX.tol


def test_wp_relations_at_the_guards_accepted_edge():
    # the largest l at N = 64 and the largest N at l = 1 that the cost guard accepts
    for l, N in [(347, 64), (1, 2000)]:
        assert wp_relation_residuals(l, N, CTX)["max"] < CTX.tol


def test_wp_relation_report_max_propagates_nan(monkeypatch):
    # Python's max drops a NaN that follows a finite value; the report must not
    coefficients = teardrop._wp_coefficients

    def nan_in_second_copy(l, s, N, q):
        a, c = coefficients(l, s, N, q)
        c[1, 0] = math.nan
        return a, c

    monkeypatch.setattr(teardrop, "_wp_coefficients", nan_in_second_copy)
    res = wp_relation_residuals(2, 8, CTX)
    assert not math.isnan(res["s=1"]["a_bstar"])
    assert math.isnan(res["s=2"]["a_bstar"])
    assert math.isnan(res["max"])


def test_wp_relation_guards():
    # 2000 is the largest N allowed at l = 1, and 347 the largest l at N = 64;
    # q^(-2l) overflows a double beyond l = 511 at q = 0.5 and l = 77 at q = 0.01
    assert 1 * 4 * 2000**3 <= RELATION_WORK_GUARD < 1 * 4 * 2001**3
    assert 347 * 350 * 64**3 <= RELATION_WORK_GUARD < 348 * 351 * 64**3
    for l, N, ctx, message in [
        (1, 2001, CTX, "exceeds the cost guard"),
        (348, 64, CTX, "exceeds the cost guard"),
        (78, 2, QContext(0.01, 1e-9), "q = 0.01: q^(-2l) overflows"),
        (1, 4, QContext(1e-200, 1e-9), "q = 1e-200: q^(-2l) overflows"),
        (0, 4, CTX, "l must be >= 1"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            wp_relation_residuals(l, N, ctx)


def test_wp_rep_independent_of_m():
    for l, s, gen in [(1, 1, "a"), (2, 1, "b"), (2, 2, "bstar"), (3, 2, "a")]:
        mats = [wp_rep_via_ambient(l, m, s, gen, 12, CTX).matrix for m in (-2, 0, 5)]
        assert np.array_equal(mats[0], mats[1])
        assert np.array_equal(mats[1], mats[2])
        closed = wp_rep(l, 0, s, gen, 12, CTX).matrix
        assert np.abs(mats[0] - closed).max() < 1e-12


def reference_ambient_word(word, z, n, q):
    """The scalar walk the array walk replaced: one basis vector, rightmost
    letter first, coefficients multiplied in word order."""
    coeffs = []
    for letter in reversed(word):
        if letter == "alpha":
            n += 1
            coeffs.append(math.sqrt(1.0 - q ** (2 * n)))
        elif letter == "alphastar":
            if n == 0:
                return 0.0, z, n
            coeffs.append(math.sqrt(1.0 - q ** (2 * n)))
            n -= 1
        elif letter == "beta":
            coeffs.append(q**n)
            z += 1
        else:
            coeffs.append(q**n)
            z -= 1
    return math.prod(reversed(coeffs)), z, n


LETTERS = ("alpha", "alphastar", "beta", "betastar")


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_ambient_word_matches_scalar_reference_bitwise(q):
    ctx = QContext(q, 1e-9)
    z, n = np.meshgrid(np.arange(-2, 3), np.arange(41), indexing="ij")
    points = list(zip(z.ravel().tolist(), n.ravel().tolist()))
    killed = 0
    for length in range(7):
        for word in itertools.product(LETTERS, repeat=length):
            coeff, z_out, n_out = _ambient_word(word, z, n, ctx)
            want_c, want_z, want_n = zip(*[reference_ambient_word(word, *pt, q) for pt in points])
            # equal bytes of float64 entries: equal float.hex
            assert coeff.tobytes() == np.array(want_c, dtype=float).tobytes(), word
            assert z_out.ravel().tolist() == list(want_z), word
            assert n_out.ravel().tolist() == list(want_n), word
            killed += want_c.count(0.0)
    assert killed > 0
    # on ints the walk returns (float, int, int)
    got = _ambient_word(("alphastar", "beta", "alpha"), 1, 2, ctx)
    assert [type(x) for x in got] == [float, int, int]
    assert got == reference_ambient_word(("alphastar", "beta", "alpha"), 1, 2, q)
    with pytest.raises(ValueError, match="n must be >= 0"):
        _ambient_word(("alpha",), 0, -1, ctx)


def _apply(words, z, n, ctx):
    """Sum of coefficient * word over (coefficient, word) pairs, on e_z ⊗ e_n."""
    out = {}
    for c, word in words:
        coeff, z_out, n_out = _ambient_word(word, z, n, ctx)
        out[(z_out, n_out)] = out.get((z_out, n_out), 0.0) + c * coeff
    return {k: v for k, v in out.items() if v != 0.0}


@pytest.mark.parametrize("q", [0.3, 0.5, 0.8])
def test_ambient_words_satisfy_su2q_relations(q):
    ctx = QContext(q, 1e-9)
    relations = [
        ([(1, ("beta", "alpha"))], [(q, ("alpha", "beta"))]),
        ([(1, ("betastar", "alpha"))], [(q, ("alpha", "betastar"))]),
        ([(1, ("beta", "betastar"))], [(1, ("betastar", "beta"))]),
        ([(1, ("alpha", "alphastar")), (1, ("beta", "betastar"))], [(1, ())]),
        ([(1, ("alphastar", "alpha")), (q**2, ("betastar", "beta"))], [(1, ())]),
    ]
    for z in range(-2, 3):
        for n in range(9):
            for lhs, rhs in relations:
                left, right = _apply(lhs, z, n, ctx), _apply(rhs, z, n, ctx)
                assert left.keys() == right.keys(), (lhs, z, n)
                for k in left:
                    assert left[k] == pytest.approx(right[k], rel=1e-15, abs=1e-15), (lhs, z, n)


@pytest.mark.parametrize("l,j,n", [(2, 1, 0), (2, 1, 1), (3, 1, -1), (3, 2, 0)])
def test_block_structure(l, j, n):
    report = block_structure_evidence(l, n, j, 32, CTX)
    assert report["pass"]
    for sample in report["samples"]:
        assert sample["off_pattern"] < 10 * CTX.tol
        for info in sample["blocks"].values():
            assert info["tail_max"] < info["tail_threshold"]


def test_block_report_is_json_serializable():
    import json

    report = block_structure_evidence(2, 1, 1, 16, CTX)
    text = json.dumps(report)
    assert json.loads(text)["pass"] is True
    text = json.dumps(wp_relation_residuals(2, 16, CTX))
    assert "bstar_b_interior" in text
    text = json.dumps(ktheory_class(2, 1, 1).to_dict())
    assert "tokens" in text


def test_block_report_off_pattern_propagates_nan(monkeypatch):
    # a stray coefficient below the threshold, then a NaN one: Python's max kept the first
    ambient_word = teardrop._ambient_word

    def strays(word, z, n, ctx, reach=0):
        coeff, z_out, n_out = ambient_word(word, z, n, ctx, reach)
        coeff = np.where(z == 3, 1e-12, np.where(z == 5, math.nan, coeff))
        return coeff, z_out + np.isin(z, (3, 5)), n_out

    monkeypatch.setattr(teardrop, "_ambient_word", strays)
    report = block_structure_evidence(2, 1, 1, 16, CTX)
    assert all(math.isnan(sample["off_pattern"]) for sample in report["samples"])
    assert report["pass"] is False


def test_block_structure_full_power_reduces_to_lens_pattern():
    # j = l sends every copy to itself with one extra backward shift
    report = block_structure_evidence(2, 0, 2, 24, CTX)
    assert report["pass"]
    for sample in report["samples"]:
        for key, info in sample["blocks"].items():
            s_in, s_out = key.split("->")
            assert s_in == s_out
            assert info["shift_power"] == 1


def test_block_structure_guards():
    with pytest.raises(ValueError):
        block_structure_evidence(2, 0, 0, 24, CTX)
    with pytest.raises(ValueError):
        block_structure_evidence(2, 0, 1, 4, CTX)


# ---------------------------------------------------------------------------
# projection classes


def test_ktheory_line_bundle_trivial():
    cls = ktheory_class(2, 0, 0)
    assert cls.tokens() == "I_1 ⊕ (⊕_{s=1}^{2} P_0)"
    assert cls.reduced() == "I_1"
    assert cls.free_rank == 1 and not cls.complemented


def test_ktheory_mixed_positive():
    cls = ktheory_class(2, 1, 1)
    assert cls.ranks == (1, 2)
    assert cls.tokens() == "I_1 ⊕ (⊕_{s=1}^{1} P_1) ⊕ (⊕_{s=2}^{2} P_2)"
    assert cls.reduced() == "I_1 ⊕ P_1 ⊕ P_2"


def test_ktheory_negative_branch():
    cls = ktheory_class(3, -1, 2)
    assert cls.complemented and cls.free_rank == 0
    assert cls.ranks == (-1, 0, 0)
    assert cls.tokens() == "1 - (⊕_{s=1}^{1} P_{-1}) ⊕ (⊕_{s=2}^{3} P_0)"
    assert cls.reduced() == "1"
    cls = ktheory_class(2, -2, 1)
    assert cls.reduced() == "1"  # P_{-2} and P_{-1} are both zero
    cls = ktheory_class(1, -3, 0)
    assert cls.tokens() == "1 - (⊕_{s=1}^{1} P_{-3})"


def test_ktheory_range_checks():
    with pytest.raises(ValueError):
        ktheory_class(2, 0, 2)
    with pytest.raises(ValueError):
        ktheory_class(0, 0, 0)
    with pytest.raises(ValueError, match="exceeds the cost guard"):
        ktheory_class(KTHEORY_GUARD + 1, 1, 1)
    assert len(ktheory_class(1000, 1, 1).ranks) == 1000


def test_projection_class_serialization():
    d = ktheory_class(2, 1, 1).to_dict()
    assert d["tokens"].startswith("I_1")
    assert d["ranks"] == [1, 2]


def test_powers_tables_are_shared_read_only_and_bounded():
    table = teardrop._powers(0.3, 40)
    assert table.tolist() == [0.3**e for e in range(40)]
    assert teardrop._powers(0.3, 40) is table and not table.flags.writeable
    assert teardrop._powers.cache_info().maxsize == 16
    teardrop._powers.cache_clear()
    # n = 1: three sample words without an alpha letter, so one table of one size
    block_structure_evidence(3, 1, 1, 64, CTX)
    assert teardrop._powers.cache_info().misses == 1
    # n = -1: two of the words hold alpha letters and the third none; all three read
    # the longest table, asked for once
    teardrop._powers.cache_clear()
    block_structure_evidence(3, -1, 1, 64, CTX)
    assert teardrop._powers.cache_info().misses == 1
