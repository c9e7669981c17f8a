"""Teardrop operator models, lens space, block patterns, projection classes."""

import re

import numpy as np
import pytest

from qwps.qcore import QContext
from qwps.teardrop import (
    KTHEORY_GUARD,
    RELATION_WORK_GUARD,
    _ambient_word,
    block_structure_evidence,
    ktheory_class,
    lens_commutation_residual,
    lens_rep,
    projection_matrix,
    wp_relation_residuals,
    wp_rep,
    wp_rep_via_ambient,
)

CTX = QContext(0.5, 1e-9)


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


def test_lens_rep_beta_coefficients():
    op = lens_rep(1, 1, "beta", 4, 6, CTX)
    for z in range(-4, 4):
        for p in range(6):
            row = op.position((z + 1, p))
            col = op.position((z, p))
            assert op.matrix[row, col] == pytest.approx(CTX.q**p)


def test_lens_rep_alpha_keeps_z():
    op = lens_rep(2, 1, "alpha_l", 3, 5, CTX).matrix
    n_z, N = 3, 5
    for z_out in range(-n_z, n_z + 1):
        for z_in in range(-n_z, n_z + 1):
            block = op[
                (z_out + n_z) * N : (z_out + n_z + 1) * N,
                (z_in + n_z) * N : (z_in + n_z + 1) * N,
            ]
            if z_out != z_in:
                assert np.abs(block).max() == 0.0


def test_lens_rep_window_guard():
    with pytest.raises(ValueError):
        lens_rep(1, 1, "beta", 2, 6, CTX)


@pytest.mark.parametrize("l,s", [(1, 1), (2, 1), (2, 2), (3, 3)])
def test_lens_commutation(l, s):
    assert lens_commutation_residual(l, s, 5, 10, CTX) < 1e-13


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


def test_projection_matrices_exact():
    for rank in (0, 1, 3, -2):
        p = projection_matrix(rank, 6)
        assert np.array_equal(p @ p, p)
        assert np.array_equal(p, p.T)
        assert np.trace(p) == max(rank, 0)
    with pytest.raises(ValueError):
        projection_matrix(9, 6)


def test_projection_class_serialization():
    d = ktheory_class(2, 1, 1).to_dict()
    assert d["tokens"].startswith("I_1")
    assert d["ranks"] == [1, 2]
