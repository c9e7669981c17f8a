"""Clebsch-Gordan block matrices: orthogonality, ladder form, closed forms."""

import threading

import numpy as np
import pytest

from qwps import cg
from qwps.cg import cg_block, cg_coeff_updown, clear_cache, couple
from qwps.exact import QContext, hi
from qwps.qcore import coproduct_action, irrep_matrix

Q_VALUES = (0.3, 0.5, 0.8)


def ctx_for(q=0.5):
    return QContext(q, 1e-9)


def row_of(block, mu, m):
    """Row of (mu, m): the rows of every mu' < mu come first, m ascending."""
    lo = abs(block.lam1.twice - block.lam2.twice)
    return sum(t + 1 for t in range(lo, mu.twice, 2)) + (mu.twice + m.twice) // 2


def col_of(block, m1, m2):
    """Column of (m1, m2), lexicographic."""
    t1, t2 = block.lam1.twice, block.lam2.twice
    return (t1 + m1.twice) // 2 * (t2 + 1) + (t2 + m2.twice) // 2


def test_couple_examples():
    assert couple(hi(0), hi(1.5)) == [hi(1.5)]
    assert couple(hi(0.5), hi(0.5)) == [hi(0), hi(1)]
    assert couple(hi(1), hi(0.5)) == [hi(0.5), hi(1.5)]
    with pytest.raises(ValueError):
        couple(hi(-0.5), hi(1))


@pytest.mark.parametrize("t1,t2", [(1, 2), (3, 1), (2, 2)])
def test_couple_dimension_sum(t1, t2):
    lam1, lam2 = hi(t1 / 2), hi(t2 / 2)
    total = sum(mu.twice + 1 for mu in couple(lam1, lam2))
    assert total == (t1 + 1) * (t2 + 1)


def test_trivial_factor_gives_identity():
    ctx = ctx_for()
    block = cg_block(hi(1.5), hi(0), ctx)
    assert np.abs(block.matrix - np.eye(4)).max() < 1e-14
    block = cg_block(hi(0), hi(1), ctx)
    assert np.abs(block.matrix - np.eye(3)).max() < 1e-14


def block_errors(lam1, lam2, ctx):
    """Worst orthogonality and generator block-diagonalization errors of a block."""
    c = cg_block(lam1, lam2, ctx).matrix
    worst = np.abs(c @ c.T - np.eye(c.shape[0])).max()
    for g in ("e", "f", "k"):
        target = np.zeros_like(c)
        r = 0
        for mu in couple(lam1, lam2):
            d = mu.twice + 1
            target[r : r + d, r : r + d] = irrep_matrix(mu, g, ctx).real
            r += d
        action = coproduct_action(lam1, lam2, g, ctx).real
        err = np.abs(c @ action @ c.T - target).max() / max(1.0, np.abs(target).max())
        worst = max(worst, err)
    return worst


@pytest.mark.parametrize("q", Q_VALUES)
def test_block_invariants(q):
    # orthogonality, generator block diagonalization, weight support; the grid
    # holds (4,4) at q = 0.3 and (3/2,10), (1,10) at q = 0.5, where kernel
    # extraction plus lowering gave max|CC^t - I| of 87, 0.15 and 2.1e-6
    ctx = ctx_for(q)
    for t1 in (0, 1, 2, 3, 4, 7, 8, 13, 20):
        for t2 in (0, 1, 2, 3, 4, 7, 8, 13, 20):
            lam1, lam2 = hi(t1 / 2), hi(t2 / 2)
            assert block_errors(lam1, lam2, ctx) < 1e-13, (t1, t2)
            block = cg_block(lam1, lam2, ctx)
            # doubled labels of every row (mu, m) and column (m1, m2), in the
            # layout the CGBlock docstring states
            mus = [mu.twice for mu in couple(lam1, lam2)]
            row_mu = np.repeat(mus, np.array(mus) + 1)
            row_m = np.concatenate([np.arange(-t, t + 1, 2) for t in mus])
            col_m1 = np.repeat(np.arange(-t1, t1 + 1, 2), t2 + 1)
            col_m = col_m1 + np.tile(np.arange(-t2, t2 + 1, 2), t1 + 1)
            assert not block.matrix[row_m[:, None] != col_m[None, :]].any()
            # the coupling table holds each nonzero entry once, exactly, under
            # its column's (2 m1, 2 m2) and its row's 2 mu
            rows, cols = np.nonzero(block.matrix)
            entries = zip(col_m1[cols].tolist(), (col_m - col_m1)[cols].tolist(),
                          row_mu[rows].tolist(), block.matrix[rows, cols].tolist())
            listed = [(k1, k2, tmu, v) for (k1, k2), col in block.table.items()
                      for tmu, v in col.items()]
            assert sorted(listed) == sorted(entries)
            assert all(list(col) == sorted(col) for col in block.table.values())
            # the coupling array holds the same entries at (m1, mu, m2), zero elsewhere
            from_table = np.zeros((t1 + 1, len(mus), t2 + 1))
            for (k1, k2), col in block.table.items():
                for tmu, v in col.items():
                    from_table[(k1 + t1) // 2, mus.index(tmu), (k2 + t2) // 2] = v
            assert block.coupling.shape == from_table.shape
            assert (block.coupling == from_table).all()


@pytest.mark.parametrize("fault", ["scaled_row", "nan"])
def test_failed_build_check_raises_and_caches_nothing(monkeypatch, fault):
    formula = cg._racah_matrix

    def faulty(a2, b2, q):
        matrix = formula(a2, b2, q)
        if fault == "nan":
            matrix[0, 0] = np.nan
        else:
            matrix[-1] *= 1.0 + 1e-9
        return matrix

    monkeypatch.setattr(cg, "_racah_matrix", faulty)
    ctx = ctx_for(0.45)
    clear_cache()
    with pytest.raises(ValueError, match="build check"):
        cg_block(hi(1), hi(1.5), ctx)
    assert (2, 3, ctx.q) not in cg._cache


def test_singlet_row_against_null_space_oracle():
    # independent oracle: brute-force kernel of the raising action on the
    # weight-zero subspace of M_1/2 ⊗ M_1/2
    ctx = ctx_for(0.5)
    raising = coproduct_action(hi(0.5), hi(0.5), "e", ctx).real
    # tensor basis order: (-,-), (-,+), (+,-), (+,+); weight-zero columns 1, 2
    sub = raising[:, [1, 2]]
    sub = sub[[3], :]  # weight-one row
    null = np.array([sub[0, 1], -sub[0, 0]])
    null /= np.linalg.norm(null)
    block = cg_block(hi(0.5), hi(0.5), ctx)
    row = block.matrix[row_of(block, hi(0), hi(0))]
    assert abs(row[0]) < 1e-14 and abs(row[3]) < 1e-14
    vec = np.array([row[1], row[2]])
    # ratio c2/c1 = -q and unit length
    assert vec[1] / vec[0] == pytest.approx(-ctx.q, abs=1e-12)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)
    align = abs(float(np.dot(vec, null)))
    assert align == pytest.approx(1.0, abs=1e-12)


def test_coeff_updown_boundary():
    ctx = ctx_for(0.5)
    c, s = cg_coeff_updown(hi(0.5), hi(0.5), ctx)
    assert c == pytest.approx(0.0, abs=1e-15)
    assert s == pytest.approx(1.0, abs=1e-15)
    c, s = cg_coeff_updown(hi(0.5), hi(-0.5), ctx)
    assert c == pytest.approx(1.0, abs=1e-15)
    assert s == pytest.approx(0.0, abs=1e-15)


def test_coeff_updown_midpoint():
    ctx = ctx_for(0.5)
    q = ctx.q
    from qwps.qcore import q_int

    c, s = cg_coeff_updown(hi(1), hi(0), ctx)
    assert c == pytest.approx(q**-0.5 * np.sqrt(q_int(1, ctx) / q_int(2, ctx)), abs=1e-14)
    assert s == pytest.approx(q**0.5 * np.sqrt(q_int(1, ctx) / q_int(2, ctx)), abs=1e-14)
    assert c * c + s * s == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("q", Q_VALUES)
def test_coeff_updown_normalization(q):
    ctx = ctx_for(q)
    for tj in range(1, 11):
        j = hi(tj / 2)
        for tmu in range(-tj, tj + 1, 2):
            c, s = cg_coeff_updown(j, hi(tmu / 2), ctx)
            assert c * c + s * s == pytest.approx(1.0, abs=ctx.tol)


def test_coeff_updown_range_errors():
    ctx = ctx_for()
    with pytest.raises(ValueError):
        cg_coeff_updown(hi(0), hi(0), ctx)
    with pytest.raises(ValueError):
        cg_coeff_updown(hi(1), hi(1.5), ctx)
    with pytest.raises(ValueError):
        cg_coeff_updown(hi(1), hi(0.5), ctx)  # parity mismatch


@pytest.mark.parametrize("tj", range(1, 21))
def test_closed_form_matches_block_rows(tj):
    # rows (j, mu) of the (j - 1/2, 1/2) block against the closed forms
    j = hi(tj / 2)
    jm = j - hi(0.5)
    for q in Q_VALUES:
        ctx = ctx_for(q)
        block = cg_block(jm, hi(0.5), ctx)
        for tmu in range(-tj, tj + 1, 2):
            mu = hi(tmu / 2)
            c, s = cg_coeff_updown(j, mu, ctx)
            row = row_of(block, j, mu)
            got = []
            for dm, spin in ((hi(0.5), hi(-0.5)), (hi(-0.5), hi(0.5))):
                m1 = mu + dm
                if abs(m1.twice) <= jm.twice:
                    got.append(block.matrix[row, col_of(block, m1, spin)])
                else:
                    got.append(0.0)
            assert got[0] == pytest.approx(c, abs=1e-12)
            assert got[1] == pytest.approx(s, abs=1e-12)


def test_large_weight_orthogonality_stable():
    assert block_errors(hi(0.5), hi(30), ctx_for(0.5)) < 1e-12


def test_cache_returns_same_object_and_is_thread_safe():
    clear_cache()
    ctx = ctx_for(0.5)
    results = []

    def worker():
        results.append(cg_block(hi(1), hi(1.5), ctx))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
    assert cg_block(hi(1), hi(1.5), ctx) is results[0]
    # distinct q gets a distinct entry
    other = cg_block(hi(1), hi(1.5), ctx_for(0.3))
    assert other is not results[0]


def test_row_lookup_weight_conservation():
    ctx = ctx_for(0.5)
    block = cg_block(hi(1), hi(0.5), ctx)
    # the entry with mismatched total weight is zero, and the table column
    # (m1, m2) = (1, -1/2) lists only the mu that carry m = 1/2
    row = row_of(block, hi(1.5), hi(1.5))
    assert block.matrix[row, col_of(block, hi(1), hi(-0.5))] == 0.0
    assert list(block.table[2, -1]) == [1, 3]
