"""Clebsch-Gordan block matrices: orthogonality, ladder form, closed forms."""

import dataclasses
import random
import re
import threading
from itertools import product

import numpy as np
import pytest

from qwps import cg, coord, dirac
from qwps.cg import cg_block, cg_coeff_updown, clear_cache
from qwps.coord import AlgebraElement, BasisIndex
from qwps.exact import HalfInt, QContext, hi, nonneg_hi
from qwps.qcore import coproduct_action, irrep_word

Q_VALUES = (0.3, 0.5, 0.8)


def ctx_for(q=0.5):
    return QContext(q, 1e-9)


def couple(lam1, lam2):
    """Highest weights |lam1-lam2|, ..., lam1+lam2 of the tensor product."""
    lam1, lam2 = nonneg_hi(lam1, "lam1"), nonneg_hi(lam2, "lam2")
    return [HalfInt(t) for t in range(abs(lam1.twice - lam2.twice), lam1.twice + lam2.twice + 1, 2)]


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
            target[r : r + d, r : r + d] = irrep_word(mu, g, ctx).real
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
            matrix = block.matrix  # laid out on each read
            # doubled labels of every row (mu, m) and column (m1, m2), in the
            # layout the CGBlock docstring states
            mus = [mu.twice for mu in couple(lam1, lam2)]
            row_mu = np.repeat(mus, np.array(mus) + 1)
            row_m = np.concatenate([np.arange(-t, t + 1, 2) for t in mus])
            col_m1 = np.repeat(np.arange(-t1, t1 + 1, 2), t2 + 1)
            col_m = col_m1 + np.tile(np.arange(-t2, t2 + 1, 2), t1 + 1)
            assert not matrix[row_m[:, None] != col_m[None, :]].any()
            # the coupling lists hold each nonzero entry once, exactly, at its
            # column's (m1, m2) and its row's mu, and zero everywhere else
            rows, cols = np.nonzero(matrix)
            slots = ((col_m1[cols] + t1) // 2, (col_m - col_m1 + t2)[cols] // 2,
                     (row_mu[rows] - mus[0]) // 2)
            assert len(set(zip(*(s.tolist() for s in slots)))) == rows.size
            expected = np.zeros((t1 + 1, t2 + 1, len(mus)))
            expected[slots] = matrix[rows, cols]
            coupling = np.array(block.coupling)
            assert coupling.shape == expected.shape
            assert (coupling == expected).all()


def dense_check_errors(matrix, lam1, lam2, ctx):
    """The former build check, as a reference: C Delta(e) C^t against
    blockdiag(rho_mu(e)) with Delta(e) as a dense Kronecker sum."""
    target = np.zeros_like(matrix)
    r = 0
    for mu in couple(lam1, lam2):
        d = mu.twice + 1
        target[r : r + d, r : r + d] = irrep_word(mu, "e", ctx)
        r += d
    raising = matrix @ coproduct_action(lam1, lam2, "e", ctx) @ matrix.T
    orth_err = np.abs(matrix @ matrix.T - np.eye(len(matrix))).max()
    return orth_err, np.abs(raising - target).max() / max(1.0, np.abs(target).max())


def racah_blocks(pairs, q):
    """The batched single sum's coupling arrays for ``pairs``, (2 lam1, 2 lam2)."""
    return cg._racah_blocks(cg._cells(pairs), q)


def check_blocks(couplings, pairs, ctx):
    return cg._check_blocks(couplings, cg._cells(pairs), ctx)


@pytest.mark.parametrize("q", Q_VALUES)
def test_build_check_agrees_with_the_dense_reference(q):
    # each batch is one row of the grid, so every block is checked beside others
    ctx = ctx_for(q)
    for t1 in range(17):
        pairs = [(t1, t2) for t2 in range(17)]
        couplings = racah_blocks(pairs, q)
        for (_, t2), coupling, errors in zip(pairs, couplings, check_blocks(couplings, pairs, ctx)):
            lam1, lam2 = hi(t1 / 2), hi(t2 / 2)
            dense = dense_check_errors(cg.CGBlock(lam1, lam2, coupling.tolist()).matrix,
                                       lam1, lam2, ctx)
            assert max(errors + dense) < 1e-14, (t1, t2)
            assert np.allclose(errors, dense, rtol=0, atol=5e-15), (t1, t2)


def row_mask(coupling, two_m):
    """The (m1, m2) slots of the coupling array with m1 + m2 = two_m / 2."""
    a1, b1, _ = coupling.shape
    return 2 * np.add.outer(np.arange(a1), np.arange(b1)) - (a1 + b1 - 2) == two_m


def plant(fault, coupling):
    """Put one fault into the coupling array of the block (1, 3/2), mu = 1/2, 3/2, 5/2."""
    if fault == "nan":  # (m1, m2, mu) = (lam1, lam2, lam1 + lam2), which weight allows
        coupling[-1, -1, -1] = np.nan
    elif fault == "scaled_row":  # the row (mu, m) = (3/2, 1/2)
        coupling[row_mask(coupling, 1), 1] *= 1.0 + 1e-9
    elif fault == "sign_flipped_row":  # still orthogonal: only intertwining sees it
        coupling[row_mask(coupling, 1), 1] *= -1.0
    elif fault == "swapped_mu_pair":
        coupling[..., [0, 1]] = coupling[..., [1, 0]]
    else:  # a nonzero at (m1, m2, mu) = (lam1, lam2, 1/2), which weight forbids
        coupling[-1, -1, 0] = 1e-9
    return coupling


FAULTS = ["scaled_row", "nan", "sign_flipped_row", "swapped_mu_pair", "forbidden_slot"]


def plant_in_block_1_3half(monkeypatch, fault):
    """Make the batched single sum plant ``fault`` in the block (1, 3/2) of any batch."""
    formula = cg._racah_blocks

    def planted(cells, q):
        couplings = formula(cells, q)
        return [plant(fault, c) if pair == (2, 3) else c for pair, c in zip(cells.pairs, couplings)]

    monkeypatch.setattr(cg, "_racah_blocks", planted)


@pytest.mark.parametrize("fault", FAULTS)
def test_failed_build_check_raises_and_caches_nothing(monkeypatch, fault):
    plant_in_block_1_3half(monkeypatch, fault)
    ctx = ctx_for(0.45)
    clear_cache()
    with pytest.raises(ValueError, match="build check") as failure:
        cg_block(hi(1), hi(1.5), ctx)
    assert (2, 3, ctx.q) not in cg._cache
    if fault == "sign_flipped_row":
        orth_err = re.search(r"orthogonality error (\S+),", str(failure.value)).group(1)
        assert float(orth_err) <= cg._BLOCK_GATE


@pytest.mark.parametrize("fault", FAULTS)
def test_failed_build_check_in_a_batch_raises_and_caches_nothing(monkeypatch, fault):
    # (1, 3/2) is built in one batch with the healthy (0, 1/2), (0, 3/2),
    # (1, 1/2), (2, 1/2) and (2, 3/2); the batch fails as a whole
    plant_in_block_1_3half(monkeypatch, fault)
    ctx = ctx_for(0.45)
    clear_cache()
    assert [len(batch) for batch in cg._batches([(0, 1), (0, 3), (2, 1), (2, 3), (4, 1), (4, 3)])] == [6]
    with pytest.raises(ValueError, match=re.escape("block (1, 3/2) at q = 0.45 fails")) as failure:
        cg.cg_blocks([0, 2, 4], [1, 3], ctx)
    assert (2, 3, ctx.q) not in cg._cache
    assert not cg._cache
    if fault == "sign_flipped_row":
        orth_err = re.search(r"orthogonality error (\S+),", str(failure.value)).group(1)
        assert float(orth_err) <= cg._BLOCK_GATE


@pytest.mark.parametrize("fault", FAULTS)
def test_dense_reference_rejects_every_planted_fault(fault):
    ctx = ctx_for(0.45)
    mutant = plant(fault, racah_blocks([(2, 3)], ctx.q)[0])
    matrix = cg.CGBlock(hi(1), hi(1.5), mutant.tolist()).matrix
    assert not all(err <= cg._BLOCK_GATE for err in dense_check_errors(matrix, hi(1), hi(1.5), ctx))


def test_cached_block_stores_only_its_coupling_lists():
    assert [f.name for f in dataclasses.fields(cg.CGBlock)] == ["lam1", "lam2", "coupling"]
    block = cg_block(hi(1), hi(1.5), ctx_for(0.5))
    assert not any(isinstance(v, np.ndarray) for v in vars(block).values())
    # each read lays the matrix out afresh, so a caller's write reaches no other reader
    first = block.matrix
    first[:] = 0.0
    assert np.abs(block.matrix @ block.matrix.T - np.eye(12)).max() < 1e-14


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
        matrix = block.matrix  # laid out on each read
        for tmu in range(-tj, tj + 1, 2):
            mu = hi(tmu / 2)
            c, s = cg_coeff_updown(j, mu, ctx)
            row = row_of(block, j, mu)
            got = []
            for dm, spin in ((hi(0.5), hi(-0.5)), (hi(-0.5), hi(0.5))):
                m1 = mu + dm
                if abs(m1.twice) <= jm.twice:
                    got.append(matrix[row, col_of(block, m1, spin)])
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
    # the entry with mismatched total weight is zero; both mu = 1/2, 3/2 carry
    # the column (m1, m2) = (1, -1/2) of m = 1/2, only mu = 3/2 that of m = 3/2
    row = row_of(block, hi(1.5), hi(1.5))
    assert block.matrix[row, col_of(block, hi(1), hi(-0.5))] == 0.0
    assert [mu.twice for mu, v in zip(couple(hi(1), hi(0.5)), block.coupling[2][0]) if v] == [1, 3]
    assert [mu.twice for mu, v in zip(couple(hi(1), hi(0.5)), block.coupling[2][1]) if v] == [3]


def brute_term_count(a2, b2):
    """The terms of the single sum of every entry of the block (a2/2, b2/2),
    counted one entry at a time from the bounds of z."""
    total = 0
    for c2 in range(abs(a2 - b2), a2 + b2 + 1, 2):
        for al2 in range(-a2, a2 + 1, 2):
            for be2 in range(-b2, b2 + 1, 2):
                if abs(al2 + be2) <= c2:
                    z_lo = max(0, (b2 - c2 - al2) // 2, (a2 + be2 - c2) // 2)
                    z_hi = min((a2 + b2 - c2) // 2, (a2 - al2) // 2, (b2 + be2) // 2)
                    total += z_hi - z_lo + 1
    return total


def test_term_count_counts_every_term():
    for a2 in range(17):
        for b2 in range(17):
            assert cg._term_count(a2, b2) == brute_term_count(a2, b2), (a2, b2)


def test_batches_hold_each_block_once_and_at_most_twice_their_largest():
    rng = random.Random(7)
    for _ in range(50):
        pairs = list({(rng.randrange(40), rng.randrange(12)) for _ in range(rng.randrange(1, 30))})
        batches = list(cg._batches(pairs))
        assert sorted(pair for batch in batches for pair in batch) == sorted(pairs)
        for batch in batches:
            counts = [cg._term_count(*pair) for pair in batch]
            assert counts[0] == max(counts) and sum(counts) <= 2 * counts[0]


def reference_racah_block(a2, b2, q):
    """The single sum of one block, as blocks were built one at a time: each
    term's powers of q kept as four times their exponent, the G_n of its six
    factorials stacked and multiplied along the stack."""
    pair = lambda n: n * (n - 1)  # noqa: E731
    cs = np.arange(abs(a2 - b2), a2 + b2 + 1, 2)
    al2 = np.arange(-a2, a2 + 1, 2)
    be2 = np.arange(-b2, b2 + 1, 2)
    slots = np.nonzero(np.abs(al2[:, None, None] + be2[None, :, None]) <= cs)
    c2, al2, be2 = cs[slots[2]], al2[slots[0]], be2[slots[1]]
    s = (a2 + b2 + c2) // 2 + 1
    tri = ((a2 + b2 - c2) // 2, (a2 - b2 + c2) // 2, (b2 - a2 + c2) // 2)
    top = ((a2 + al2) // 2, (a2 - al2) // 2, (b2 + be2) // 2, (b2 - be2) // 2,
           (c2 + al2 + be2) // 2, (c2 - al2 - be2) // 2)
    z_shift = (c2 - b2 + al2) // 2, (c2 - a2 - be2) // 2
    z_lo = np.maximum(0, -np.minimum(*z_shift))
    z_hi = np.minimum(tri[0], np.minimum(top[1], top[2]))
    k = np.arange(1, a2 + b2 + 3)
    g = np.concatenate([[1.0], np.cumprod((1.0 - q ** (2 * k)) / (1.0 - q * q))])
    e4 = (2 * tri[0] * s + (a2 * be2 - b2 * al2) - sum(pair(n) for n in tri) + pair(s) - 2 * c2
          - sum(pair(n) for n in top))
    scale = np.sqrt(g[tri[0]] * g[tri[1]] * g[tri[2]] / g[s] * (1.0 - q ** (2 * (c2 + 1)))
                    / (1.0 - q * q) * np.prod([g[n] for n in top], axis=0))
    count = z_hi - z_lo + 1
    entry = np.repeat(np.arange(c2.size), count)
    z = z_lo[entry] + np.arange(entry.size) - np.repeat(np.cumsum(count) - count, count)
    bottom = (z, tri[0][entry] - z, top[1][entry] - z, top[2][entry] - z,
              z_shift[0][entry] + z, z_shift[1][entry] + z)
    term_e4 = e4[entry] - 4 * z * s[entry] + 2 * sum(pair(n) for n in bottom)
    terms = np.where(z % 2, -1.0, 1.0) * q ** (term_e4 / 4.0) / np.prod([g[n] for n in bottom], axis=0)
    coupling = np.zeros((a2 + 1, b2 + 1, min(a2, b2) + 1))
    coupling[slots] = scale * np.bincount(entry, weights=terms, minlength=c2.size)
    return coupling


@pytest.mark.parametrize("q", Q_VALUES)
def test_a_batch_builds_each_block_bit_for_bit_as_alone(monkeypatch, q):
    ctx = ctx_for(q)
    grid = range(17)
    alone = {(a2, b2): reference_racah_block(a2, b2, q) for a2, b2 in product(grid, grid)}
    pairs = list(alone)
    rng = random.Random(int(100 * q))
    rng.shuffle(pairs)
    # the single sum itself, on mixed batches with duplicate members
    for start in range(0, len(pairs), 9):
        batch = pairs[start : start + 9] + pairs[start : start + 2]
        for pair, coupling in zip(batch, racah_blocks(batch, q)):
            assert coupling.shape == alone[pair].shape
            assert coupling.tobytes() == alone[pair].tobytes(), pair
    # cg_blocks, on requests with duplicate and already cached members
    monkeypatch.setattr(cg, "_cache", {})
    for t1, t2 in pairs[::7]:
        cg_block(hi(t1 / 2), hi(t2 / 2), ctx)
    for _ in range(40):
        twice1, twice2 = rng.sample(grid, 4), rng.sample(grid, 3)
        couplings = cg.cg_blocks(twice1 + twice1[:2], twice2, ctx)
        assert set(couplings) == set(product(twice1, twice2))
        for pair, coupling in couplings.items():
            assert np.array(coupling).tobytes() == alone[pair].tobytes(), pair
            assert cg._cache[(*pair, q)].coupling is coupling


def element(*doubled):
    """The sum of the basis elements t^lam_{mn} named by doubled (lam, m, n)."""
    return AlgebraElement({BasisIndex.doubled(*idx): 1.0 for idx in doubled})


def test_products_build_only_the_blocks_of_their_pairs_of_terms(monkeypatch):
    ctx = ctx_for(0.5)
    monkeypatch.setattr(cg, "_cache", {})
    coord.multiply(element((1, 1, 1), (2, 0, 0), (3, 1, -1)), element((0, 0, 0), (1, -1, 1)), ctx)
    assert set(cg._cache) == {(t1, t2, 0.5) for t1 in (1, 2, 3) for t2 in (0, 1)}
    monkeypatch.setattr(cg, "_cache", {})
    labels = [(tl, tm, tn) for tl in range(3) for tm in range(-tl, tl + 1, 2)
              for tn in range(-tl, tl + 1, 2)]
    dirac.gns_multiplication(element((1, 1, 1), (2, 0, 0)), np.array(labels).T, ctx)
    assert set(cg._cache) == {(t1, t2, 0.5) for t1 in (1, 2) for t2 in (0, 1, 2)}
