"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import time

import numpy as np

from qwps import coaction, coord, dirac, exact, teardrop
from qwps.exact import QContext, WeightPair

DEFAULT_CTX = QContext(0.5, 1e-9)

SUMMABILITY_WPS = [WeightPair(1, 1), WeightPair(1, 2), WeightPair(2, 3)]


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"CRITERION {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_criterion_01_relation_suite():
    t0 = time.monotonic()
    worst = 0.0
    for q in (0.3, 0.5, 0.8):
        worst = max(worst, coord.relation_residuals(QContext(q, 1e-9))["max"])
    elapsed = time.monotonic() - t0
    report(
        1,
        "coordinate algebra relations via the CG product, q in {0.3, 0.5, 0.8}",
        worst < 1e-9 and elapsed < 10.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_regular_action_tables():
    worst = coord.action_table_residuals(DEFAULT_CTX)["max"]
    report(2, "all regular-action generator-table entries", worst < 1e-12,
           f"max residual {worst:.2e}")


def test_criterion_03_haar_orthogonality():
    worst = coord.haar_orthogonality_residual(DEFAULT_CTX, 2)
    report(3, "Haar orthogonality over lam, lam' <= 2", worst < 1e-9,
           f"max residual {worst:.2e}")


def test_criterion_04_wp_relations():
    t0 = time.monotonic()
    worst = 0.0
    for k, l in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 3)):
        res = coaction.verify_wp_relations(WeightPair(k, l), DEFAULT_CTX)
        worst = max(worst, res["max"])
    elapsed = time.monotonic() - t0
    report(
        4,
        "weighted projective algebra relations for five weight pairs",
        worst < 1e-8 and elapsed < 120.0,
        f"max residual {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_05_dimension_formulas():
    mismatches = 0
    pairs = [
        (k, l)
        for k in range(1, 9)
        for l in range(1, 9)
        if k + l <= 9 and math.gcd(k, l) == 1
    ]
    for k, l in pairs:
        wp = WeightPair(k, l)
        for t in range(0, 51):  # half-integer steps up to 25
            x = t / 2
            if exact.dim_V_down(wp, x) != exact.dim_V_down_oracle(wp, x):
                mismatches += 1
            if exact.dim_V(wp, x) != exact.dim_V_oracle(wp, x):
                mismatches += 1
    report(
        5,
        "closed-form dimensions equal enumeration for k+l <= 9, indices <= 25",
        mismatches == 0,
        f"{len(pairs)} pairs, {mismatches} mismatches",
    )


def test_criterion_06_even_spectrum_unit_weights():
    table = exact.even_triple_spectrum(WeightPair(1, 1), 20)
    ok = True
    for tl in range(0, 41):
        expected = tl + 1 if tl % 2 == 0 else 0
        got = table.multiplicity(tl / 2.0 + 1.0)
        ok = ok and got == expected and table.multiplicity(-(tl / 2.0 + 1.0)) == expected
    report(6, "even-triple spectrum at unit weights: ±(lam+1) with 2lam+1",
           ok, "lam <= 20, exact")


def test_criterion_07_odd_pairing_and_reported_divergence():
    ok = True
    for wp in SUMMABILITY_WPS:
        table = exact.odd_triple_spectrum(wp, 20)
        for ev, mult in table.rows:
            ok = ok and table.multiplicity(-ev) == mult
    # unit weights: multiplicity at ±2(j+1) is 2j+2 by enumeration
    wp11 = WeightPair(1, 1)
    table = exact.odd_triple_spectrum(wp11, 10)
    divergent = []
    for tj in range(0, 21, 2):
        mult = table.multiplicity(float(tj + 2))
        oracle = exact.dim_V_down_oracle(wp11, tj / 2 + 1)
        ok = ok and mult == oracle == tj + 2
        divergent.append((tj // 2, mult))
    print(
        "    note: at k = l = 1 the level-j multiplicity is 2j+2 (enumeration-"
        "confirmed); the alternate closed form 2j+1 quoted for this case is "
        "off by one and is intentionally not used"
    )
    report(7, "odd-triple ± multiplicities match pairwise and follow the enumeration",
           ok, f"unit-weight multiplicities {divergent[:4]}...")


def test_criterion_08_q_dirac_identity():
    worst = dirac.q_dirac_check(2, DEFAULT_CTX)
    report(8, "q^{-D} block identity reproduces the spinor eigenvalues, j <= 2",
           worst < DEFAULT_CTX.tol, f"max backward error {worst:.2e}")


def test_criterion_09_summability():
    t0 = time.monotonic()
    ok = True
    details = []
    for wp in SUMMABILITY_WPS:
        for triple in ("odd", "even"):
            s = {n: exact.summability_partial_sum(wp, n, triple) for n in (512, 1024, 2048)}
            d1, d2 = s[1024] - s[512], s[2048] - s[1024]
            ratio_ok = abs(d1 / d2 - 1.0) < 0.05
            c = {n: exact.summability_partial_sum(wp, n, triple, exponent=3)
                 for n in (512, 1024, 2048)}
            e1, e2 = c[1024] - c[512], c[2048] - c[1024]
            cube_ok = e2 < e1 and e2 < 0.01 * c[512]
            ok = ok and ratio_ok and cube_ok
            details.append(f"{wp.k},{wp.l}:{triple} d1/d2={d1/d2:.4f}")
    # far out the increments per ln 2 reach the coefficient c of the log:
    # 2/(k+l) for the odd triple and 8/(k+l) for the even one
    slope_err = 0.0
    for wp in [*SUMMABILITY_WPS, WeightPair(3, 5)]:
        for triple, c in (("odd", 2 / wp.s), ("even", 8 / wp.s)):
            s_n, s_2n = (exact.summability_partial_sum(wp, n, triple)
                         for n in (10**12, 2 * 10**12))
            slope_err = max(slope_err, abs((s_2n - s_n) / math.log(2) - c))
    ok = ok and slope_err < 1e-11
    elapsed = time.monotonic() - t0
    report(
        9,
        "inverse-square sums diverge logarithmically, inverse-cube sums converge",
        ok and elapsed < 30.0,
        f"{'; '.join(details[:3])}; |slope - c| at N = 1e12 {slope_err:.1e}; {elapsed:.1f}s",
    )


def test_criterion_10_commutator_plateau():
    n20 = dirac.commutator_norm("alpha", 20, DEFAULT_CTX)
    n40 = dirac.commutator_norm("alpha", 40, DEFAULT_CTX)
    increment = abs(n40 - n20) / n20
    report(
        10,
        "multiplication commutator norms plateau between caps 20 and 40",
        increment < 0.01 and n40 >= n20 - 1e-12,
        f"norms {n20:.9f} -> {n40:.9f}, increment {increment:.2e}",
    )


def test_criterion_11_chirality_and_fredholm():
    worst = 0.0
    for wp in SUMMABILITY_WPS:
        worst = max(worst, dirac.chirality_checks(wp, 5, DEFAULT_CTX)["max"])
        worst = max(worst, dirac.fredholm_degeneracy(wp, 5, DEFAULT_CTX)["max"])
    report(11, "grading and Fredholm swap identities exact on lam <= 5",
           worst < 1e-12, f"max residual {worst:.2e}")


def test_criterion_12_teardrop_operators():
    worst = 0.0
    for l in (1, 2, 3, 4):
        worst = max(worst, teardrop.wp_relation_residuals(l, 64, DEFAULT_CTX)["max"])
    rel_ok = worst < 1e-9

    m_ok = True
    for l, s, gen in [(2, 1, "a"), (2, 2, "b"), (3, 1, "bstar")]:
        mats = [
            teardrop.wp_rep_via_ambient(l, m, s, gen, 12, DEFAULT_CTX).matrix
            for m in (-2, 0, 5)
        ]
        m_ok = m_ok and np.array_equal(mats[0], mats[1]) and np.array_equal(mats[1], mats[2])

    block_ok = True
    for l, j, n in ((2, 1, 0), (2, 1, 1), (3, 1, -1), (3, 2, 0)):
        block_ok = block_ok and teardrop.block_structure_evidence(l, n, j, 64, DEFAULT_CTX)["pass"]

    report(
        12,
        "teardrop operator relations, m-independence, block patterns",
        rel_ok and m_ok and block_ok,
        f"relation residual {worst:.2e}, m-independence exact={m_ok}, blocks={block_ok}",
    )


def test_criterion_13_projection_class_tokens(monkeypatch):
    # the block pattern of alpha*^j times the degree-nl component, its shift
    # powers read from ktheory_class, over l <= 6, |n| <= 3 and 1 <= j <= l-1
    t0 = time.monotonic()
    grid = [(l, n, j) for l in range(2, 7) for n in range(-3, 4) for j in range(1, l)]
    failed = [(q, l, n, j) for q in (0.3, 0.5, 0.8) for l, n, j in grid
              if not teardrop.block_structure_evidence(l, n, j, 16, QContext(q, 1e-9))["pass"]]
    elapsed = time.monotonic() - t0
    # the same grid fails wherever the classes swap the ranks n and n + 1
    with monkeypatch.context() as patch:
        patch.setattr(teardrop, "ktheory_class", lambda l, n, j: exact.ProjectionClass(
            l, n, j, ranks=tuple([n + 1] * (l - j) + [n] * j)))
        swapped = [(l, n, j) for l, n, j in grid
                   if teardrop.block_structure_evidence(l, n, j, 16, DEFAULT_CTX)["pass"]]
    report(13, "block patterns of the homogeneous components follow their projection classes",
           not failed and not swapped,
           f"{len(grid)} classes at q in {{0.3, 0.5, 0.8}}, {len(failed)} failed, "
           f"{len(swapped)} passed with swapped ranks, {elapsed:.2f}s")

    expected = {
        (2, 0, 0): "I_1 ⊕ (⊕_{s=1}^{2} P_0)",
        (2, 1, 1): "I_1 ⊕ (⊕_{s=1}^{1} P_1) ⊕ (⊕_{s=2}^{2} P_2)",
        (3, -1, 2): "1 - (⊕_{s=1}^{1} P_{-1}) ⊕ (⊕_{s=2}^{3} P_0)",
        (3, 0, 2): "I_1 ⊕ (⊕_{s=1}^{1} P_0) ⊕ (⊕_{s=2}^{3} P_1)",
        (4, 2, 3): "I_1 ⊕ (⊕_{s=1}^{1} P_2) ⊕ (⊕_{s=2}^{4} P_3)",
        (1, -3, 0): "1 - (⊕_{s=1}^{1} P_{-3})",
    }
    ok = True
    for (l, n, j), tokens in expected.items():
        cls = exact.ktheory_class(l, n, j)
        ok = ok and cls.tokens() == tokens
    report(13, "projection-class encodings match the stated projections token-for-token",
           ok, f"{len(expected)} classes checked")
