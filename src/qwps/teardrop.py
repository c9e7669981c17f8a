"""Concrete operator models for the weight-(1, l) algebras and their K-theory.

For k = 1 the degree-zero algebra acts irreducibly on l copies of l2(N0),

    a  . e_p = q^{2(lp+s-1)} e_p,
    b* . e_p = q^{lp+s-1} prod_{r=1}^{l} sqrt(1 - q^{2(lp+s-r)}) e_{p-1},

with b* killing e_0, while the ambient faithful representation of the full
coordinate algebra lives on l2(Z) ⊗ l2(N0),

    alpha . e_z ⊗ e_n = sqrt(1 - q^{2(n+1)}) e_z ⊗ e_{n+1},
    beta  . e_z ⊗ e_n = q^n e_{z+1} ⊗ e_n.

The models are evaluated on finite truncations.  The ambient generators are
weighted shifts, so an ambient word is applied exactly to one basis vector at
a time.  Restricting the ambient representation to the invariant subspaces
X_m (spanned by e_{m+p} ⊗ e_p^s) recovers the closed forms above
independently of m, degree-nl elements move X_m to X_{m+n}, and products
drawn from alpha*^j times the degree-nl component exhibit the shift-power
block pattern whose limit classes are the finite-rank/cofinite projections
encoded by :class:`ProjectionClass`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import TruncatedOperator, operator_norm
from .qcore import QContext

__all__ = [
    "ProjectionClass",
    "wp_rep",
    "wp_rep_via_ambient",
    "wp_relation_residuals",
    "lens_rep",
    "lens_commutation_residual",
    "block_structure_evidence",
    "ktheory_class",
    "projection_matrix",
]

# wp_relation_residuals forms about 2l(l+3) products of N x N matrices, and call
# overhead dominates below N = 32: l(l+3) max(N, 32)^3 = 3.2e10 took 15.5 s and
# 580 MB at l = 1, N = 2,000, and 2.4e10 took 16 s at l = 300, N = 64 (2 cores)
RELATION_WORK_GUARD = 32_000_000_000
# ktheory_class lists l ranks: 1.5 s and 161 MB at l = 1e6, 13 s and 1.3 GB at 1e7
KTHEORY_GUARD = 1_000_000


def _check_wp_args(l, s, N):
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not (1 <= s <= l):
        raise ValueError(f"s must lie in 1..{l}, got {s}")
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")


def _bstar_coeff(l, s, p, q):
    """Coefficient of b* on e_p (p >= 1); the r = s factor kills e_0 exactly."""
    prod = 1.0
    for r in range(1, l + 1):
        prod *= math.sqrt(1.0 - q ** (2 * (l * p + s - r)))
    return q ** (l * p + s - 1) * prod


def wp_rep(l: int, m: int, s: int, gen: str, N: int, ctx: QContext) -> TruncatedOperator:
    """Irreducible representation of the degree-zero generators on the s-th
    copy, truncated to dimension N.  The entries do not involve m; the
    interface keeps it so the independence can be verified against the
    ambient construction (:func:`wp_rep_via_ambient`)."""
    _check_wp_args(l, s, N)
    q = ctx.q
    mat = np.zeros((N, N), dtype=complex)
    if gen == "a":
        for p in range(N):
            mat[p, p] = q ** (2 * (l * p + s - 1))
    elif gen == "bstar":
        for p in range(1, N):
            mat[p - 1, p] = _bstar_coeff(l, s, p, q)
    elif gen == "b":
        for p in range(1, N):
            mat[p, p - 1] = _bstar_coeff(l, s, p, q)
    else:
        raise ValueError(f"gen must be 'a', 'b' or 'bstar', got {gen!r}")
    basis = tuple((s, p) for p in range(N))
    return TruncatedOperator(basis, mat)


# ---------------------------------------------------------------------------
# ambient representation on l2(Z) ⊗ l2(N0)


def _ambient_word(word, z: int, n: int, ctx: QContext):
    """Image of e_z ⊗ e_n under a word in the generators, as (coeff, z', n').

    Every generator is a weighted shift, so a word sends a basis vector to one
    multiple of one basis vector; the rightmost letter acts first, and alpha*
    kills e_0.  The coefficients are multiplied in word order, the association
    order of the matrix product of the letters.
    """
    q = ctx.q
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
        elif letter == "betastar":
            coeffs.append(q**n)
            z -= 1
        else:
            raise ValueError(f"unknown generator letter {letter!r}")
    return math.prod(reversed(coeffs)), z, n


def _wp_word(l: int, gen: str):
    if gen == "a":
        return ("beta", "betastar")
    if gen == "b":
        return ("beta",) + ("alpha",) * l
    if gen == "bstar":
        return ("alphastar",) * l + ("betastar",)
    raise ValueError(f"gen must be 'a', 'b' or 'bstar', got {gen!r}")


def wp_rep_via_ambient(
    l: int, m: int, s: int, gen: str, N: int, ctx: QContext
) -> TruncatedOperator:
    """Same operator as :func:`wp_rep`, produced by restricting the ambient
    representation to the invariant subspace spanned by e_{m+p} ⊗ e^s_p."""
    _check_wp_args(l, s, N)
    word = _wp_word(l, gen)
    mat = np.zeros((N, N), dtype=complex)
    for p in range(N):
        coeff, z, n = _ambient_word(word, m + p, l * p + s - 1, ctx)
        p_out = z - m
        if 0 <= p_out < N and n == l * p_out + s - 1:
            mat[p_out, p] = coeff
    basis = tuple((s, p) for p in range(N))
    return TruncatedOperator(basis, mat)


def wp_relation_residuals(l: int, N: int, ctx: QContext) -> dict:
    """Spectral-norm residuals of the defining relations on the truncation,
    per copy s; the b* b relation is evaluated on the interior columns only
    (b leaks through the top of the truncation).  Refuses l and N beyond
    RELATION_WORK_GUARD, and l, q for which q^{-2l} overflows a double."""
    _check_wp_args(l, 1, N)
    work = l * (l + 3) * max(N, 32) ** 3
    if work > RELATION_WORK_GUARD:
        raise ValueError(
            f"l = {l}, N = {N}: l(l+3) max(N, 32)^3 = {work:.3g} exceeds the cost guard "
            f"{RELATION_WORK_GUARD:.3g}"
        )
    q = ctx.q
    try:
        q_inv_2l = q ** (-2 * l)  # the coefficient of the a b* relation
    except OverflowError:
        raise ValueError(f"l = {l}, q = {q:g}: q^(-2l) overflows a double") from None
    out = {}
    for s in range(1, l + 1):
        a = wp_rep(l, 0, s, "a", N, ctx).matrix
        b = wp_rep(l, 0, s, "b", N, ctx).matrix
        bs = wp_rep(l, 0, s, "bstar", N, ctx).matrix
        eye = np.eye(N)

        def poly(factors):
            outm = eye.copy()
            for c in factors:
                outm = outm @ (eye + c * a)
            return outm

        r_sa = np.abs(a - a.conj().T).max()
        r_ab = operator_norm(a @ bs - q_inv_2l * bs @ a)
        rhs_bsb = q ** (2 * l) * a @ poly([-(q ** (2 * (mm + 1))) for mm in range(l)])
        diff = bs @ b - rhs_bsb
        r_bsb = operator_norm(diff[:, : N - 1])
        rhs_bbs = a @ poly([-(q ** (-2 * (mm - 1))) for mm in range(1, l + 1)])
        r_bbs = operator_norm(b @ bs - rhs_bbs)
        out[f"s={s}"] = {
            "a_selfadjoint": float(r_sa),
            "a_bstar": float(r_ab),
            "bstar_b_interior": float(r_bsb),
            "b_bstar": float(r_bbs),
        }
    out["max"] = max(v for d in out.values() if isinstance(d, dict) for v in d.values())
    return out


# ---------------------------------------------------------------------------
# quantum lens space representation


def lens_rep(l: int, s: int, gen: str, n_z: int, N: int, ctx: QContext) -> TruncatedOperator:
    """Generators of the lens-space subalgebra on the window
    z in [-n_z, n_z], p in [0, N): alpha^l raises p keeping z, beta shifts z
    with the diagonal weight q^{lp+s-1}."""
    if n_z < 3:
        raise ValueError(f"need n_z >= 3, got {n_z}")
    _check_wp_args(l, s, N)
    q = ctx.q
    zs = 2 * n_z + 1
    dim = zs * N

    def idx(z, p):
        return (z + n_z) * N + p

    mat = np.zeros((dim, dim), dtype=complex)
    for z in range(-n_z, n_z + 1):
        for p in range(N):
            if gen == "alpha_l":
                if p + 1 < N:
                    coeff = 1.0
                    for r in range(l):
                        coeff *= math.sqrt(1.0 - q ** (2 * (p * l + s + r)))
                    mat[idx(z, p + 1), idx(z, p)] = coeff
            elif gen == "beta":
                if z + 1 <= n_z:
                    mat[idx(z + 1, p), idx(z, p)] = q ** (l * p + s - 1)
            else:
                raise ValueError(f"gen must be 'alpha_l' or 'beta', got {gen!r}")
    basis = tuple((z, p) for z in range(-n_z, n_z + 1) for p in range(N))
    return TruncatedOperator(basis, mat)


def lens_commutation_residual(l: int, s: int, n_z: int, N: int, ctx: QContext) -> float:
    """beta alpha^l = q^l alpha^l beta on the interior of the window."""
    al = lens_rep(l, s, "alpha_l", n_z, N, ctx).matrix
    be = lens_rep(l, s, "beta", n_z, N, ctx).matrix
    diff = be @ al - ctx.q**l * al @ be
    # interior columns: images of both orders stay inside the window
    keep = []
    for z in range(-n_z, n_z + 1):
        for p in range(N):
            if z + 1 <= n_z and p + 1 < N:
                keep.append((z + n_z) * N + p)
    return float(np.abs(diff[:, keep]).max())


# ---------------------------------------------------------------------------
# block-pattern evidence for the homogeneous components


def _degree_samples(l: int, n: int):
    """A few monomial words spanning directions of the degree-nl component.

    The first sample carries the genuine shift part (coefficients tend to 1);
    the others are compact directions.
    """
    a_word = ("beta", "betastar")
    if n == 0:
        return [(), a_word, ("beta",) + ("alpha",) * l]
    if n > 0:
        shift = ("alphastar",) * (l * n)
        return [shift, shift + a_word, ("beta",) * n]
    nu = -n
    shift = ("alpha",) * (l * nu)
    return [shift, shift + a_word, ("betastar",) * nu]


def block_structure_evidence(l: int, n: int, j: int, N: int, ctx: QContext) -> dict:
    """Numerically verify the block pattern of alpha*^j times the degree-nl
    component: the copy s maps to s+l-j (shift power n+1) for s <= j and to
    s-j (shift power n) for s > j, with compact corrections that decay
    geometrically; everything off that pattern should vanish.

    The compact-tail criterion is conservative: beyond row/column N/2 the
    residual against the asymptotic shift must fall below q^{N/4}.
    """
    if not (1 <= j <= l):
        raise ValueError(f"need 1 <= j <= l, got j = {j}")
    if N < 8:
        raise ValueError(f"need N >= 8, got {N}")
    q = ctx.q
    m0 = 0
    report = {"l": l, "n": n, "j": j, "N": N, "samples": [], "pass": True}
    for sample in _degree_samples(l, n):
        word = ("alphastar",) * j + sample
        entry = {"word": "*".join(word) if word else "1", "blocks": {}, "off_pattern": 0.0}
        blocks: dict[tuple, np.ndarray] = {}
        off_pattern = 0.0
        for s_in in range(1, l + 1):
            if s_in <= j:
                target = (m0 + n + 1, s_in + l - j, n + 1)
            else:
                target = (m0 + n, s_in - j, n)
            m_t, s_t, pow_t = target
            block = np.zeros((N, N))
            for p in range(N):
                coeff, z_out, n_out = _ambient_word(word, m0 + p, l * p + s_in - 1, ctx)
                if abs(coeff) <= 1e-16:
                    continue
                p_out, s_out = divmod(n_out, l)
                s_out += 1
                if (z_out - p_out, s_out) == (m_t, s_t):
                    if p_out < N:
                        block[p_out, p] = coeff
                else:
                    off_pattern = max(off_pattern, abs(coeff))
            blocks[(s_t, s_in)] = (block, pow_t)
        entry["off_pattern"] = float(off_pattern)
        ok = off_pattern < 10 * ctx.tol
        for (s_t, s_in), (block, pow_t) in blocks.items():
            info = _shift_plus_compact(block, pow_t, q, N)
            info["s_in"], info["s_out"] = s_in, s_t
            ok = ok and info["pass"]
            entry["blocks"][f"{s_in}->{s_t}"] = info
        entry["pass"] = bool(ok)
        report["samples"].append(entry)
        report["pass"] = bool(report["pass"] and ok)
    return report


def _shift_plus_compact(block: np.ndarray, power: int, q: float, N: int) -> dict:
    """Fit block ~ c * Shift^power + compact and test the geometric tail."""
    rows = np.arange(max(0, -power), min(N, N - power))
    cols = rows + power
    c = block[rows[-1], cols[-1]] if len(rows) else 0.0
    resid = block.copy()
    resid[rows, cols] -= c
    half = N // 2
    resid[:half, :half] = 0.0
    tail_max = np.abs(resid).max()
    threshold = q ** (N / 4.0)
    return {
        "shift_power": power,
        "coefficient": float(c),
        "tail_max": float(tail_max),
        "tail_threshold": float(threshold),
        "pass": bool(tail_max < threshold),
    }


# ---------------------------------------------------------------------------
# K-theory projection classes


@dataclass(frozen=True)
class ProjectionClass:
    """Symbolic projection data of the module class of a homogeneous component.

    free_rank counts identity summands; when complemented, the projection is
    one minus the listed finite-rank parts.  ranks[s-1] is the P index on
    copy s (an index <= 0 denotes the zero projection).
    """

    l: int
    n: int
    j: int
    free_rank: int
    complemented: bool
    ranks: tuple

    def tokens(self) -> str:
        """Literal projection expression with the stated parameters."""
        l, n, j = self.l, self.n, self.j
        sub = lambda v: str(v) if v >= 0 else f"{{{v}}}"  # noqa: E731
        if j == 0:
            body = f"(⊕_{{s=1}}^{{{l}}} P_{sub(n)})"
            return f"I_1 ⊕ {body}" if n >= 0 else f"1 - {body}"
        left = f"(⊕_{{s=1}}^{{{l - j}}} P_{sub(n)})"
        right = f"(⊕_{{s={l - j + 1}}}^{{{l}}} P_{sub(n + 1)})"
        if n >= 0:
            return f"I_1 ⊕ {left} ⊕ {right}"
        return f"1 - {left} ⊕ {right}"

    def reduced(self) -> str:
        """Canonical rendering with zero projections (index <= 0) dropped."""
        parts = [f"P_{r}" for r in self.ranks if r > 0]
        if self.complemented:
            return "1 - (" + " ⊕ ".join(parts) + ")" if parts else "1"
        head = ["I_1"] if self.free_rank else []
        return " ⊕ ".join(head + parts) if head + parts else "0"

    def to_dict(self) -> dict:
        return {
            "l": self.l,
            "n": self.n,
            "j": self.j,
            "free_rank": self.free_rank,
            "complemented": self.complemented,
            "ranks": list(self.ranks),
            "tokens": self.tokens(),
            "reduced": self.reduced(),
        }


def ktheory_class(l: int, n: int, j: int) -> ProjectionClass:
    """Projection class of the homogeneous component of order nl + j.

    j = 0 gives the line-bundle classes; 1 <= j <= l-1 the mixed classes
    with l-j copies of P_n and j copies of P_{n+1}.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if l > KTHEORY_GUARD:
        raise ValueError(f"l = {l} exceeds the cost guard {KTHEORY_GUARD}")
    if not (0 <= j <= l - 1):
        raise ValueError(f"need 0 <= j <= l-1, got j = {j}")
    ranks = tuple([n] * (l - j) + [n + 1] * j)
    if n >= 0:
        return ProjectionClass(l, n, j, free_rank=1, complemented=False, ranks=ranks)
    return ProjectionClass(l, n, j, free_rank=0, complemented=True, ranks=ranks)


def projection_matrix(rank: int, dim: int) -> np.ndarray:
    """Finite-rank projection onto the first max(rank, 0) basis vectors."""
    rank = max(rank, 0)
    if rank > dim:
        raise ValueError(f"rank {rank} exceeds truncation dimension {dim}")
    mat = np.zeros((dim, dim))
    mat[:rank, :rank] = np.eye(rank)
    return mat
