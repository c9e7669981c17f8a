"""The exact layer: half-integer weights, the deformation context and the
integer combinatorics of both spectral triples, in the standard library only.

The eigenspace dimensions of the odd and even triples have closed forms in
integer arithmetic on doubled indices, checked against counting oracles over
the same p-window; the spectra ±2(j+1) and ±(lam+1), the summability sums and
the K-theory projection classes are built from them.  The defining relations
of C[WP_{k,l,q}] are stated here once, as generator words and scalars, for
the coordinate algebra and the teardrop models to evaluate.  Nothing here
needs an array, so this module loads neither numpy nor scipy; the numeric modules
import these names from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering

__all__ = [
    "HalfInt",
    "QContext",
    "hi",
    "WeightPair",
    "dim_V_down",
    "dim_V_down_doubled",
    "dim_V_down_oracle",
    "dim_V_up_oracle",
    "dim_V",
    "dim_V_doubled",
    "dim_V_oracle",
    "dim_table",
    "SpectrumTable",
    "odd_triple_spectrum",
    "even_triple_spectrum",
    "summability_partial_sum",
    "ProjectionClass",
    "ktheory_class",
    "residual_max",
    "wp_words",
    "wp_relations",
]

# ktheory_class lists l ranks: 1.5 s and 161 MB at l = 1e6, 13 s and 1.3 GB at 1e7
KTHEORY_GUARD = 1_000_000


@total_ordering
@dataclass(frozen=True)
class HalfInt:
    """Exact half-integer, stored as twice its value.

    All weight bookkeeping (lambda, m, n, j, mu, p) goes through this type so
    that basis indexing never suffers floating point drift.
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be int, got {type(self.twice).__name__}")

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def float(self) -> float:
        return self.twice / 2.0

    def __float__(self) -> float:
        return self.twice / 2.0

    def as_int(self) -> int:
        if self.twice % 2:
            raise ValueError(f"{self} is not an integer")
        return self.twice // 2

    def _coerce(self, other) -> "HalfInt":
        if isinstance(other, HalfInt):
            return other
        if isinstance(other, int):
            return HalfInt(2 * other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else HalfInt(self.twice + o.twice)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else HalfInt(self.twice - o.twice)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else HalfInt(o.twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.twice * other)
        return NotImplemented

    __rmul__ = __mul__

    def __lt__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else self.twice < o.twice

    def __eq__(self, other):
        if isinstance(other, (HalfInt, int)):
            return self.twice == self._coerce(other).twice
        return NotImplemented

    def __hash__(self):
        # HalfInt(2n) == n, so it hashes as n; an odd twice equals no int
        return hash(self.twice // 2 if self.twice % 2 == 0 else self.twice)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


def hi(value) -> HalfInt:
    """Coerce an int, an exact multiple of 1/2 whose double is finite, or a HalfInt."""
    if isinstance(value, HalfInt):
        return value
    if isinstance(value, int):
        return HalfInt(2 * value)
    doubled = 2 * value
    if not math.isfinite(doubled):
        raise ValueError(f"{value!r} is out of range: twice it is not finite")
    if doubled != int(doubled):
        raise ValueError(f"{value!r} is not a half-integer")
    return HalfInt(int(doubled))


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q in (0, 1) plus the numeric tolerance tol in (0, 1).

    A single context is the source of q for every module; immutable, safe to
    share across threads.  tol only sets the pass/fail thresholds of the
    checks: no computed number depends on it, and nothing is pruned by it.
    """

    q: float = 0.5
    tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie in (0, 1), got {self.q}")
        # a threshold >= 1 passes residuals as large as the unit-size quantities
        # the checks compare, so a suite would pass vacuously
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must be finite and lie in (0, 1), got {self.tol}")


@dataclass(frozen=True)
class WeightPair:
    """Coprime positive integers (k, l) selecting the circle coaction."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 1 or self.l < 1:
            raise ValueError(f"k, l must be positive, got ({self.k}, {self.l})")
        if math.gcd(self.k, self.l) != 1:
            raise ValueError(f"k = {self.k} and l = {self.l} are not coprime")

    @property
    def s(self) -> int:
        return self.k + self.l


def residual_max(values) -> float:
    """The largest residual: NaN if any is NaN, 0.0 if none is positive.

    Python's max keeps its running value when a comparison is false, so it
    drops a NaN that follows a finite value and a report could pass with one.
    """
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max([0.0, *values])


def wp_words(k: int, l: int):
    """Words of a = beta beta*, b = beta^k alpha^l and b* = alpha*^l beta*^k in
    the letters alpha, beta, alphastar, betastar, leftmost letter first."""
    return (("beta", "betastar"), ("beta",) * k + ("alpha",) * l,
            ("alphastar",) * l + ("betastar",) * k)


def wp_relations(k: int, l: int, q: float):
    """Scalars (r, s, f_bsb, f_bbs) of the relations of C[WP_{k,l,q}],

        a* = a,    a b* = r b* a,
        b* b = s a^k prod_{f in f_bsb} (1 + f a),
        b b* = a^k prod_{f in f_bbs} (1 + f a),

    with r = q^{-2l}, s = q^{2kl}, f_bsb = -q^{2m} for m = 1..l and
    f_bbs = -q^{-2(m-1)} for m = 1..l.  Refuses q for which r, the largest
    scalar, overflows a double."""
    try:
        r = q ** (-2 * l)
    except OverflowError:
        raise ValueError(f"l = {l}, q = {q:g}: q^(-2l) overflows a double") from None
    return (r, q ** (2 * k * l), [-(q ** (2 * m)) for m in range(1, l + 1)],
            [-(q ** (-2 * (m - 1))) for m in range(1, l + 1)])


def _p_window(wp: WeightPair, lo: int, hi: int, t: int) -> list[int]:
    """Doubled p, ascending, with lo <= 2p(l+k) <= hi and 2p(l+k) = t mod 2."""
    s = wp.s
    return [tp for tp in range(-(-lo // s), hi // s + 1) if (tp * s - t) % 2 == 0]



# ---------------------------------------------------------------------------
# eigenspace dimensions: closed forms and enumeration oracles


def dim_V_down(wp: WeightPair, j) -> int:
    """Closed-form dimension of the level-j down space of coinvariant spinors;
    :func:`dim_V_down_doubled` at 2j."""
    return dim_V_down_doubled(wp, hi(j).twice)


def dim_V_down_doubled(wp: WeightPair, t: int) -> int:
    """dim V^down_j at j = t/2, in integer arithmetic on the doubled index t."""
    if t < 0:
        raise ValueError(f"j must be >= 0, got {HalfInt(t)}")
    s = wp.s
    if t == 0:
        return 0
    if s % 2 == 0:
        if t % 2:
            return 0
        jj, h = t // 2, s // 2
        return jj // h + (jj - 1) // h + 1
    if t % 2 == 0:
        jj = t // 2
        return jj // s + (jj - 1) // s + 1
    # half-odd j: [j/s + 1/2] + [(j-1)/s + 1/2] in exact integer arithmetic
    return (t + s) // (2 * s) + (t - 2 + s) // (2 * s)


def dim_V_down_oracle(wp: WeightPair, j) -> int:
    """Count half-integers p with p(l+k) in {-j+1, ..., j}."""
    t = hi(j).twice
    return len(_p_window(wp, -t + 2, t, t))


def dim_V_up_oracle(wp: WeightPair, j) -> int:
    """Count half-integers p with p(l+k) in {-j, ..., j+1}."""
    t = hi(j).twice
    return len(_p_window(wp, -t, t + 2, t))


def dim_V(wp: WeightPair, lam) -> int:
    """Closed-form dimension of the degree-0 subspace at highest weight lam;
    :func:`dim_V_doubled` at 2 lam."""
    return dim_V_doubled(wp, hi(lam).twice)


def dim_V_doubled(wp: WeightPair, t: int) -> int:
    """dim V_lam at lam = t/2, in integer arithmetic on the doubled index t."""
    if t < 0:
        raise ValueError(f"lam must be >= 0, got {HalfInt(t)}")
    s = wp.s
    if s % 2 == 0:
        if t % 2:
            return 0
        return 2 * ((t // 2) // (s // 2)) + 1
    if t % 2 == 0:
        return 2 * ((t // 2) // s) + 1
    return 2 * ((t + s) // (2 * s))


def dim_V_oracle(wp: WeightPair, lam) -> int:
    """Count half-integers p with p(l+k) in {-lam, ..., lam}."""
    t = hi(lam).twice
    return len(_p_window(wp, -t, t, t))


def dim_table(wp: WeightPair, index_max) -> list[dict]:
    """Rows (family, index, closed_form, oracle, match) for both dimension formulas.

    Half-integer rows appear only when k+l is odd; for even k+l those spaces
    vanish identically and the rows are omitted.
    """
    index_max = hi(index_max)
    step = 2 if wp.s % 2 == 0 else 1
    rows = []
    for family, closed_form, oracle in (
        ("V_down", dim_V_down, dim_V_down_oracle),
        ("V", dim_V, dim_V_oracle),
    ):
        for t in range(0, index_max.twice + 1, step):
            x = HalfInt(t)
            closed, counted = closed_form(wp, x), oracle(wp, x)
            rows.append(
                {
                    "family": family,
                    "index": x.float,
                    "closed_form": closed,
                    "oracle": counted,
                    "match": closed == counted,
                }
            )
    return rows


# ---------------------------------------------------------------------------
# spectra and summability


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalue/multiplicity rows, strictly increasing, zero rows omitted."""

    rows: tuple

    def __post_init__(self):
        prev = None
        for ev, mult in self.rows:
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult} at {ev}")
            if prev is not None and ev <= prev:
                raise ValueError("eigenvalues must be strictly increasing")
            prev = ev

    @staticmethod
    def from_pairs(pairs) -> "SpectrumTable":
        merged: dict[float, int] = {}
        for ev, mult in pairs:
            if mult:
                merged[ev] = merged.get(ev, 0) + mult
        return SpectrumTable(tuple(sorted(merged.items())))

    def multiplicity(self, eigenvalue: float) -> int:
        for ev, mult in self.rows:
            if ev == eigenvalue:
                return mult
        return 0

    def total(self) -> int:
        return sum(mult for _, mult in self.rows)


def _shells(wp: WeightPair, triple: str, cap):
    """(|eigenvalue|, multiplicity) of every shell with index <= cap: 2(j+1)
    with dim V^down_{j+1} for the odd triple, lam+1 with dim V_lam for the even."""
    ts = range(hi(cap).twice + 1)
    if triple == "odd":
        return zip([t + 2.0 for t in ts], [dim_V_down_doubled(wp, t + 2) for t in ts])
    if triple == "even":
        return zip([t / 2.0 + 1 for t in ts], [dim_V_doubled(wp, t) for t in ts])
    raise ValueError(f"triple must be 'odd' or 'even', got {triple!r}")


def _spectrum(wp: WeightPair, triple: str, cap) -> SpectrumTable:
    pairs = [(sign * ev, mult) for ev, mult in _shells(wp, triple, cap) for sign in (1, -1)]
    return SpectrumTable.from_pairs(pairs)


def odd_triple_spectrum(wp: WeightPair, j_max) -> SpectrumTable:
    """Shifted coinvariant Dirac spectrum: ±2(j+1), each with multiplicity
    dim V^down_{j+1} (equal to the up dimension at level j)."""
    return _spectrum(wp, "odd", j_max)


def even_triple_spectrum(wp: WeightPair, lam_max) -> SpectrumTable:
    """Even-triple spectrum: ±(lam+1) with multiplicity dim V_lam."""
    return _spectrum(wp, "even", lam_max)


def summability_partial_sum(wp: WeightPair, N, triple: str, exponent: int = 2) -> float:
    """Partial trace sum(mult * |eigenvalue|^-exponent) over shells with index <= N.

    With exponent 2 the sum diverges logarithmically in N for both triples
    (the dimension is exactly 2); with exponent 3 it converges.
    """
    if hi(N).twice < 2:
        raise ValueError(f"N must be >= 1, got {N}")
    total = 0.0
    for ev, mult in _shells(wp, triple, N):
        if mult:
            total += 2.0 * mult * ev ** (-exponent)
    return total


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
    ranks: tuple

    free_rank = property(lambda self: int(self.n >= 0))
    complemented = property(lambda self: self.n < 0)

    def tokens(self) -> str:
        """Literal projection expression with the stated parameters."""
        l, n, j = self.l, self.n, self.j
        sub = lambda v: str(v) if v >= 0 else f"{{{v}}}"  # noqa: E731
        runs = [(1, l - j, n), (l - j + 1, l, n + 1)] if j else [(1, l, n)]
        body = " ⊕ ".join(f"(⊕_{{s={a}}}^{{{b}}} P_{sub(r)})" for a, b, r in runs)
        return f"1 - {body}" if self.complemented else f"I_1 ⊕ {body}"

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
    return ProjectionClass(l, n, j, ranks=tuple([n] * (l - j) + [n + 1] * j))
