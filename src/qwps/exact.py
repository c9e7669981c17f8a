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
import numbers
from dataclasses import dataclass
from functools import reduce, total_ordering
from itertools import accumulate, chain, repeat
from operator import add, mul, truediv

__all__ = [
    "HalfInt",
    "QContext",
    "hi",
    "nonneg_hi",
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


def nonneg_hi(value, name: str) -> HalfInt:
    """:func:`hi` of a highest weight or cap, refused by name when negative."""
    value = hi(value)
    if value.twice < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


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
        if not (isinstance(self.k, numbers.Integral) and isinstance(self.l, numbers.Integral)):
            raise ValueError(f"k, l must be integers, got ({self.k}, {self.l})")
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
    """Eigenvalue/multiplicity rows, strictly increasing, zero rows omitted:
    the shells' negatives, the last shell first, then the shells."""

    rows: tuple

    def __post_init__(self):
        prev = None
        for ev, mult in self.rows:
            if mult <= 0:
                raise ValueError(f"multiplicity must be positive, got {mult} at {ev}")
            if prev is not None and ev <= prev:
                raise ValueError("eigenvalues must be strictly increasing")
            prev = ev

    def multiplicity(self, eigenvalue: float) -> int:
        for ev, mult in self.rows:
            if ev == eigenvalue:
                return mult
        return 0

    def total(self) -> int:
        return sum(mult for _, mult in self.rows)


# each triple's shell at doubled index t: |eigenvalue| (t + 2)/scale, 2(j+1) at
# j = t/2 (odd) or lam+1 at lam = t/2 (even), and multiplicity core(wp, t)
_TRIPLES = {"odd": (1.0, lambda wp, t: dim_V_down_doubled(wp, t + 2)),
            "even": (2.0, dim_V_doubled)}


def _triple(triple: str):
    """(scale, core) of :data:`_TRIPLES` for ``triple``, refused unless it names one."""
    if triple not in ("odd", "even"):
        raise ValueError(f"triple must be 'odd' or 'even', got {triple!r}")
    return _TRIPLES[triple]


def _spectrum(wp: WeightPair, triple: str, cap) -> SpectrumTable:
    t_max = hi(cap).twice
    scale, core = _triple(triple)
    shells = [((t + 2) / scale, mult) for t in range(t_max + 1) if (mult := core(wp, t))]
    return SpectrumTable(tuple([(-ev, mult) for ev, mult in reversed(shells)] + shells))


def odd_triple_spectrum(wp: WeightPair, j_max) -> SpectrumTable:
    """Shifted coinvariant Dirac spectrum: ±2(j+1), each with multiplicity
    dim V^down_{j+1} (equal to the up dimension at level j)."""
    return _spectrum(wp, "odd", j_max)


def even_triple_spectrum(wp: WeightPair, lam_max) -> SpectrumTable:
    """Even-triple spectrum: ±(lam+1) with multiplicity dim V_lam."""
    return _spectrum(wp, "even", lam_max)


# B_2, B_4, ..., B_16.  For s = 1, 2, 3 and x >= 10, with c_j = B_2j/(2j), B_2j
# and (2j+1) B_2j/2 (DLMF 5.11.2, 25.11.43),
#     R_s(x) = x^(1-s) (1/(s-1) [s > 1] + 1/(2x) + sum_{j=1}^{8} c_j x^(-2j))
# is ln x - psi(x) for s = 1 and zeta(s, x) for s = 2, 3, short of less than the
# first term left out, B_18 = 43867/798 times x^-18/18, x^-19 and (19/2) x^-20:
# 3.1e-18, 5.5e-18 and 5.3e-18 at x = 10
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_EM_COEFFS = {1: [b / (2 * j) for j, b in enumerate(_BERNOULLI, 1)],
              2: list(_BERNOULLI),
              3: [(2 * j + 1) * b / 2 for j, b in enumerate(_BERNOULLI, 1)]}
# shells per residue class summed one by one before the class's tail is taken
# in closed form, so that every expansion is read at x >= 10
_HEAD_PERIODS = 10


def _em_tail(s: int, x: float) -> float:
    """R_s(x) of the expansions above, for s in (1, 2, 3) and x >= 10."""
    y, series = 1.0 / (x * x), 0.0
    for c in reversed(_EM_COEFFS[s]):  # Horner's rule in y
        series = (series + c) * y
    return x ** (1 - s) * (series + 0.5 / x + (1 / (s - 1) if s > 1 else 0.0))


def _power_sum(s: int, a: float, n: int) -> float:
    """sum_{i=0}^{n-1} (a + i)^-s for a >= 10: psi(a + n) - psi(a) for s = 1,
    zeta(s, a) - zeta(s, a + n) for s = 2, 3."""
    b = a + n
    return _em_tail(s, a) - _em_tail(s, b) + (math.log1p(n / a) if s == 1 else 0.0)


def summability_partial_sum(wp: WeightPair, N, triple: str, exponent: int = 2) -> float:
    """Partial trace sum(mult * |eigenvalue|^-exponent) over shells with index <= N.

    With exponent 2 the sum diverges logarithmically in N for both triples
    (the dimension is exactly 2); with exponent 3 it converges.  Only these
    two exponents are accepted: the tail below reads asymptotic expansions
    at x >= 10, which are accurate only for x much larger than the exponent.

    The shells are those of :data:`_TRIPLES`.  A shell's multiplicity is
    linear on each residue class r of t mod P = 2(k+l), so the core is read
    for two periods only: class r's doubled multiplicity is M_r + i D_r at
    t = r + i P.  The sum has two stages (Euler-Maclaurin summation):

    - the head, the shells t < 10 P, is added one by one in ascending t with
      no Python call per shell: each later period of 2 mult is the one before
      plus the class steps (exact: these are integers in a double), and the
      terms ev^-exponent (2 mult) are added as a loop over the shells adds
      (2 mult) ev^-exponent.  A shell of multiplicity 0 adds +0.0.  So where
      2N + 1 <= 20(k+l) the sum is bitwise that loop's;
    - the tail of class r, its shells i = 10 ... K_r - 1, is
      (scale/P)^e [(M_r - D_r w) Z_e + D_r Z_(e-1)] with w = (r + 2)/P and
      Z_s = sum (w + i)^-s, a difference of digamma (s = 1) or Hurwitz zeta
      values read from :func:`_power_sum`.  Each expansion is cut below
      6e-18 at x >= 10.  Against exact sums the relative error is below
      2e-15 (every coprime k + l <= 20 up to N = 4096, where the loop's
      float sums drift to 1.1e-14), and below 1e-15 for (1, 1), (1, 2),
      (2, 3), (3, 5) and (5, 7) up to N = 3e5.

    The cost is O(min(N, 10(k+l)) + k + l), whatever N is.
    """
    t_max = hi(N).twice
    if t_max < 2:
        raise ValueError(f"N must be >= 1, got {N}")
    period, ts = 2 * wp.s, range(min(4 * wp.s, t_max + 1))
    scale, core = _triple(triple)
    if exponent not in (2, 3):
        raise ValueError(f"exponent must be 2 or 3, got {exponent!r}")
    # one list, of doubled multiplicities as ints, cut to the first period once the
    # class steps are read: each is exact in a double, so the sums below read the
    # bits they would read from floats
    firsts = [2 * core(wp, t) for t in ts]
    steps = [float(b - a) for a, b in zip(firsts, firsts[period:])]
    del firsts[period:]
    periods = accumulate(repeat(steps), lambda row, step: list(map(add, row, step)),
                         initial=firsts)
    # the powers come first, so the sweep stops after the head's last shell even
    # where a short table leaves the later period rows empty
    t_head = min(t_max, _HEAD_PERIODS * period - 1)
    powers = map(pow, map(truediv, range(2, t_head + 3), repeat(scale)), repeat(-exponent))
    head = reduce(add, map(mul, powers, chain.from_iterable(periods)), 0.0)
    tail = 0.0
    for r, (first, step) in enumerate(zip(firsts, steps)):
        count = (t_max - r) // period + 1 - _HEAD_PERIODS
        if count > 0 and (first or step):
            w = (r + 2) / period
            a = w + _HEAD_PERIODS
            tail += ((first - step * w) * _power_sum(exponent, a, count)
                     + step * _power_sum(exponent - 1, a, count))
    return head + (scale / period) ** exponent * tail


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
