"""Finite and infinite sum evaluators.

Exact evaluators (via a shared :class:`~qzeta.qarith.QContext`):

* :func:`mhs` / :func:`mhs_many`: finite nested harmonic sums over strictly
  decreasing (default) or weakly decreasing (``star=True``) index tuples.
* :func:`pattern_mhs_many`: finite mollified sums summed over every
  resolution of a pattern (or those a per-separator merge mask allows), by
  one dynamic programme over its contiguous runs, the run engine, with the
  binomial-ratio prefactor tied to the outermost index and applied in
  integers.
* :func:`mollified_mhs` / :func:`mollified_mhs_many`: the same engine on a
  single :class:`~qzeta.expansion.Triple` (no runs merged).
* :func:`q_zeta`: infinite harmonic series, evaluated to a proven tail bound.
* :func:`frakz`: infinite mollified series of an admissible pattern, the
  same engine's partial sum over the outermost index without the
  prefactor, taken to a proven tail bound; read as one triple, or summed
  over every resolution as one series with one aggregate tail bound.

The one floating-point engine, :func:`classical_zeta_many`, computes
partial sums of classical (signed) multiple zeta values with numpy and
reports a first-omitted-term style tail estimate for each.  It takes every
series of a check at once and sums each distinct suffix (with its descent)
once, in one sweep over chunks of the index range in reused buffers;
:func:`classical_zeta` is its one-series case.

All nested-sum evaluators share the same dynamic programming scheme: one
running cumulative per nesting level, updated index by index, so a whole
family of values costs the same as the deepest single one.  In the exact
ones every cumulative is an integer numerator over a known denominator, so
no loop takes a gcd and each returned value is reduced once.  For q = a/b and
L_k = lcm(b^i - a^i, i <= k), the harmonic sums (and so :func:`q_zeta`)
scale a cumulative at index k by a power of L_k times a power of b.  The
mollified sums and :func:`frakz` share one recurrence, the run engine,
whose terms also carry q^quadratic and (1 + q^k) factors: it scales the
cumulative of slots i..m-1 by L_k^W_i a^A_i b^B_i, with W_i their total
magnitude and A_i, B_i the largest exponents its terms need (see
:func:`_inner_terms`).  The finite mollified sums then apply their
prefactor in integers: with P_j = prod_(i <= j) (b^i - a^i) and the
Gaussian-binomial integer G(N, j) = P_N / (P_j P_(N-j)),

    br(n, k) = gauss(n, k) / gauss(n + k, k) = P_n^2 / P_2n * G(2n, n-k) * b^(k^2),

so over one common denominator of the engine's values each upper limit n
costs one integer dot product, and :func:`~qzeta.verify.verify_mhs`
compares the unreduced sides by cross-multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from math import comb
from operator import mul
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .expansion import Triple, is_admissible
from .indices import boxplus, oplus, quad_exponent, signed_string
from .qarith import QContext


class SeriesValue(NamedTuple):
    """Partial sum with a rigorous bound on the omitted tail."""

    value: Fraction
    tail_bound: Fraction
    terms: int


class ClassicalValue(NamedTuple):
    """Float partial sum with a heuristic estimate of the omitted tail."""

    value: float
    tail_est: float
    terms: int


# Largest upper limit of a harmonic sum (and so the longest q_zeta
# truncation), checked before any term is summed.  The numerators grow like
# n**2 bits, so the cost grows about as n**4: (2,1) at q = 1/2 and n = 1000
# takes about 10 s, (2,1,1,3,1) at q = 5/8 and n = 500 about 27 s on a
# 2-vCPU x86-64 host.
MAX_MHS_LIMIT = 1000


def _mhs_numerators(ctx: QContext, entries: tuple, n_max: int, star: bool) -> list[int]:
    """Numerators of the nested harmonic sum for every upper limit 0..n_max;
    value n is ``nums[n] / _mhs_scale(ctx, entries, n)``.

    With q = a/b in lowest terms, P_k = b^k - a^k and L_k = ctx.p_lcm(k),
    w_k = L_k/[k] = (b-a) b^(k-1) L_k/P_k is an integer and the term of
    magnitude s at index k is sgn^k a^k w_k^s / (b^k L_k^s).  At step k,
    level j is scaled by D_j(k) = L_k^s_j * b^beta, with beta = k when
    s_j = 0 and 1 otherwise, which makes its term the integer
    c_j(k) = sgn^k a^k v_k w_k^(s_j-1) (sgn^k a^k when s_j = 0), where
    v_k = w_k / b^(k-1).  X_j, the cumulative of level j times
    D_j(k)...D_{m-1}(k), is carried from k-1 to k by the growth of those
    scales, then X_j += c_j(k) X_{j+1} with X_m = 1.  Only integers are
    added and multiplied; the caller reduces each value once, or compares
    it unreduced.  Letting the scales grow with k, rather than fixing them
    at L_n_max from the start, keeps the products of the early steps small.

    Raises ValueError, before summing any term, for n_max above
    MAX_MHS_LIMIT.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > MAX_MHS_LIMIT:
        raise ValueError(f"upper limit {n_max} exceeds {MAX_MHS_LIMIT} for a harmonic sum")
    a, b = ctx.q.numerator, ctx.q.denominator
    m = len(entries)
    mags = [e.magnitude for e in entries]
    # X_j carries the scales of levels j..m-1: from k-1 to k they grow by
    # (L_k/L_{k-1})^(s_j+...+s_{m-1}) * b^(number of zero magnitudes there)
    grow_l = [sum(mags[j:]) for j in range(m)]
    grow_b = [mags[j:].count(0) for j in range(m)]
    x = [0] * m + [1]
    nums = [x[0]]
    # weak descent: level j sees level j+1 already updated at k; strict
    # descent: level j sees level j+1 as of k-1, so update top-down
    order = range(m - 1, -1, -1) if star else range(m)
    for k in range(1, n_max + 1):
        lcm = ctx.p_lcm(k)
        ratio = lcm // ctx.p_lcm(k - 1)
        for j in range(m):
            if x[j]:
                x[j] *= ratio ** grow_l[j] * b ** grow_b[j]
        ak = a**k
        v = (b - a) * (lcm // (b**k - a**k))
        w = v * b ** (k - 1)
        for j in order:
            c = ak * v * w ** (mags[j] - 1) if mags[j] else ak
            if entries[j].sign < 0 and k % 2:
                c = -c
            x[j] += c * x[j + 1]
        nums.append(x[0])
    return nums


def _mhs_scale(ctx: QContext, entries: tuple, n: int) -> int:
    """Denominator D_0(n)...D_{m-1}(n) of the numerators of _mhs_numerators."""
    mags = [e.magnitude for e in entries]
    b_exponent = sum(1 if s else n for s in mags)
    return ctx.p_lcm(n) ** sum(mags) * ctx.q.denominator**b_exponent


def mhs_many(ctx: QContext, s: Sequence, n_max: int, star: bool = False) -> list[Fraction]:
    """Values of the nested harmonic sum for every upper limit 0..n_max."""
    entries = signed_string(s)
    nums = _mhs_numerators(ctx, entries, n_max, star)
    return [Fraction(x, _mhs_scale(ctx, entries, n)) for n, x in enumerate(nums)]


def mhs(ctx: QContext, s: Sequence, n: int, star: bool = False) -> Fraction:
    """Nested harmonic sum with upper limit n (zero when too short)."""
    entries = signed_string(s)
    return Fraction(_mhs_numerators(ctx, entries, n, star)[n], _mhs_scale(ctx, entries, n))


def _runs(pattern: Triple, merge) -> list[list[tuple]]:
    """For each start slot i, the runs [i, j) as (j, s, t, r) folded slots.

    ``merge`` has one flag per separator (separator p sits between slots p
    and p+1); ``True`` and ``False`` stand for all and none.  A run [i, j)
    is kept only if every separator inside it merges, so with ``False``
    only the single-slot runs [i, i+1) remain and the pattern is read as a
    single triple.  A run grows one slot at a time, left to right, because
    boxplus is not associative.
    """
    m = pattern.depth
    if isinstance(merge, bool):
        merge = (merge,) * (m - 1)
    elif len(merge) != m - 1:
        raise ValueError(f"merge mask needs {m - 1} entries, got {len(merge)}")
    out = []
    for i in range(m):
        s, t, r = pattern.s[i], pattern.t[i], pattern.r[i]
        row = [(i + 1, s, t, r)]
        for j in range(i + 1, m):
            if not merge[j - 1]:
                break
            s = oplus(s, pattern.s[j])
            t += pattern.t[j]
            r = boxplus(r, pattern.r[j])
            row.append((j + 1, s, t, r))
        out.append(row)
    return out


def _inner_terms(ctx: QContext, pattern: Triple, merge) -> Iterator[tuple[int, int, int]]:
    """Yield inner[k], the mollified sums of every resolution of a pattern
    with outermost index k, for k = 1, 2, ... (no prefactor), as integers
    (y, A, B) with inner[k] = y / (L_k**W_0 * a**A * b**B); see the scale
    below.

    A resolution cuts the m slots into contiguous runs, each folded into one
    slot, so the 2**(m-1) resolutions share the m(m+1)/2 runs [i, j).  The
    merge mask of :func:`_runs` restricts the sum to the resolutions whose
    commas include every separator it leaves unmerged.  With
    T_[i,j)(k) the mollified term of the folded run at index k, C_m = 1 and

        C_i[k]   = C_i[k-1] + sum_{j>i} T_[i,j)(k) * C_j[k-1],
        inner[k] = sum_j T_[0,j)(k) * C_j[k-1],

    C_i[k] sums the strict nested sums below k of every resolution of slots
    i..m-1.

    Scale: with q = a/b, P_k = b**k - a**k and L_k = ctx.p_lcm(k), the term
    of a run of magnitude s, sign w, offset t and shift r at index k is

        w**k (b-a)**s (L_k/P_k)**s (b**k + a**k) a**e b**((k-1)s - k - e) / L_k**s

    with e = t*k + Q(r, k); e and the b exponent may be negative.  Every
    resolution of slots i..m-1 has total magnitude W_i = s_i + ... + s_(m-1),
    since oplus adds magnitudes, so level i keeps C_i[k] as an integer X_i
    over L_k**W_i * a**A_i * b**B_i, where A_i and B_i are the largest a- and
    b-powers any of its terms has needed so far (either may be negative).
    From k-1 to k a level moves to its new scale by (L_k/L_(k-1))**W_i and a
    monomial in a and b, so only integers are added and multiplied and no
    gcd is taken.  L_k is prime to a and b, so the values yielded up to n
    share the denominator L_n**W_0 * a**A' * b**B', with A' and B' the
    largest of their exponents and 0, known without an lcm.
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    m = pattern.depth
    runs = [
        [(j, s.magnitude, s.sign < 0, t, r) for j, s, t, r in row] for row in _runs(pattern, merge)
    ]
    shifts = {r for row in runs for *_, r in row}
    weight = [sum(e.magnitude for e in pattern.s[i:]) for i in range(m + 1)]
    x = [0] * m + [1]
    # exponents of a and b in each level's scale; None while the level is empty
    ea: list = [None] * m + [0]
    eb = [0] * (m + 1)
    for k in count(1):
        lk = ctx.p_lcm(k)
        ratio = lk // ctx.p_lcm(k - 1)
        if ratio > 1:
            for j in range(1, m):
                if x[j]:
                    x[j] *= ratio ** weight[j]
        u = (b - a) * (lk // (b**k - a**k))
        upow: dict[int, int] = {}
        bk_ak = b**k + a**k
        quad = {r: quad_exponent(r, k) for r in shifts}
        odd = k % 2
        # level 0 gives inner[k]; updating i upwards reads the deeper C_j
        # before they move to k
        for i in range(m):
            # per live run: the least a- and b-exponents of level i's scale
            # that make its term an integer
            parts = []
            for j, mag, barred, t, r in runs[i]:
                if ea[j] is not None:
                    e = t * k + quad[r]
                    f = (k - 1) * mag - k - e
                    parts.append((j, mag, barred and odd, ea[j] - e, eb[j] - f))
            if not parts:
                if i == 0:
                    yield 0, 0, 0
                continue
            A = max(p[3] for p in parts)
            B = max(p[4] for p in parts)
            total = 0
            if i and ea[i] is not None:
                A, B = max(A, ea[i]), max(B, eb[i])
                if x[i]:
                    total = x[i] * a ** (A - ea[i]) * b ** (B - eb[i])
            for j, mag, negate, need_a, need_b in parts:
                if x[j]:
                    if mag not in upow:
                        upow[mag] = u**mag
                    c = upow[mag] * bk_ak * a ** (A - need_a) * b ** (B - need_b)
                    total += -c * x[j] if negate else c * x[j]
            if i == 0:
                yield total, A, B
            else:
                x[i], ea[i], eb[i] = total, A, B


def _over_one_denominator(ctx: QContext, w: int, inner: list) -> tuple[list[int], int]:
    """Numerators N_k = inner[k] * D for k = 0..n (N_0 = 0) and their common
    denominator D = L_n**w * a**A * b**B, where inner holds the first n
    values :func:`_inner_terms` yields for a pattern of total magnitude w,
    and A and B are the largest of their exponents, at least 0.
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    n = len(inner)
    top_a = max([0] + [ea for _, ea, _ in inner])
    top_b = max([0] + [eb for _, _, eb in inner])
    nums = [0] * (n + 1)
    grow = 1  # (L_n / L_k)**w
    for k in range(n, 0, -1):
        y, ea, eb = inner[k - 1]
        if y:
            nums[k] = y * (a ** (top_a - ea) * b ** (top_b - eb)) * grow
        grow *= (ctx.p_lcm(k) // ctx.p_lcm(k - 1)) ** w
    return nums, ctx.p_lcm(n) ** w * a**top_a * b**top_b


# Largest upper limit of the finite mollified sums, checked before any term
# is summed.  The engine's values grow like n**2 bits and each n costs a dot
# product of n of them, so the cost grows about as n**5: verify_mhs of
# (2,1,1,3,1) at q = 5/8 takes 1.9 s at n_max = 80, 13 s at 120 and 52 s at
# 160, and of (2,1) at q = 1/2 3.3 s at 160, on a 2-vCPU x86-64 host.
# Deeper patterns cost more per n.
MAX_PATTERN_LIMIT = 160


def _pattern_pairs(ctx: QContext, pattern: Triple, n_max: int, merge=True) -> list[tuple]:
    """Unreduced (numerator, denominator) of :func:`pattern_mhs_many` for
    every upper limit 0..n_max, in integers.

    Over the common denominator D of inner[1..n_max], known from the
    engine's scale without an lcm (see :func:`_over_one_denominator`),
    N_k = inner[k] * D, so out[n] = P_n**2 * S_n / (P_2n * D) with the
    integer dot product S_n = sum_k G(2n, n-k) * b**(k*k) * N_k (P_j from
    ctx.p_prod, G from ctx.gauss_row).  Nothing is reduced here.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > MAX_PATTERN_LIMIT:
        raise ValueError(
            f"upper limit {n_max} exceeds {MAX_PATTERN_LIMIT} for a finite mollified sum"
        )
    b = ctx.q.denominator
    inner = list(islice(_inner_terms(ctx, pattern, merge), n_max))
    nums, den = _over_one_denominator(ctx, sum(e.magnitude for e in pattern.s), inner)
    weighted = [b ** (k * k) * x for k, x in enumerate(nums)]
    out = [(0, 1)]
    for n in range(1, n_max + 1):
        # G(2n, j) pairs with k = n - j
        total = sum(map(mul, ctx.gauss_row(2 * n, n), weighted[n:0:-1]))
        p = ctx.p_prod(n)
        out.append((p * p * total, ctx.p_prod(2 * n) * den))
    return out


def pattern_mhs_many(
    ctx: QContext, pattern: Triple, n_max: int, merge=True
) -> list[Fraction]:
    """Sum of the finite mollified sums of every resolution of a pattern
    (every one that ``merge`` allows, see :func:`_runs`), for every upper
    limit 0..n_max, without building any resolution.

    The prefactor couples n to the outermost index, so it is applied once to
    the engine's inner[k] (see :func:`_inner_terms`):
    out[n] = sum_k br(n, k) * inner[k], where with q = a/b
    br(n, k) = gauss(n, k) / gauss(n + k, k) = P_n**2 / P_2n * G(2n, n-k) * b**(k*k),
    P_j = prod_(i <= j) (b**i - a**i) and G(N, j) = P_N / (P_j P_(N-j)) an
    integer.  Each row is one integer dot product (see :func:`_pattern_pairs`)
    and each value is reduced once.

    Raises ValueError, before summing any term, for n_max above
    MAX_PATTERN_LIMIT.
    """
    return [Fraction(num, den) for num, den in _pattern_pairs(ctx, pattern, n_max, merge)]


def mollified_mhs_many(ctx: QContext, triple: Triple, n_max: int) -> list[Fraction]:
    """Finite mollified sums of one triple for every upper limit 0..n_max."""
    return pattern_mhs_many(ctx, triple, n_max, merge=False)


def mollified_mhs(ctx: QContext, triple: Triple, n: int) -> Fraction:
    """Finite mollified sum with upper limit n."""
    return mollified_mhs_many(ctx, triple, n)[n]


def q_zeta(
    ctx: QContext, s: Sequence, eps: Fraction = Fraction(1, 10**20), star: bool = False
) -> SeriesValue:
    """Infinite harmonic series, summed until the proven tail bound is <= eps.

    Tail bound: the entries satisfy 1/[k]^mag <= 1, so the series is

        |tail(K)| <= (q/(1-q))**(m-1) * q**(K+1) / (1-q),

    the unconstrained product of geometric tails.

    Raises ValueError, as soon as the search for K passes it, when the
    truncation would exceed MAX_MHS_LIMIT.
    """
    entries = signed_string(s)
    m = len(entries)
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m == 0:
        return SeriesValue(Fraction(1), Fraction(0), 0)
    prefactor = (ctx.q / ctx.one_minus_q) ** (m - 1) / ctx.one_minus_q
    K = m
    while prefactor * ctx.qpow(K + 1) > eps:
        K += 1
        if K > MAX_MHS_LIMIT:
            raise ValueError(f"series length exceeds {MAX_MHS_LIMIT} for a harmonic sum")
    value = mhs(ctx, entries, K, star=star)
    return SeriesValue(value, prefactor * ctx.qpow(K + 1), K)


def _frakz_level_bound(ctx: QContext, m: int, k: int) -> Fraction:
    """Bound on the total contribution of all terms with outermost index k
    of an admissible depth-m triple."""
    expo = k * (k - 1) // 2 - (m - 1) * k
    return Fraction(2**m * k ** (m - 1)) * ctx.qpow(expo)


# Deepest pattern :func:`frakz` will sum.  The run engine does about m**2/2
# term updates per index and needs about 2m indices, on integers that grow
# with both: at q = 1/2 and eps = 1e-25 depth 22 takes about 0.3 s and depth
# 32 about 2.3 s on a 2-vCPU x86-64 host.
MAX_FRAKZ_DEPTH = 32

# Longest truncation K that :func:`frakz` will sum, checked before any term
# is summed.  The engine's integers grow like K**2 bits, so at depth 32 the
# cost grows about as K**4: 9 s at K = 100 and 60 s at K = 160 at q = 1/2,
# 19 s at K = 100 at q = 2/3, on a 2-vCPU x86-64 host.  Depth 32 has a tail
# bound only for K > 30 + 31 / log2(1/q), so this cap admits it up to
# q ~ 0.73.  The test suite and the benchmark reach K = 51 at most (9,9,9
# at q = 1/2, eps = 1e-25).
MAX_FRAKZ_TERMS = 100


def frakz(
    ctx: QContext, pattern: Triple, eps: Fraction = Fraction(1, 10**20), merge: bool = False
) -> SeriesValue:
    """Infinite mollified series, summed until the proven tail bound is <= eps.

    The value is the engine's prefactor-free partial sum: inner[k] (see
    :func:`_inner_terms`) summed over the outermost index k <= K.  With
    ``merge=False`` that is the series of the pattern read as one triple;
    with ``merge=True`` it is the sum of the series of all 2**(m-1)
    resolutions, as one series.

    Only admissible triples converge: every left-to-right partial fold of
    the shift string must project into {1, 2}.  Then the folded quadratic
    exponents of a depth-d triple telescope to at least
    k1*(k1-1)/2 - (d-1)*k1, so the terms with outermost index k total at
    most B_d(k) = 2**d k**(d-1) q**(k(k-1)/2 - (d-1)k), and once
    rho_d = 2**(d-1) * q**(K+2-d) < 1 the tail past K is at most
    B_d(K+1) / (1 - rho_d).

    Checking the pattern covers every resolution: proj is additive over
    boxplus (theta projects to 0, and 1 boxplus -1 = theta), so each partial
    fold of a resolution, a fold of the pattern's first j shifts in some
    bracketing, projects to the same value as the pattern's j-th partial
    fold.  With ``merge=True`` the tail bound is the sum of the
    per-resolution bounds at the common K: C(m-1, d-1) resolutions have
    depth d, which gives sum_d C(m-1, d-1) * B_d(K+1) / (1 - rho_d).
    rho_d grows with d, so rho_m < 1 makes every term finite.

    K is found by this search before any term is summed; the value is then
    summed in integers over the engine's known denominator and reduced once.

    Raises ValueError, before summing any term, for a pattern deeper than
    MAX_FRAKZ_DEPTH, an inadmissible one, or a K above MAX_FRAKZ_TERMS.
    """
    m = pattern.depth
    if m > MAX_FRAKZ_DEPTH:
        raise ValueError(f"pattern depth {m} exceeds {MAX_FRAKZ_DEPTH} for a q-series")
    if not is_admissible(pattern):
        raise ValueError(f"divergent mollified series: inadmissible shifts in {pattern}")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    # (count, depth) of the resolutions summed, deepest (largest rho) first
    classes = [(comb(m - 1, d - 1), d) for d in range(m, 0, -1)] if merge else [(1, m)]

    def tail_bound(K: int) -> Fraction | None:
        total = Fraction(0)
        for many, d in classes:
            rho = Fraction(2 ** (d - 1)) * ctx.qpow(K + 2 - d)
            if rho >= 1:
                return None
            total += many * _frakz_level_bound(ctx, d, K + 1) / (1 - rho)
        return total

    K = 0
    while (bound := tail_bound(K)) is None or bound > eps:
        K += 1
        if K > MAX_FRAKZ_TERMS:
            raise ValueError(f"series length exceeds {MAX_FRAKZ_TERMS} for a mollified series")
    inner = list(islice(_inner_terms(ctx, pattern, merge), K))
    nums, den = _over_one_denominator(ctx, sum(e.magnitude for e in pattern.s), inner)
    return SeriesValue(Fraction(sum(nums), den), bound, K)


# classical_zeta_many refuses a longer truncation before summing anything:
# past 1e8 terms a k**-2 term is below the rounding of its float64 sum, so
# a longer run costs minutes and sharpens nothing
MAX_CLASSICAL_TERMS = 10**8


def _classical_check(entries: tuple, star: bool) -> None:
    lead = entries[0]
    if star:
        if lead.magnitude < 2:
            raise ValueError("weak-descent series needs a leading magnitude >= 2")
    elif lead.magnitude < 2 and not (lead.magnitude == 1 and lead.sign < 0):
        raise ValueError("series needs leading magnitude >= 2 or a signed leading 1")


class _Suffix:
    """One node of the suffix trie: the level that sums entries[j:]."""

    __slots__ = (
        "power", "barred", "star", "depth", "parent", "children", "carry", "comp", "prev", "last"
    )

    def __init__(self, entry, star: bool, parent: "_Suffix | None"):
        self.power = float(-entry.magnitude)
        self.barred = entry.sign < 0
        self.star = star
        self.depth = 0 if parent is None else parent.depth + 1  # its buffer
        self.parent = parent
        self.children: dict = {}
        self.carry = 0.0  # Kahan-compensated running total
        self.comp = 0.0
        self.prev = 0.0  # carry before the current chunk
        self.last = 0.0  # cumulative at the last index summed


def classical_zeta_many(
    items: Sequence[tuple], K: int = 1_000_000, chunk: int = 65536
) -> list[ClassicalValue]:
    """Partial sums of classical signed multiple zeta values to K terms,
    one per ``(signed string, star)`` pair.

    Entries are signed indices: magnitude p and sign w contribute
    w**k / k**p at index k.  The cumulative of level j depends only on
    ``(star, entries[j:])``, so the distinct suffixes of all strings form a
    trie and each is summed once.  The index range is streamed in chunks:
    per chunk the trie is walked depth first, each level built in one
    reused buffer per depth from the deeper level's cumulative, with
    running (Kahan-compensated) carries, so memory stays at O(chunk) per
    depth regardless of K.

    The tail estimate is |inner cumulative at K| times the tail of the
    outermost level: K**(1-p1)/(p1-1) for leading magnitude p1 >= 2, else
    1/K for a signed leading 1 (alternating-series first-term bound).
    """
    strings = [(signed_string(s), star) for s, star in items]
    for entries, star in strings:
        if entries:
            _classical_check(entries, star)
    if not any(entries for entries, _ in strings):
        return [ClassicalValue(1.0, 0.0, 0) for _ in strings]
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > MAX_CLASSICAL_TERMS:
        raise ValueError(f"K = {K} exceeds {MAX_CLASSICAL_TERMS} terms")
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")

    tops: dict = {}
    ends = []  # per string: its outermost level and the level just inside
    for entries, star in strings:
        level, inner, below = None, None, tops
        for e in reversed(entries):
            key = (star, e) if level is None else e
            if key not in below:
                below[key] = _Suffix(e, star, level)
            inner, level = level, below[key]
            below = level.children
        ends.append((level, inner))

    width = min(chunk, K)
    depth = max(len(entries) for entries, _ in strings)
    bufs = [np.empty(width) for _ in range(depth)]
    ks = np.arange(1, width + 1, dtype=np.float64)
    start = 1
    while start <= K:
        n = min(width, K - start + 1)
        k = ks[:n]
        stack = list(tops.values())
        while stack:
            node = stack.pop()
            out = bufs[node.depth][:n]
            if node.power == -1.0:
                np.reciprocal(k, out=out)  # numpy computes k ** -1.0 this way
            else:
                np.power(k, node.power, out=out)
            if node.barred:
                out[(start + 1) % 2 :: 2] *= -1.0
            parent = node.parent
            if parent is not None:
                deeper = bufs[parent.depth][:n]
                if node.star:
                    out *= deeper
                else:
                    # strict descent reads the deeper cumulative one index
                    # back, which at the chunk start is its carry from before
                    out[0] *= parent.prev
                    out[1:] *= deeper[:-1]
            np.cumsum(out, out=out)
            out += node.carry
            node.last = float(out[-1])
            # Kahan update of the carry with this chunk's total
            node.prev = node.carry
            y = node.last - node.carry - node.comp
            t = node.carry + y
            node.comp = (t - node.carry) - y
            node.carry = t
            stack.extend(node.children.values())
        start += n
        ks += width

    out_values = []
    for (entries, _), (outer, inner) in zip(strings, ends):
        if outer is None:
            out_values.append(ClassicalValue(1.0, 0.0, 0))
            continue
        inner_at_K = inner.last if inner is not None else 1.0
        p1 = entries[0].magnitude
        if p1 >= 2:
            tail = abs(inner_at_K) * K ** (1 - p1) / (p1 - 1)
        else:
            tail = abs(inner_at_K) / K
        out_values.append(ClassicalValue(outer.carry, tail, K))
    return out_values


def classical_zeta(
    s: Sequence, K: int = 1_000_000, star: bool = False, chunk: int = 65536
) -> ClassicalValue:
    """Partial sum of one classical signed multiple zeta value to K terms
    (see :func:`classical_zeta_many`)."""
    return classical_zeta_many([(s, star)], K, chunk)[0]
