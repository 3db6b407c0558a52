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

Certified enclosures: :func:`q_zeta_enclosure` and :func:`frakz_enclosure`
return, at the same truncation K and tail bound as :func:`q_zeta` and
:func:`frakz`, a :class:`Ball` (midpoint and radius over integers at a
binary point 2**-P) around the same exact partial sum; midpoint-radius
arithmetic as in van der Hoeven, "Ball arithmetic" (2009).  They take the
rational q itself, not a context: they, their truncation searches and
their tables read only q = a/b, eps and the binary point, and build no
:class:`~qzeta.qarith.QContext`.  Both run one
sweep (:func:`_ball_sweep`): a dynamic programme taken one level at a time,
innermost first, one list of floored products per level, with a radius
carried index by index, where each run reads its deeper level at a binary
point fine enough for that level's size.  The two sides differ only in
their runs and descent: one run per entry of the harmonic string, over
memoized columns of floored q**k/[k]**s, in weak or strict descent; and the
runs of the mollified pattern, whose floored terms are products of memoized
q-level tables, so no table depends on the composition, in strict descent.
Both sides' columns of 1/[k]**s are read off one fixed-point recurrence for
[k], q**k and 1/[k], at least _POWER_GUARD_BITS finer than the entries
(:func:`_fixed_point_rows`), so no term needs an exact division of
integers that grow with k, and every floored term of either side lies
within _COLUMN_SLACK units below the exact one.
The exact partial sums' denominators grow like
K**2 bits (hundreds of thousands of bits toward q -> 1), while the balls'
integers stay near their binary point, so the q-series checks of
:mod:`~qzeta.verify` read both sides from balls alone, at a finer binary
point (``prec``) when P cannot decide, and sum no series exactly;
:func:`q_zeta` and :func:`frakz` stay exact for ``eval`` and as the oracles.

The one floating-point engine, :func:`classical_zeta_many`, computes
partial sums of classical (signed) multiple zeta values with numpy and
reports a first-omitted-term style tail estimate for each.  A series descends
strictly, weakly, or resolved: a resolved level reads the deeper cumulative
at k - 1 plus the one at k, so one series sums 2**depth * zeta over every
resolution of its string, the whole right side of a q -> 1 check (Yamamoto's
interpolated value at t = 1/2, scaled by 2**m).  Each series is summed on
its own over chunks of the index range, behind a bounded ``lru_cache``
keyed by (signed string, descent, K, chunk) (:func:`_classical_sum`), where
the chunk is the module constant ``_CHUNK``.  Per chunk it computes one
reciprocal column 1/k, builds every k**-p from it by products, and runs
one cumulative sum per inner level and one plain sum for the outermost,
in four chunk-wide buffers.  :func:`classical_zeta` is its one-series case.

All nested-sum evaluators share the same dynamic programming scheme: one
running cumulative per nesting level, updated index by index, so a whole
family of values costs the same as the deepest single one.  In the exact
ones every cumulative is an integer numerator over a known denominator, so
no loop takes a gcd and each returned value is reduced once.  For q = a/b,
h_i = (b^i - a^i)/(b - a) and L_k = lcm(h_i, i <= k), all kept by the
:class:`~qzeta.qarith.QContext`, the harmonic sums (and so :func:`q_zeta`)
scale a cumulative at index k by a power of L_k times a power of b, and
each row carries its own scale (see :func:`_mhs_rows`).  The
mollified sums and :func:`frakz` share one recurrence, the run engine,
whose terms also carry q^quadratic and (1 + q^k) factors: it scales the
cumulative of slots i..m-1 by L_k^W_i a^A_i b^B_i, with W_i their total
magnitude and A_i, B_i the largest exponents its terms need (see
:func:`_inner_terms`).  The finite mollified sums then apply their
prefactor in integers: with P_j = prod_(i <= j) h_i and the
Gaussian-binomial integer G(N, j) = P_N / (P_j P_(N-j)),

    br(n, k) = gauss(n, k) / gauss(n + k, k) = P_n^2 / P_2n * G(2n, n-k) * b^(k^2),

so each upper limit n is one integer sum over a denominator of its own,
G(2n, n) times the least scale that the engine's values up to n need once
b^(k^2) is folded into their b-exponents.  Its terms, G(2n, n-k) times a
value at its own index's scale, are carried from row n-1 to row n by one
multiply and one exact division by integers of about n bits each, and the
denominator's growth from index to index is folded into each row's sum
once, by Horner, as in :func:`frakz` (see :func:`_pattern_rows`).

Both exact engines read and record their levels through one level memo
(:mod:`~qzeta.levels`).  At one q and upper limit n a level's column, its
cumulative at every index at that index's scale, depends only on the
slots from that level down, so a sum reads the columns of the longest
suffix already summed at that (q, n) and sums only the levels above it.
The memo holds level columns only, at one (q, n) at a time, records
from an engine's second sum at a (q, n) on, and is bounded by the bits
it holds when it records; the batteries of :mod:`~qzeta.verify` at one q and n_max share
most of their levels through it.  The left ball of :func:`q_zeta_enclosure`
holds its levels 1..m-1 in the same memo at (q, K, binary point), so the
q-series checks at one q and eps read the suffixes they share.

Every exact sum ends as one row shape, (num, c, e): the value
num / (L_n^w * c * b^e) at upper limit n, with L_n^w (w the weight, which
both sides of a finite identity have) left implied and c a small
cofactor, 1 on the harmonic side.  Both finite engines stream such rows,
n = 0, 1, ..., n_max, as generators: each raises before its first row, and
row 0 needs no term, so a reader that takes row 0 of every stream it
opened has met every refusal before any term is summed.  :func:`frakz`
reduces its sum as the row (total, a^A_K, B_K) at K.  That power of L_n
is most of a denominator's bits, so :func:`~qzeta.verify.verify_mhs`
reads the two streams in step and compares each pair of rows unreduced, by
cross-multiplying their numerators with their cofactors alone.  A row
becomes a value only in :func:`_row_value`, or :func:`_row_values` for a
whole stream with a running L_n^w: every value the exact evaluators return
and every failing residual of a finite check is reduced there, once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, count, islice, repeat
from math import comb, log2
from operator import add, mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .expansion import Triple, is_admissible
from .indices import THETA, Theta, boxplus, signed_string
from .levels import ENTRY_BITS, RUN_ROOT, STRICT_ROOT, WEAK_ROOT, Kept, Levels, charge
from .qarith import QContext, QLike, as_eps, as_int, as_q

# (num, c, e): a row of an exact sum at upper limit n, num / (L_n**w * c * b**e)
Row = tuple[int, int, int]


class SeriesValue(NamedTuple):
    """Partial sum, exact or a :class:`Ball` around it, with a rigorous
    bound on the omitted tail."""

    value: Fraction | Ball
    tail_bound: Fraction
    terms: int


class ClassicalValue(NamedTuple):
    """Float partial sum with a heuristic estimate of the omitted tail."""

    value: float
    tail_est: float
    terms: int


@dataclass(frozen=True)
class Ball:
    """The closed interval [(mid - rad) / 2**prec, (mid + rad) / 2**prec]:
    midpoint-radius ("ball") arithmetic over integers at a fixed binary
    point.

    Each operation returns a ball that contains the exact result of the same
    operation on any values inside its operands: the midpoint is floored and
    the radius rounded outward.  An operand that is an int or a Fraction is
    exact and is first floored onto the grid, with radius 1 if that dropped
    a remainder.
    """

    mid: int
    rad: int
    prec: int

    def _lift(self, other) -> "Ball":
        if isinstance(other, Ball):
            if other.prec != self.prec:
                raise ValueError(f"balls at 2**-{self.prec} and 2**-{other.prec} do not mix")
            return other
        x = Fraction(other)
        mid, rest = divmod(x.numerator << self.prec, x.denominator)
        return Ball(mid, 1 if rest else 0, self.prec)

    def __add__(self, other) -> "Ball":
        o = self._lift(other)
        return Ball(self.mid + o.mid, self.rad + o.rad, self.prec)

    __radd__ = __add__

    def __sub__(self, other) -> "Ball":
        o = self._lift(other)
        return Ball(self.mid - o.mid, self.rad + o.rad, self.prec)

    def __rsub__(self, other) -> "Ball":
        return self._lift(other) - self

    def __mul__(self, other) -> "Ball":
        o = self._lift(other)
        err = abs(self.mid) * o.rad + abs(o.mid) * self.rad + self.rad * o.rad
        # the floor of the product is less than one unit low; err rounds up
        return Ball((self.mid * o.mid) >> self.prec, 1 - (-err >> self.prec), self.prec)

    __rmul__ = __mul__

    def __abs__(self) -> "Ball":
        return Ball(abs(self.mid), self.rad, self.prec)

    def bounds(self) -> tuple[Fraction, Fraction]:
        one = 1 << self.prec
        return Fraction(self.mid - self.rad, one), Fraction(self.mid + self.rad, one)


# Largest upper limit of a harmonic sum (and so the longest q_zeta and
# q_zeta_enclosure truncation), checked before any term is summed.  The
# numerators grow like n**2 bits, so the cost grows about as n**4: (2,1) at
# q = 1/2 and n = 1000 takes about 10 s, (2,1,1,3,1) at q = 5/8 and n = 500
# about 27 s on a 2-vCPU x86-64 host.
MAX_MHS_LIMIT = 1000

# Largest work estimate of a harmonic sum, checked after MAX_MHS_LIMIT and
# before any term is summed, so that a deep or heavy string fails fast below
# that limit.  At depth m, weight W and upper limit n, with q = a/b, the
# integers reach about S = n (W n + m) log2(b) bits (L_n alone has about
# 0.3 n**2 log2(b)), and the (m + 3) n steps (one per level and index, plus
# the per-index powers of L_k and h_k, fitted) multiply integers of up to
# that size, so the work is estimated as (m + 3) n S**log2(3), Karatsuba's
# exponent.  Over 18 sums from 0.2 to 47 s, CPU time was 0.57-1.63e-13 s per
# unit on a shared 2-vCPU x86-64 host, so this budget is about 60 s (34-98 s):
# (1,)*100 at n = 100 (3.4e13) took 2.1 s, (2,)*1000 at n = 20 (4.7e13)
# 6.3 s, (2,1) at n = 1000 (9.2e13) 9.9 s, (2,1,1,3,1) at q = 5/8 and
# n = 500 (2.2e14) 27 s, (33,) at n = 600 (3.9e14) 47 s and (1,)*150 at
# n = 150 (5.2e14) 35 s.  (2,) + (1,)*199 at n = 200 (3.6e15) and (1,)*300
# at n = 300 (5.5e16) are refused.
MAX_MHS_WORK = 6 * 10**14


def _upper_limit(n_max, cap: int, what: str) -> int:
    """n_max as the upper limit of a finite sum of kind ``what``, in 0..cap."""
    n_max = as_int(n_max, "n_max")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if n_max > cap:
        raise ValueError(f"upper limit {n_max} exceeds {cap} for {what}")
    return n_max


def _mhs_rows(ctx: QContext, entries: tuple, n_max: int, star: bool) -> Iterator[Row]:
    """Unreduced rows (numerator, 1, e) of the nested harmonic sum for every
    upper limit 0..n_max, streamed in that order, in integers: row n is the
    numerator over L_n^W * b^e, with W the total magnitude of the entries
    and L_n = ctx.p_lcm(n), and its cofactor is 1.  The power of L_n is
    left implied, so a caller that compares two sums at the same L_n never
    multiplies it in, and one that wants a value reads the row with
    :func:`_row_value`.

    With q = a/b in lowest terms, h_k = ctx.h(k) and L_k = ctx.p_lcm(k),
    w_k = L_k/[k] = b^(k-1) L_k/h_k is an integer and the term of
    magnitude s at index k is sgn^k a^k w_k^s / (b^k L_k^s).  At step k,
    level j is scaled by D_j(k) = L_k^s_j * b^beta, with beta = k when
    s_j = 0 and 1 otherwise, which makes its term the integer
    c_j(k) = sgn^k a^k v_k w_k^(s_j-1) (sgn^k a^k when s_j = 0), where
    v_k = w_k / b^(k-1).  X_j, the cumulative of level j times
    D_j(k)...D_{m-1}(k), is carried from k-1 to k by the growth of those
    scales, then X_j += c_j(k) X_{j+1} with X_m = 1.  Row n is X_0 over
    D_0(n)...D_{m-1}(n) = L_n^W * b^e, e = m - z + z*n for z zero
    magnitudes: the scale grows at every k, also while X_0 is 0.  Only
    integers are added and multiplied; letting the scales grow with k,
    rather than fixing them at L_n_max from the start, keeps the products
    of the early steps small.

    Level j's column X_j[0..n_max] depends only on q, n_max, the descent
    and the entries j..m-1, so it is read from the level memo
    (:mod:`~qzeta.levels`): the sum starts at the shallowest level whose
    suffix is held, reads that level's column (level j reads only level
    j+1), and runs one loop over k for the levels above it only; the
    columns it sums are kept (:class:`~qzeta.levels.Kept`) and recorded,
    deepest first, before the last row is yielded.  Row n is X_0[n]
    whichever way it was found, and no level is recorded on the first sum
    at a (q, n_max) in a descent.

    Raises ValueError for n_max above MAX_MHS_LIMIT or a work estimate
    above MAX_MHS_WORK.  As a generator it runs nothing until its first row
    is asked for; it then raises before its first row, and row 0 needs no
    term and reads no memo.
    """
    n_max = _upper_limit(n_max, MAX_MHS_LIMIT, "a harmonic sum")
    a, b = ctx.q.numerator, ctx.q.denominator
    m = len(entries)
    mags = [e.magnitude for e in entries]
    work = (m + 3) * n_max * (n_max * (sum(mags) * n_max + m) * log2(b)) ** log2(3)
    if work > MAX_MHS_WORK:
        raise ValueError(f"work estimate {work:.2g} exceeds {MAX_MHS_WORK:.2g} for a harmonic sum")
    # X_j carries the scales of levels j..m-1: from k-1 to k they grow by
    # (L_k/L_{k-1})^(s_j+...+s_{m-1}) * b^(number of zero magnitudes there)
    grow_l = [sum(mags[j:]) for j in range(m + 1)]
    grow_b = [mags[j:].count(0) for j in range(m + 1)]
    yield (0 if m else 1), 1, m - grow_b[0]
    if not n_max:
        return
    keys = [2 * s + (e.sign < 0) for s, e in zip(mags, entries)]
    root = WEAK_ROOT if star else STRICT_ROOT
    generation, node, known, room = Levels.lookup((a, b, n_max), root, keys)
    top = m - len(known)  # levels 0..top-1 are summed here, the rest read
    if top == 0 < m:
        for k in range(1, n_max + 1):
            yield known[0][k], 1, m - grow_b[0] + grow_b[0] * k
        return
    below = known[0] if known else None  # level top's column
    x = [0] * top + [1]
    kept = Kept(generation, node, keys, top, room, ENTRY_BITS)
    if kept.lo < top:
        kept.add(x[:top], x[:top], n_max)  # X_j[0] = 0
    # weak descent: level j sees level j+1 already updated at k; strict
    # descent: level j sees level j+1 as of k-1, so update top-down
    order = range(top - 1, -1, -1) if star else range(top)
    for k in range(1, n_max + 1):
        ratio = ctx.p_lcm_step(k)
        for j in range(top):
            if x[j]:
                x[j] *= ratio ** grow_l[j] * b ** grow_b[j]
        if below is not None:
            x[top] = below[k] if star else below[k - 1] * ratio ** grow_l[top] * b**grow_b[top]
        ak = a**k
        v = ctx.p_lcm(k) // ctx.h(k)
        w = v * b ** (k - 1)
        for j in order:
            c = ak * v * w ** (mags[j] - 1) if mags[j] else ak
            if entries[j].sign < 0 and k % 2:
                c = -c
            x[j] += c * x[j + 1]
        if kept.lo < top:
            row = x[kept.lo : top]
            kept.add(row, row, n_max - k)
        yield x[0], 1, m - grow_b[0] + grow_b[0] * k


def _row_value(ctx: QContext, w: int, n: int, row: Row, lw: int | None = None) -> Fraction:
    """The value num / (L_n**w * c * b**e) of an exact engine's row
    (num, c, e) at upper limit n and weight w, reduced once.  lw is
    L_n**w = ctx.p_lcm(n)**w, the power the engines leave implied, when
    the caller already has it."""
    num, c, e = row
    if lw is None:
        lw = ctx.p_lcm(n) ** w
    return Fraction(num, lw * c * ctx.q.denominator**e)


def _row_values(ctx: QContext, w: int, rows: Iterable[Row]) -> list[Fraction]:
    """:func:`_row_value` of the rows n = 0, 1, ... of a stream, read once
    in order, each L_n**w the last times (L_n/L_(n-1))**w rather than a
    fresh power."""
    lws = accumulate((ctx.p_lcm_step(n) ** w for n in count(1)), mul, initial=1)
    return [_row_value(ctx, w, n, row, lw) for n, (row, lw) in enumerate(zip(rows, lws))]


# Bounded memos of the q-level work of the certified series.  At one q and
# eps every q-series check repeats the same truncation searches and floors the
# same left-side terms, whatever its composition, so these are keyed by q-level
# data only (q, depth or magnitude, eps or binary point, length, cap) and hold
# immutable ints, Fractions and tuples; functools.lru_cache is thread-safe and
# reports its hits and misses through cache_info().  A battery at one q and
# eps needs one search per depth (at most 32 frakz depths, merged or not) and
# one column per magnitude, length and binary point.  A search entry is a few
# hundred bytes.  A column is built to a power-of-two length n >= 32 and read
# as a prefix (see _harmonic_runs), so it holds at most 1,024 ints
# t_k < q**k 2**c, at the binary point c that _column_prec sets (320 for
# P = 300), and takes at most n(c/7.5 + 36) + 40 bytes: about 10 KB at
# q = 1/2 and eps = 1e-25 (n = 128 for K = 86); 32 columns at n = 1024 take
# at most 2.6 MB at c = 320 and 45 MB at c = 10112 (q = 1/1000,
# eps = 1e-3000).
_SEARCH_CACHE_SIZE = 64
_COLUMN_CACHE_SIZE = 32
_COLUMN_MIN_LENGTH = 32
# The right side's ball (see _ball_sweep) reads two more kinds of floored
# table, each a bounded memo of _TABLE_CACHE_SIZE entries keyed by q-level
# data only: magnitude columns (1 + q**k) / [k]**s, keyed by (q, binary
# point, length, magnitude group), and powers q**e or (1/q)**e, keyed by
# (base, binary point, length).  No table is keyed by a run's own
# (s, alpha, beta): the 105 checks of the benchmark's q-series batch at
# q = 1/2 fold 78 distinct runs, all from 7 magnitude and 4 power tables
# (0.16 and 0.13 MB), at binary points 320 to 512.  A magnitude entry holds
# 8 columns of n ints below 2**(prec + 1), n <= 128 as K <= MAX_FRAKZ_TERMS,
# so at most 1024 (prec/7.5 + 36) bytes: 80 KB at prec = 320 and 1.4 MB at
# prec = 10**4 (eps = 1e-3000).  A power entry holds n >= 512 ints
# floor(2**prec base**e), e < n, with n the larger of 512 and the least
# power of two above the largest e read.  For a base q < 1 only the nonzero
# ones, at most prec / log2(1/q) + 1 of them, take more than a pointer: about
# 8 n + prec**2 / (7.5 log2(1/q)) bytes, 19-29 KB in the batch.  The ints
# of 1/q, read up to e = K**2/2 by a run of negative alpha, grow to
# prec + n log2(1/q) bits, about n (prec + n log2(1/q) / 2) / 7.5 bytes:
# 57 KB in the batch, and tens of MB only toward q -> 1 with K near its cap.
_TABLE_CACHE_SIZE = 16


@lru_cache(maxsize=_COLUMN_CACHE_SIZE)
def _floored_column(a: int, b: int, s: int, n: int, prec: int) -> tuple[int, ...]:
    """The floored terms of magnitude s at q = a/b and the binary point
    2**-prec for k = 1..n, read off :func:`_fixed_point_rows` with no
    leading 1: 2**prec q**k / [k]**s lies in [t_k, t_k + 1 + 2**-G / d)
    for G = _POWER_GUARD_BITS and d = ceil(b / (b - a)) >= 1, so within
    2 <= _COLUMN_SLACK units above t_k, the one bound both balls' columns
    keep (see :func:`_ball_sweep`).  Keyed by integers, as
    :func:`_harmonic_search` is.
    """
    return tuple(row[0] for row in _fixed_point_rows(a, b, n, prec, 0, range(s, s + 1)))


def mhs_many(ctx: QContext, s: Sequence, n_max: int, star: bool = False) -> list[Fraction]:
    """Values of the nested harmonic sum for every upper limit 0..n_max:
    the rows of :func:`_mhs_rows`, each reduced once by :func:`_row_values`."""
    entries = signed_string(s)
    weight = sum(entry.magnitude for entry in entries)
    return _row_values(ctx, weight, _mhs_rows(ctx, entries, n_max, star))


def mhs(ctx: QContext, s: Sequence, n: int, star: bool = False) -> Fraction:
    """Nested harmonic sum with upper limit n (zero when too short): the
    last row of :func:`_mhs_rows`'s stream, row n, reduced alone.  The
    engine raises before its first row, and row 0 needs no term, so a
    refused n sums nothing; no earlier row is kept."""
    entries = signed_string(s)
    weight = sum(entry.magnitude for entry in entries)
    return _row_value(ctx, weight, n, deque(_mhs_rows(ctx, entries, n, star), maxlen=1)[0])


def _merge_flags(m: int, merge) -> tuple:
    """The merge mask of a depth-m pattern as one flag per separator (see
    :func:`_runs`)."""
    if isinstance(merge, bool):
        return (merge,) * (m - 1)
    if len(merge) != m - 1:
        raise ValueError(f"merge mask needs {m - 1} entries, got {len(merge)}")
    return tuple(map(bool, merge))


def _runs(
    pattern: Triple, merge, stop: int | None = None
) -> list[list[tuple[int, int, bool, int, int]]]:
    """For each start slot i (below ``stop``, when given), the runs [i, j)
    folded into plain integers (j, s, barred, alpha, beta).

    A folded run has magnitude s (oplus adds magnitudes), is barred when an
    odd number of its entries are, and has offset t (the sum of its
    offsets) and shift r.  Its a-exponent at index k, t*k + Q(r, k) with Q
    the quadratic exponent of :func:`~qzeta.indices.quad_exponent`, is
    alpha * k(k-1)/2 + beta * k: alpha = r and beta = t - [r <= 0] for an
    integer r, alpha = 0 and beta = t for theta.

    ``merge`` has one flag per separator (separator p sits between slots p
    and p+1); ``True`` and ``False`` stand for all and none.  A run [i, j)
    is kept only if every separator inside it merges, so with ``False``
    only the single-slot runs [i, i+1) remain and the pattern is read as a
    single triple.  A run grows one slot at a time, left to right, because
    boxplus is not associative.
    """
    m = pattern.depth
    merge = _merge_flags(m, merge)
    out = []
    for i in range(m if stop is None else stop):
        row = []
        s, barred, t, r = 0, False, 0, THETA  # theta is a two-sided identity
        for j in range(i, m):
            if j > i and not merge[j - 1]:
                break
            s += pattern.s[j].magnitude
            barred ^= pattern.s[j].sign < 0
            t += pattern.t[j]
            r = boxplus(r, pattern.r[j])
            if isinstance(r, Theta):
                row.append((j + 1, s, barred, 0, t))
            else:
                row.append((j + 1, s, barred, r, t - 1 if r <= 0 else t))
        out.append(row)
    return out


def _inner_terms(ctx: QContext, pattern: Triple, merge, n: int) -> Iterator[tuple[int, int, int]]:
    """Yield inner[k], the mollified sums of every resolution of a pattern
    with outermost index k, for k = 1..n (no prefactor), as integers
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

    Scale: with q = a/b, h_k = ctx.h(k) and L_k = ctx.p_lcm(k), the term
    of a run of magnitude s, sign w and exponents alpha, beta (see
    :func:`_runs`) at index k is

        w**k (L_k/h_k)**s (b**k + a**k) a**e b**((k-1)s - k - e) / L_k**s

    with e = alpha * k(k-1)/2 + beta * k; e and the b exponent may be
    negative.  Every resolution of slots i..m-1 has total magnitude
    W_i = s_i + ... + s_(m-1), so level i keeps C_i[k] as an integer X_i
    over L_k**W_i * a**A_i * b**B_i, where A_i and B_i are the largest a-
    and b-powers any of its terms has needed so far (either may be
    negative).  From k-1 to k a level first moves to L_k by
    (L_k/L_(k-1))**W_i (:meth:`~qzeta.qarith.QContext.p_lcm_step`, shared
    with :func:`_rescaled`).  Then each level takes one pass over its live
    runs: it starts from its own X_i, A_i and B_i, and when a run needs a
    larger a- or b-power it multiplies the partial total by the difference
    before adding that run's product.  Only integers are added and
    multiplied, no gcd is taken, and (L_k/h_k)**s (b**k + a**k) is built
    once per index for each magnitude s of a run, from L_k/h_k off the
    QContext.  L_k is prime to a and b, so the values yielded up to n
    share the denominator L_n**W_0 * a**A' * b**B', with A' and B' the
    largest of their exponents and 0, known without an lcm.

    Level i's column, the (X_i, A_i, B_i) that the levels above read at
    each index k = 1..n (C_i[k-1], moved to L_k), depends only on q, n and
    slots i..m-1 with their merge flags, and level 0's column is inner
    itself, so both are read from the level memo (:mod:`~qzeta.levels`):
    the sum starts at the shallowest level whose suffix is held, runs one
    loop over k for the levels above it only, reading every held column
    that a run reaches index by index, and keeps the columns it sums
    (:class:`~qzeta.levels.Kept`) and records them, deepest first, before
    the last term is yielded; it records none on the first sum at a
    (q, n).  Only level 0 is summed at k = n, as no level reads C_i[n].
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    m = pattern.depth
    merge = _merge_flags(m, merge)
    if n <= 0:
        return
    keys = [
        (i == 0, e.magnitude, e.sign, t, None if isinstance(r, Theta) else r, flag)
        for i, (e, t, r, flag) in enumerate(zip(pattern.s, pattern.t, pattern.r, merge + (False,)))
    ]
    generation, node, known, room = Levels.lookup((a, b, n), RUN_ROOT, keys)
    top = m - len(known)  # levels 0..top-1 are summed here, the rest read
    if top == 0:
        yield from known[0]
        return
    runs = _runs(pattern, merge, top)
    mags = {s for row in runs for _, s, *_ in row}
    weight = [sum(e.magnitude for e in pattern.s[i:]) for i in range(m + 1)]
    x = [0] * m + [1]
    # exponents of a and b in each level's scale; None while the level is empty
    ea: list = [None] * m + [0]
    eb = [0] * (m + 1)
    kept = Kept(generation, node, keys, top, room, 4 * ENTRY_BITS)  # (x, A, B) and its ints
    for k in range(1, n + 1):
        ratio = ctx.p_lcm_step(k)
        u = ctx.p_lcm(k) // ctx.h(k)
        bk_ak = b**k + a**k
        factor = {s: u**s * bk_ak for s in mags}
        if ratio > 1:
            for j in range(1, top):
                if x[j]:
                    x[j] *= ratio ** weight[j]
        for j in range(top, m):
            x[j], ea[j], eb[j] = known[j - top][k - 1]
        if kept.lo < top:
            first = max(kept.lo, 1)
            level_ints = x[first:top]
            level_rows = list(zip(level_ints, ea[first:top], eb[first:top]))
        half = k * (k - 1) // 2
        odd = k % 2
        # level 0 gives inner[k]; updating i upwards reads the deeper C_j
        # before they move to k
        for i in range(top if k < n else 1):
            if i and ea[i] is not None:
                A, B, total = ea[i], eb[i], x[i]
            else:
                A = B = None
                total = 0
            for j, s, barred, alpha, beta in runs[i]:
                below = ea[j]
                if below is None:
                    continue
                # the least a- and b-exponents of level i's scale that make
                # this run's term an integer
                e = alpha * half + beta * k
                need_a = below - e
                need_b = eb[j] + k + e - (k - 1) * s
                if A is None:
                    A, B = need_a, need_b
                else:
                    if need_a > A:
                        if total:
                            total *= a ** (need_a - A)
                        A = need_a
                    if need_b > B:
                        if total:
                            total *= b ** (need_b - B)
                        B = need_b
                if x[j]:
                    c = factor[s]
                    if A > need_a:
                        c *= a ** (A - need_a)
                    if B > need_b:
                        c *= b ** (B - need_b)
                    c *= x[j]
                    total += -c if barred and odd else c
            if i == 0:
                inner = (total, A, B) if A is not None else (0, 0, 0)
            elif A is not None:
                x[i], ea[i], eb[i] = total, A, B
        if kept.lo < top:
            if kept.lo == 0:
                level_ints.insert(0, inner[0])
                level_rows.insert(0, inner)
            kept.add(level_rows, level_ints, n - k)
        yield inner


def _rescaled(ctx: QContext, w: int, terms) -> Iterator[tuple[int, int, int, int]]:
    """Walk terms t_k = y / (L_k**w * a**A * b**B), given as (y, A, B) for
    k = 1, 2, ... (A and B may be negative), over the running denominator
    D_k = L_k**w * a**A_k * b**B_k, with A_k and B_k the largest of the
    exponents up to k and 0.  Yield (g_k, t_k * D_k, A_k, B_k) per k, where
    g_k = D_k / D_(k-1) = (L_k/L_(k-1))**w * a**i * b**j is the small
    integer that moves a value over D_(k-1) to D_k; D_k itself is the
    product of the g_j up to k, built only by a caller that needs it.

    Each denominator is as small as the values up to k need, known without
    an lcm, so the early values are not scaled to the last one's size; a
    caller folds a factor b**f into t_k by passing B - f.
    """
    a, b = ctx.q.numerator, ctx.q.denominator
    top_a = top_b = 0
    for k, (y, ea, eb) in enumerate(terms, 1):
        new_a, new_b = max(top_a, ea), max(top_b, eb)
        grow = ctx.p_lcm_step(k) ** w
        grow *= a ** (new_a - top_a) * b ** (new_b - top_b)
        top_a, top_b = new_a, new_b
        yield grow, y * a ** (top_a - ea) * b ** (top_b - eb) if y else 0, top_a, top_b


# Largest upper limit of the finite mollified sums, checked before any term
# is summed.  The engine's values grow like n**2 bits and each n moves n of
# them, and folds n of them, by factors of about n bits, so the cost grows a
# little faster than n**4: verify_mhs of (2,1,1,3,1) at q = 5/8 takes 0.5 s
# at n_max = 80, 2.0 s at 120 and 6.9 s at 160, and of (2,1) at q = 1/2
# 0.55 s at 160 (medians of 7 fresh processes on a shared 2-vCPU x86-64
# host, whose speed drifts by 20-40 % between runs).  Deeper patterns cost
# more per n.
MAX_PATTERN_LIMIT = 160

# Deepest pattern of a finite mollified sum or a q-series, checked before the
# run engine builds its m(m+1)/2 folded runs; one cap, so any pattern the
# finite check takes the q-series check takes too.  verify_mhs of (33,), depth
# 32, takes 0.2 s at n_max = 40, 4.5 s at 80 and 68 s at 160, and of (23,),
# depth 22, 28 s at 160; depth 239, past this cap, takes 1.2 s at
# n_max = 10.  A q-series does about m**2/2 term updates per index and needs
# about 2m indices, on integers that grow with both: at q = 1/2 and
# eps = 1e-25 depth 22 takes about 0.26 s and depth 32 about 2.1 s.  All on a
# 2-vCPU x86-64 host.  The tests reach depth 22 (9,9,9), the benchmark 12.
MAX_PATTERN_DEPTH = 32


def _q_factors(ctx: QContext, top: int) -> list[int]:
    """h_i = ctx.h(i) for i = 0..top: the factors of the integer Pochhammer
    products P_n = h_1 * ... * h_n of the prefactor (see :func:`_pattern_rows`)."""
    return [ctx.h(i) for i in range(top + 1)]


def _pattern_rows(ctx: QContext, pattern: Triple, n_max: int, merge=True) -> Iterator[Row]:
    """Unreduced rows (numerator, c, e) of :func:`pattern_mhs_many` for
    every upper limit 0..n_max, streamed in that order, in integers: row n
    is the numerator over L_n**w * c * b**e, with w the pattern's total
    magnitude and L_n = ctx.p_lcm(n) left implied, the row shape of
    :func:`_mhs_rows`, read as a value by :func:`_row_value`.

    Row n's denominator is G(2n, n) * D_n, D_n = L_n**w * a**A_n * b**B_n,
    with A_n the largest of 0 and the engine's a-exponents ea_k, and B_n
    the largest of 0 and eb_k - k*k, over k <= n (see :func:`_inner_terms`
    and :func:`_rescaled`), so c = G(2n, n) * a**A_n and e = B_n: the
    b**(k*k) of the prefactor is folded into the engine's exponent before
    the value is scaled, so it cancels the b-powers the engine's terms
    carry instead of multiplying them.  x_k = b**(k*k) * inner[k] * D_k is
    an integer at its own index's scale, and g_j = D_j / D_(j-1) of
    :func:`_rescaled` moves it on, D_n / D_k = g_(k+1) * ... * g_n.  With
    P_n**2 / P_2n = 1 / G(2n, n) and the Gaussian-binomial integers
    G(N, j) = P_N / (P_j P_(N-j)),

        out[n] = sum_k Y_n[k] * (D_n / D_k) / (G(2n, n) * D_n),  Y_n[k] = G(2n, n-k) * x_k.

    With h_i = ctx.h(i), G(2n, n-k) / G(2n-2, n-1-k) = h_2n h_(2n-1) /
    (h_(n-k) h_(n+k)), so each product is carried from row n-1 to row n by

        Y_n[k] = Y_(n-1)[k] * h_2n * h_(2n-1) // (h_(n-k) * h_(n+k)),

    one multiply and one exact division by integers of about n bits; row n
    gains Y_n[n] = x_n, as G(2n, 0) = 1, and the centre G(2n, n) moves by
    the k = 0 case of the same ratio.  The products stay at their own
    index's scale, so the growth never meets them: g_n holds
    (L_n/L_(n-1))**w, up to w times the bits of h_n, and the a- and
    b-powers on top.  Each row folds the growth into its numerator once,
    by Horner over the g_k, as :func:`frakz` does,

        acc = 0,  acc = acc * g_k + Y_n[k]  for k = 1..n,

    so step k multiplies a partial sum over D_(k-1) by g_k, and only the
    last steps meet integers at row n's scale (g_1 multiplies the empty
    sum).  No Gaussian row is built, and no two integers of about n**2 bits
    are multiplied, as a fresh dot product per row would: the cost grows
    about as n**4 rather than n**5.  L_n**w is most of the denominator's
    bits (11,781 of 16,600 at n = 40 for (2,1,1,3,1) at q = 5/8), and the
    harmonic side carries it too, so :func:`~qzeta.verify.verify_mhs`
    compares at that shared scale and never multiplies it in.  Nothing is
    reduced here.

    Raises ValueError for n_max above MAX_PATTERN_LIMIT or a pattern deeper
    than MAX_PATTERN_DEPTH.  As a generator it runs nothing until its first
    row is asked for; it then raises before its first row, and row 0,
    (0, 1, 0), needs no term: the engine and the factors h_i are set up only
    when row 1 is asked for.
    """
    n_max = _upper_limit(n_max, MAX_PATTERN_LIMIT, "a finite mollified sum")
    _check_depth(pattern, "a finite mollified sum")
    yield 0, 1, 0
    inner = _inner_terms(ctx, pattern, merge, n_max)
    folded = ((y, ea, eb - k * k) for k, (y, ea, eb) in enumerate(inner, 1))
    a = ctx.q.numerator
    h = _q_factors(ctx, 2 * n_max)
    grows: list[int] = []  # g_k, k = 1..n
    terms: list[int] = []  # G(2n, n-k) * x_k, k = 1..n
    centre = 1  # G(2n, n)
    for n, (grow, x, top_a, top_b) in enumerate(_rescaled(ctx, pattern.weight, folded), 1):
        up = h[2 * n] * h[2 * n - 1]
        terms = [t * up // (h[n - k] * h[n + k]) for k, t in enumerate(terms, 1)]
        terms.append(x)  # G(2n, 0) = 1
        grows.append(grow)
        total = 0
        for g, t in zip(grows, terms):
            total = total * g + t
        centre = centre * up // (h[n] * h[n])
        yield total, centre * a**top_a, top_b


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
    P_j = h_1 * ... * h_j with h_i = ctx.h(i), and G(N, j) = P_N / (P_j P_(N-j))
    an integer.  Each row is one integer sum of products G(2n, n-k) times
    a scaled value, each carried from the row before at its own index's
    scale and folded into the row's denominator by Horner (see
    :func:`_pattern_rows`), and each row is reduced once by
    :func:`_row_values`.

    Raises ValueError, before summing any term, for n_max above
    MAX_PATTERN_LIMIT or a pattern deeper than MAX_PATTERN_DEPTH.
    """
    return _row_values(ctx, pattern.weight, _pattern_rows(ctx, pattern, n_max, merge))


def mollified_mhs_many(ctx: QContext, triple: Triple, n_max: int) -> list[Fraction]:
    """Finite mollified sums of one triple for every upper limit 0..n_max."""
    return pattern_mhs_many(ctx, triple, n_max, merge=False)


def mollified_mhs(ctx: QContext, triple: Triple, n: int) -> Fraction:
    """Finite mollified sum with upper limit n: the last row of
    :func:`_pattern_rows`'s stream, row n, reduced alone by
    :func:`_row_value`.  The engine raises before its first row, and row 0
    needs no term, so a refused n sums nothing; no earlier row is kept."""
    rows = _pattern_rows(ctx, triple, n, merge=False)
    return _row_value(ctx, triple.weight, n, deque(rows, maxlen=1)[0])


def _truncation(
    tail_bound, start: int, eps: Fraction, cap: int, what: str
) -> tuple[int, Fraction]:
    """The least K >= start with tail_bound(K) <= eps, and that bound.

    tail_bound gives None while it has no bound.  "Fits", a bound that is
    not None and is <= eps, must be monotone in K: once some K fits, every
    larger K fits.  The search gallops over K = start, start+1, start+3,
    start+7, ... clipped at cap until one fits, then bisects the gap after
    the last K that did not, as in Bentley and Yao, "An almost optimal
    algorithm for unbounded searching" (IPL 1976).  It evaluates tail_bound
    at most 2 ceil(log2(K - start + 1)) + 2 times, never above cap, and
    never at a K whose outcome the earlier ones imply.

    Raises ValueError, before any term is summed, when start > cap or the
    bound at cap does not fit.
    """
    if start > cap:
        raise ValueError(f"series length exceeds {cap} for {what}")

    def fits(bound) -> bool:
        return bound is not None and bound <= eps

    # every K below lo misses; hi is the next probe
    lo, hi = start, start
    while not fits(bound := tail_bound(hi)):
        if hi >= cap:
            raise ValueError(f"series length exceeds {cap} for {what}")
        lo, hi = hi + 1, min(2 * hi - start + 1, cap)
    # every K below lo misses and hi fits, with that bound
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(at_mid := tail_bound(mid)):
            hi, bound = mid, at_mid
        else:
            lo = mid + 1
    return hi, bound


def _harmonic_truncation(q: Fraction, m: int, eps: Fraction) -> tuple[int, Fraction]:
    """The truncation K of a depth-m harmonic series at q and its tail bound,
    the least K >= m whose bound is <= eps (K = 0 and bound 0 for m = 0),
    found by :func:`_truncation` from m and memoized per (q, m, eps) (see
    :func:`_harmonic_search`).

    Tail bound: the entries satisfy 1/[k]^mag <= 1, so the series is

        |tail(K)| <= (q/(1-q))**(m-1) * q**(K+1) / (1-q),

    the unconstrained product of geometric tails, which falls as K grows.

    Raises ValueError, before any term is summed, when the truncation would
    exceed MAX_MHS_LIMIT, as it does for every string longer than that.
    """
    if m == 0:
        return 0, Fraction(0)
    return _harmonic_search(
        q.numerator, q.denominator, m, eps.numerator, eps.denominator, MAX_MHS_LIMIT
    )


@lru_cache(maxsize=_SEARCH_CACHE_SIZE)
def _harmonic_search(
    a: int, b: int, m: int, eps_num: int, eps_den: int, cap: int
) -> tuple[int, Fraction]:
    """The search of :func:`_harmonic_truncation` at q = a/b and
    eps = eps_num/eps_den below cap; the cap is part of the key, so no
    entry outlives it, and a refusal is not kept.  Keyed by integers, as
    hashing a Fraction takes a modular inverse, 4.5 us for
    eps = 1/(4 * 10**25), and every q-series check looks both searches up."""
    q, eps = Fraction(a, b), Fraction(eps_num, eps_den)
    prefactor = (q / (1 - q)) ** (m - 1) / (1 - q)

    def bound(K: int) -> Fraction:
        return prefactor * q ** (K + 1)

    return _truncation(bound, m, eps, cap, "a harmonic sum")


def q_zeta(
    ctx: QContext, s: Sequence, eps: Fraction = Fraction(1, 10**20), star: bool = False
) -> SeriesValue:
    """Infinite harmonic series, summed in exact rationals until the proven
    tail bound is <= eps (see :func:`_harmonic_truncation`).

    Raises ValueError, before any term is summed, for an eps that is not a
    positive rational or a truncation over MAX_MHS_LIMIT.
    """
    entries = signed_string(s)
    K, bound = _harmonic_truncation(ctx.q, len(entries), as_eps(eps))
    return SeriesValue(mhs(ctx, entries, K, star=star), bound, K)


# The binary point of the enclosure is 2**-P with P = max(bits of 1/eps,
# _COMPACT_BITS) + _GUARD_BITS.  A report must tell a value from every
# rational whose numerator and denominator are below 10**30 (see
# verify.rational_repr); near a value below 1 those lie about 10**-60 ~
# 2**-200 apart, whatever eps is.  An inner level's radius grows by a few
# units per index, each level reads the one below through terms below 1,
# and level 0 floors one sum per run (see _ball_sweep), so the left ball's
# radius stays a few units.  Over the 1024 compositions of weight 12 with a
# leading entry >= 2, at eps = 1e-25/4, it uses up 3, 4, 5 and 6 of the
# guard bits at q = 1/2, 2/3, 4/5 and 9/10, and 6 for the depth-32 string
# (2, 1, ..., 1) at q = 17/20; the rest keep a discrepancy far below eps
# printable to 12 digits.
_COMPACT_BITS = 200
_GUARD_BITS = 100


def _default_prec(eps: Fraction) -> int:
    """P: the bit size of 1/eps, at least _COMPACT_BITS, plus _GUARD_BITS."""
    return max((eps.denominator // eps.numerator).bit_length(), _COMPACT_BITS) + _GUARD_BITS


def q_zeta_enclosure(
    q: QLike,
    s: Sequence,
    eps: Fraction = Fraction(1, 10**20),
    star: bool = False,
    prec: int | None = None,
) -> SeriesValue:
    """:func:`q_zeta` at q with its value as a :class:`Ball` around the same
    exact partial sum, at the same K and with the same tail bound, summed in
    integers at the binary point 2**-prec by :func:`_ball_sweep` over one
    run per entry (:func:`_harmonic_runs`), whose floored terms lie within
    _COLUMN_SLACK units of the exact ones.  By default prec is P, the bit
    size of 1/eps, at least _COMPACT_BITS, plus _GUARD_BITS.

    Level i of the sweep, i >= 1, depends only on q, K, prec, the descent
    and the entries i..m-1, so levels 1..m-1 go through the level memo
    (:mod:`~qzeta.levels`) at (a, b, K, prec), keyed by slot
    2 * magnitude + [barred] as the harmonic DP's: the sweep starts above
    the longest suffix held, and the levels it sums there are recorded,
    deepest first, each charged (:func:`~qzeta.levels.charge`) the bits and
    ENTRY_BITS of every int of its midpoints and radii.  The ball, level 0, is not held.  The ball is
    the same whichever levels were read.

    Raises ValueError as :func:`q_zeta` does, and for a q that
    :func:`~qzeta.qarith.as_q` refuses.
    """
    entries = signed_string(s)
    q, eps = as_q(q), as_eps(eps)
    K, bound = _harmonic_truncation(q, len(entries), eps)
    if prec is None:
        prec = _default_prec(eps)
    keys = [2 * e.magnitude + (e.sign < 0) for e in entries[1:]]
    generation, node, held, _ = Levels.lookup(
        (q.numerator, q.denominator, K, prec), WEAK_ROOT if star else STRICT_ROOT, keys
    )
    levels = _ball_sweep(_harmonic_runs(q, entries, K), K, prec, star, held)
    if generation is not None:
        top = len(entries) - len(held)  # levels 1..top-1 were summed here
        new = [
            (key, level, charge(level[0] + level[1])) for key, level in zip(keys, levels[1:top])
        ]
        Levels.record(generation, node, new[::-1])
    return SeriesValue(levels[0], bound, K)


# Longest truncation K that :func:`frakz` and :func:`frakz_enclosure` will
# sum, checked before any term is summed, so it also bounds the right ball
# of every q-series check.  It was set for the exact sum: the engine's
# integers grow like K**2 bits, so at depth 32 the cost grows about as
# K**4: 9 s at K = 100 and 72 s at K = 160 at q = 1/2, 20 s at K = 100 at
# q = 2/3, on a 2-vCPU x86-64 host.  Depth 32 has a tail bound only for
# K > 30 + 31 / log2(1/q), so this cap admits it up to q ~ 0.73.  The test
# suite and the benchmark reach K = 51 at most (9,9,9 at q = 1/2,
# eps = 1e-25).
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

    K is the least one whose bound is <= eps, found by :func:`_truncation`
    from 0 before any term is summed and memoized per (q, m, merge, eps)
    (see :func:`_frakz_search`).  The value is then summed in integers by
    Horner over the growth factors of :func:`_rescaled`, whose product is
    L_K**W * a**A_K * b**B_K, so the sum is the row (total, a**A_K, B_K) at
    K and weight W, reduced once by :func:`_row_value`.  The search needs
    "fits" monotone in K, and it is: rho_d falls as K grows, so once every
    class has a bound it keeps one, and each class's bound then falls
    strictly.  With k = K + 1, B_d(k+1)/B_d(k) = (1 + 1/k)**(d-1) q**(k-d+1),
    which is q**(K+1) < 1 for d = 1 and, wherever rho_d < 1, below
    ((K+2)/(2K+2))**(d-1) <= 1; the factor 1/(1 - rho_d) falls with rho_d.

    Raises ValueError, before summing any term, for a pattern deeper than
    MAX_PATTERN_DEPTH, an inadmissible one, an eps that is not a positive
    rational, or a K above MAX_FRAKZ_TERMS.
    """
    K, bound = _frakz_truncation(ctx.q, pattern, eps, merge)
    inner = _inner_terms(ctx, pattern, merge, K)
    total = top_a = top_b = 0
    for grow, x, top_a, top_b in _rescaled(ctx, pattern.weight, inner):
        total = total * grow + x
    row = (total, ctx.q.numerator**top_a, top_b)
    return SeriesValue(_row_value(ctx, pattern.weight, K, row), bound, K)


def _check_depth(pattern: Triple, what: str) -> None:
    """Raise ValueError for a pattern deeper than MAX_PATTERN_DEPTH, naming
    what it would be summed as."""
    if pattern.depth > MAX_PATTERN_DEPTH:
        raise ValueError(f"pattern depth {pattern.depth} exceeds {MAX_PATTERN_DEPTH} for {what}")


def _frakz_truncation(q: Fraction, pattern: Triple, eps, merge) -> tuple[int, Fraction]:
    """The K and tail bound of :func:`frakz` at q, after its refusals."""
    m = pattern.depth
    _check_depth(pattern, "a q-series")
    if not is_admissible(pattern):
        raise ValueError(f"divergent mollified series: inadmissible shifts in {pattern}")
    eps = as_eps(eps)
    return _frakz_search(
        q.numerator, q.denominator, m, bool(merge), eps.numerator, eps.denominator, MAX_FRAKZ_TERMS
    )


@lru_cache(maxsize=_SEARCH_CACHE_SIZE)
def _frakz_search(
    a: int, b: int, m: int, merge: bool, eps_num: int, eps_den: int, cap: int
) -> tuple[int, Fraction]:
    """The truncation K of :func:`frakz` for a depth-m pattern at q = a/b
    and its tail bound, the least K <= cap whose bound is <= eps =
    eps_num/eps_den, found by :func:`_truncation` from 0.  The cap is part
    of the key, so no entry outlives it, and a refusal is not kept; keyed
    by integers as :func:`_harmonic_search` is.

    With k = K + 1, each class's B_d(k) = 2**d k**(d-1) q**(k(k-1)/2 -
    (d-1)k) is q**((m-d)k) times the deepest class's power of q,
    q**(k(k-1)/2 - (m-1)k), which is multiplied in once, after the sum:
    the bound is the same Fraction, but a class's term holds about
    (m-d) k log2(b) bits rather than k**2/2 log2(b).
    """
    q, eps = Fraction(a, b), Fraction(eps_num, eps_den)
    # (count, depth) of the resolutions summed, deepest (largest rho) first
    classes = [(comb(m - 1, d - 1), d) for d in range(m, 0, -1)] if merge else [(1, m)]

    def tail_bound(K: int) -> Fraction | None:
        k, total = K + 1, Fraction(0)
        for many, d in classes:
            rho = 2 ** (d - 1) * q ** (K + 2 - d)
            if rho >= 1:
                return None
            total += many * 2**d * k ** (d - 1) * q ** ((m - d) * k) / (1 - rho)
        return total * q ** (k * (k - 1) // 2 - (m - 1) * k)

    return _truncation(tail_bound, 0, eps, cap, "a mollified series")


# A run's term at index k is q**e (1 + q**k) / [k]**s, e = alpha * k(k-1)/2
# + beta * k (see _runs), and its column is one product per index of an
# entry of a magnitude table, _MAGNITUDE_GROUP magnitudes s per entry, and
# of a power table of q**e (see _run_column).  Magnitude table lengths are
# multiples of _TABLE_MIN_LENGTH, power table lengths powers of two at
# least _POWER_MIN_LENGTH, and a binary point a multiple of
# _COLUMN_PREC_STEP, so that few tables serve every check at one q: with
# power tables of every power of two from 1 up, the benchmark's q-series
# batch at q = 1/2 builds 41 instead of 4, and with magnitude tables 16
# long, 11 instead of 7.  Toward q -> 1 the exponents reach about K**2 / 2,
# so the power tables' lengths spread: over the 1,024 weight-12
# compositions at q = 9/10, lengths in multiples of 512 missed 315 of
# 25,600 lookups, and powers of two miss 68.  A table's entries do not
# depend on its length.  A power table of q < 1 computes only its nonzero
# entries, about prec / log2(1/q).
_MAGNITUDE_GROUP = 8
_TABLE_MIN_LENGTH = 32
_POWER_MIN_LENGTH = 512
_COLUMN_PREC_STEP = 64
# Bits a run's binary point keeps above the largest value of the level it
# reads (see _column_prec), and the units by which a floored term of either
# ball may lie below the exact one (see _floored_column and _run_column)
_COLUMN_GUARD_BITS = 8
_COLUMN_SLACK = 4
# Bits by which a power table's recurrence, and at least by which the
# fixed-point sequence of the magnitude tables and left columns, runs finer
# than its entries (see _power_table and _fixed_point_rows)
_POWER_GUARD_BITS = 64


def _table_length(n: int, step: int = _TABLE_MIN_LENGTH) -> int:
    """n rounded up to a multiple of step, at least step."""
    return max(-(-n // step), 1) * step


def _power_length(top: int) -> int:
    """The length of a power table that holds the exponents 0..top: the
    power of two at least top + 1 and _POWER_MIN_LENGTH."""
    return max(1 << top.bit_length(), _POWER_MIN_LENGTH)


def _fixed_point_rows(a: int, b: int, n: int, prec: int, lead: int, magnitudes: range) -> Iterator:
    """For k = 1..n at q = a/b, the entries at the binary point 2**-prec of
    (lead + q**k) / [k]**s for s in magnitudes, all read off one
    fixed-point sequence at 2**-w, W = 2**w, whose only divisions are of
    W**2 by X_k and of a X_(k-1) and a y_(k-1) by b, so no integer grows
    with k.  With d = ceil(b / (b - a)) >= 1 / (1 - q), from X_0 = 0 and
    y_0 = W, it keeps

    * X_k = W + ceil(a X_(k-1) / b), in [W [k], W [k] + d): [k] = 1 + q [k-1],
      and each ceiling adds less than 1 to an error that q scales down;
    * y_k = floor(a y_(k-1) / b), in (W q**k - d, W q**k], likewise;
    * r_k = floor(W**2 / X_k), in (W/[k] - d - 1, W/[k]], as W**2 / X_k lies
      at most W d / ([k] X_k) <= d / [k]**2 below W/[k];
    * R_0 = W and R_s = floor(R_(s-1) r_k / W), one product per magnitude
      step, in (W/[k]**s - s (d + 2), W/[k]**s]: with R_(s-1) and r_k at
      most W/[k]**(s-1) <= W and W, R_(s-1) r_k / W lies at most
      (d + 1) + (s - 1)(d + 2) below W/[k]**s.

    The entry is floor((lead W + y_k) R_s / 2**(2w - prec)).  For
    Y = W q**k and U = W/[k]**s,
    (lead W + Y) U - (lead W + y_k) R_s < d W + (lead + 1) W s (d + 2), so
    2**prec (lead + q**k) / [k]**s lies in [entry, entry + 1 + f) with
    f = (d + 2 s (d + 2)) / 2**(w - prec).  w is prec plus
    G = _POWER_GUARD_BITS plus the bit length of d (2 s' + 1)(d + 2), s'
    the largest magnitude, so f < 2**-G / d.
    """
    d = -(-b // (b - a))
    w = prec + _POWER_GUARD_BITS + (d * (2 * magnitudes[-1] + 1) * (d + 2)).bit_length()
    unit, shift = 1 << w, 2 * w - prec
    x, y = 0, unit
    for _ in range(n):
        x, y = unit - (-a * x // b), a * y // b
        r, top = (unit << w) // x, lead * unit + y
        powers = accumulate(repeat(r, magnitudes[-1]), lambda p, step: p * step >> w, initial=unit)
        yield [top * p >> shift for p in islice(powers, magnitudes.start, None)]


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _magnitude_table(a: int, b: int, prec: int, n: int, group: int) -> tuple[tuple[int, ...], ...]:
    """At q = a/b, for s = group * _MAGNITUDE_GROUP + i, 0 <= i <
    _MAGNITUDE_GROUP, the column of (1 + q**k) / [k]**s at the binary point
    2**-prec, k = 1..n, read off :func:`_fixed_point_rows`: 2**prec times
    the term lies in [m, m + 1 + 2**-G / d) for its entry m, with G and d
    as there.
    """
    first = group * _MAGNITUDE_GROUP
    return tuple(zip(*_fixed_point_rows(a, b, n, prec, 1, range(first, first + _MAGNITUDE_GROUP))))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _power_table(a: int, b: int, prec: int, n: int) -> tuple[int, ...]:
    """floor(2**prec * (a/b)**e) for e = 0..n-1.

    For a < b the floors are read off y_e, kept with G = _POWER_GUARD_BITS
    more bits: y_0 = 2**(prec+G) and y_(e+1) = floor(a y_e / b), so
    0 <= Y_e - y_e < 1 + q + q**2 + ... < d = ceil(b / (b - a)) for
    Y_e = 2**(prec+G) q**e.  Where the low G bits of y_e are at most
    2**G - d, Y_e lies below the next multiple of 2**G and the floor is
    y_e >> G; elsewhere it is divided out exactly.  Once a floor is zero
    every later one is, and is not computed.  For a > b each is divided out
    exactly.
    """
    if a > b:
        out = []
        num, den = 1 << prec, 1
        for _ in range(n):
            out.append(num // den)
            num *= a
            den *= b
        return tuple(out)
    out = []
    guard = _POWER_GUARD_BITS
    mask, y = (1 << guard) - 1, 1 << (prec + guard)
    room = (1 << guard) - -(-b // (b - a))  # 2**G - d
    for e in range(n):
        g = y >> guard if y & mask <= room else (a**e << prec) // b**e
        if not g:
            break
        out.append(g)
        y = y * a // b
    return tuple(out) + (0,) * (n - len(out))


def _column_prec(top: int, prec: int) -> int:
    """The binary point of a run's column when the level it reads is at most
    top in units of 2**-prec: a multiple of _COLUMN_PREC_STEP at least
    _COLUMN_GUARD_BITS above both top and the exact 1, so that f units of
    a column's error move a product by at most f * 2**-_COLUMN_GUARD_BITS
    units."""
    bits = max(top.bit_length(), prec + 1) + _COLUMN_GUARD_BITS
    return -(-bits // _COLUMN_PREC_STEP) * _COLUMN_PREC_STEP


def _run_column(
    a: int, b: int, s: int, alpha: int, beta: int, halves: list, prec: int
) -> list[int]:
    """The floored terms t_k of a folded run (s, alpha, beta) at q = a/b and
    the binary point 2**-prec, for k = 1..n with halves[k-1] = k(k-1)/2:
    2**prec T_k lies in [t_k, t_k + _COLUMN_SLACK) for the exact unsigned
    term T_k = q**e (1 + q**k) / [k]**s, e = alpha * k(k-1)/2 + beta * k
    (see :func:`_runs`).

    t_k = floor(m g / 2**mprec) from the table entries m at 2**-mprec of
    (1 + q**k) / [k]**s and g at 2**-prec of q**e
    (:func:`_magnitude_table`, :func:`_power_table`, with (1/q)**-e for
    e < 0).  Write M' = 2**mprec M and E' = 2**prec E for the exact
    M = (1 + q**k) / [k]**s and E = q**e, with M' in [m, m + 1 + f),
    f < 2**-G / d <= 1 - q (see :func:`_fixed_point_rows`), and E' in
    [g, g + 1).  Then M' E' - m g = M' (E' - g) + g (M' - m), so
    0 <= 2**prec T_k - t_k < 1 + M + (g / 2**mprec)(1 + f).  Here
    M <= 1 + q, as [k] >= 1, and g <= 2**mprec: where every e >= 0,
    g <= 2**prec and mprec = prec; where q**e > 1 the error of m is scaled
    up by g, so mprec is prec plus the bits by which the largest g exceeds
    2**prec, in steps of _COLUMN_PREC_STEP.  So the gap is below
    3 + q + f < 4 = _COLUMN_SLACK.
    """
    expos = [alpha * h + beta * k for k, h in enumerate(halves, 1)]
    # e rises with k unless alpha or beta is negative
    low, high = (expos[0], expos[-1]) if alpha >= 0 and beta >= 0 else (min(expos), max(expos))
    if low >= 0:
        gs, mprec = map(_power_table(a, b, prec, _power_length(high)).__getitem__, expos), prec
    else:
        downs = _power_table(b, a, prec, _power_length(-low))
        ups = _power_table(a, b, prec, _power_length(high)) if high >= 0 else ()
        gs = [ups[e] if e >= 0 else downs[-e] for e in expos]
        excess = max(max(gs).bit_length() - prec, 0)
        mprec = prec + -(-excess // _COLUMN_PREC_STEP) * _COLUMN_PREC_STEP
    ms = _magnitude_table(a, b, mprec, _table_length(len(expos)), s // _MAGNITUDE_GROUP)
    return [m * g >> mprec for m, g in zip(ms[s % _MAGNITUDE_GROUP], gs)]


def _ball_sweep(runs: list, n: int, prec: int, weak: bool, held: Sequence = ()) -> list:
    """A ball at 2**-prec around a nested sum to n, swept one level at a
    time, innermost first, with a radius carried index by index.  Returns
    the levels [ball, level 1, ..., level m-1, the exact 1] (see below).
    ``held`` are the levels m - len(held) .. m-1, already summed for these
    runs, n, prec and descent (read from the level memo by
    :func:`q_zeta_enclosure`): the sweep starts at the level above them and
    returns them as they are, never writing into them.

    runs[i] lists level i's runs (j, barred, column), j > i.  column(c)
    gives the run's floored terms t_k, k = 1..n, at the binary point 2**-c
    that level j sets (:func:`_column_prec`), each with 2**c T_k in
    [t_k, t_k + S) for the exact term T_k, S = _COLUMN_SLACK on both sides
    (:func:`_floored_column`, :func:`_run_column`).  Level i sums
    C_i[k] = sum_(k' <= k) sum_runs (+-T_k') C_j[k' - d], negated at odd k'
    for a barred run, with d = 0 for weak and 1 for strict descent, and
    C_m = 1 below the innermost level; the ball is around C_0[n].

    A level keeps (xs, es, c, top): midpoints and radii over the indices
    it is read at, k - d for k = 1..n, in units of 2**-prec, with
    |x - 2**prec C| <= e; and top = max |x| + e at the last index, which
    bounds every |2**prec C| as the radii never fall with k.  The exact 1
    is the level of constant columns x = 2**prec and e = 0.  A barred run
    signs its column once, negating t_k at odd k, and every product reads
    the signed column; a radius reads the unsigned one.

    Radius: for one product write t = t_k, T' = 2**c T_k, x and e for the
    deeper level at the index read and X = 2**prec C_j there, so |X| <= top:

        t x - T' X = t (x - X) + (t - T') X,
        |t x - T' X| <= t e + S top.

    An inner level floors each product at 2**-prec, within
    1 + ceil(S top / 2**c) + ceil(t e / 2**c) units, and its radius at
    k sums these over its runs and the indices up to k; the first two
    terms, the same at every index, ride in the rounding bias of the third.
    With E the deeper level's largest radius, the third is at most 1 where
    t <= lim = floor((2**c - 1) / E), and is counted as 1 there without
    forming t e: toward the tail of a column, most of its indices.  Below
    the innermost level e = 0, and the third term is 0.
    Level 0, which no level reads, floors each run's sum over k once,
    within 1 + ceil((sum t e + n S top) / 2**c) units.  c keeps
    S top / 2**c below a unit whatever the size of level j, so a run
    reading a large level (a run of negative alpha has terms like
    q**(-k**2/2)) is read at a finer binary point instead of spending the
    guard bits, and an error is scaled down with its level's values by the
    terms above it: the bound follows the nesting of the indices.
    """
    m, one = len(runs), 1 << prec
    exact_one = ([one] * (n + 1), [0] * (n + 1), _column_prec(one, prec), one)
    levels: list = [None] * (m - len(held)) + list(held) + [exact_one]
    if not (m and n):
        levels[0] = Ball(0 if m else one, 0, prec)  # an empty string's sum is 1
        return levels
    start = None if weak else 0  # a strict level holds C[0] = 0 first
    mid = rad = 0
    for i in range(m - 1 - len(held), -1, -1):
        mids = errs = None
        for j, barred, column in runs[i]:
            xs, es, c, top = levels[j]
            ts = column(c)
            if i and not weak:
                ts = ts[:-1]  # a strict level is read at k - 1 < n
            signed = [-t if k % 2 else t for k, t in enumerate(ts, 1)] if barred else ts
            if not i:
                mid += sum(map(mul, signed, xs)) >> c
                rad += 1 - (-(sum(map(mul, ts, es)) + n * _COLUMN_SLACK * top) >> c)
                continue
            flat = 1 - (-_COLUMN_SLACK * top >> c)
            if j == m:
                # the exact 1: t x / 2**c is t / 2**(c - prec), and with e = 0
                # no ceil(t e / 2**c) term is counted
                prods, spills = [t >> c - prec for t in signed], [flat] * len(ts)
            else:
                prods = [t * x >> c for t, x in zip(signed, xs)]
                # flat + ceil(t e / 2**c), and flat + 1 wherever t <= lim
                lim, full = ((1 << c) - 1) // max(es[-1], 1), flat + 1
                bias = (full << c) - 1
                spills = [t * e + bias >> c if t > lim else full for t, e in zip(ts, es)]
            if mids is None:
                mids, errs = prods, spills
            else:
                mids, errs = list(map(add, mids, prods)), list(map(add, errs, spills))
        if not i:
            break
        xs, es = list(accumulate(mids, initial=start)), list(accumulate(errs, initial=start))
        top = max(max(xs), -min(xs)) + es[-1]
        levels[i] = (xs, es, _column_prec(top, prec), top)
    levels[0] = Ball(mid, rad, prec)
    return levels


def _harmonic_runs(q: Fraction, entries: tuple, n: int) -> list:
    """The runs of :func:`_ball_sweep` for a nested harmonic sum to n: level
    i is entry i alone, read through the first n floored terms of its
    magnitude (:func:`_floored_column`).  The column is built to the power
    of two at least n and _COLUMN_MIN_LENGTH, so that the truncations K of
    nearby depths read prefixes of one memo entry."""
    a, b = q.numerator, q.denominator
    length = max(1 << (n - 1).bit_length(), _COLUMN_MIN_LENGTH)

    def column(s: int, prec: int) -> tuple[int, ...]:
        return _floored_column(a, b, s, length, prec)[:n]

    return [[(i + 1, e.sign < 0, partial(column, e.magnitude))] for i, e in enumerate(entries)]


def _mollified_runs(q: Fraction, pattern: Triple, merge, n: int) -> list:
    """The runs of :func:`_ball_sweep` for the partial sum of :func:`frakz`
    at q to K = n: the runs of the merge mask (:func:`_runs`), each read
    through its :func:`_run_column`."""
    a, b = q.numerator, q.denominator
    halves = [k * (k - 1) // 2 for k in range(1, n + 1)]
    return [
        [(j, barred, partial(_run_column, a, b, s, alpha, beta, halves))
         for j, s, barred, alpha, beta in row]
        for row in _runs(pattern, merge)
    ]


def frakz_enclosure(
    q: QLike, pattern: Triple, eps: Fraction = Fraction(1, 10**20), prec: int | None = None
) -> SeriesValue:
    """:func:`frakz` at q with merge=True, its value a :class:`Ball` at 2**-prec
    around the same exact partial sum, at the same K and with the same tail
    bound, by :func:`_ball_sweep` in strict descent over the runs of every
    resolution (:func:`_mollified_runs`), whose floored terms lie within
    _COLUMN_SLACK units of the exact ones.  By default prec is P, as for
    :func:`q_zeta_enclosure`.

    Raises ValueError as :func:`frakz` does, and for a q that
    :func:`~qzeta.qarith.as_q` refuses, before any table is built.
    """
    q = as_q(q)
    K, bound = _frakz_truncation(q, pattern, eps, True)
    if prec is None:
        prec = _default_prec(as_eps(eps))
    runs = _mollified_runs(q, pattern, True, K)
    return SeriesValue(_ball_sweep(runs, K, prec, False)[0], bound, K)


# classical_zeta_many refuses a longer truncation before summing anything:
# past 1e8 terms a k**-2 term is below the rounding of its float64 sum, so
# a longer run costs minutes and sharpens nothing
MAX_CLASSICAL_TERMS = 10**8


# The descent of a resolved classical series: a strict step between levels
# weighs 2, an equal one 1, and the innermost level 2, so the series is the
# sum over every resolution r of its string of 2**depth(r) * zeta(r)
_RESOLVED = "resolved"


# A bounded memo of classical series values.  The checks of one weight share
# series (the benchmark's seed-1 classical batch makes 114 lookups of 48
# distinct series), so a value is summed once per process and then read
# back.  A key is (signed string, descent, K, chunk): chunk is part of it
# because the chunk boundaries fix the float rounding.  An entry is a few
# hundred bytes, so the bound keeps it under 0.5 MB.
_CLASSICAL_MEMO_SIZE = 1024

# Terms per chunk of a classical series, so each of its four float buffers
# holds at most this many: 1 MB in all, 1.25 MB with the indices, inside
# the 2 MB L2 cache per core of the 2-vCPU x86-64 host it was timed on.
# There the benchmark's seed-1 classical batch (57 checks, K = 10**6, cold
# memo) took 0.79-0.87 s at this chunk and 0.86-0.99 s at twice it.  It is
# read at each call and goes into the memo key above.
_CHUNK = 32768


def classical_zeta_many(items: Sequence[tuple], K: int = 1_000_000) -> list[ClassicalValue]:
    """Partial sums of classical signed multiple zeta values to K terms,
    one per ``(signed string, star)`` pair.

    Entries are signed indices: magnitude p and sign w contribute
    w**k / k**p at index k.  star is the descent between levels: False for
    strict (k_1 > k_2 > ...), True for weak (k_1 >= k_2 >= ...), or
    ``"resolved"``, where level j sums x_j(k) * (D[k-1] + D[k]) over the
    deeper level's cumulative D, and D = 1 below the innermost level.  A
    resolved partial sum equals, at every K in exact arithmetic, the sum
    over the 2**(m-1) resolutions r of the string (adjacent entries merged
    or not) of 2**depth(r) * zeta_K(r), without listing them.  Every string
    and star is validated first, and any other star or a string deeper than
    MAX_PATTERN_DEPTH is refused; then each nonempty one is looked up in a
    bounded process-wide memo keyed by ``(signed string, star, K, _CHUNK)``
    (:func:`_classical_sum`).

    The tail estimate is |inner cumulative at K| (twice it for a resolved
    series, whose outermost level reads two inner cumulatives) times the
    tail of the outermost level: K**(1-p1)/(p1-1) for leading magnitude
    p1 >= 2, else 1/K for a signed leading 1 (alternating-series first-term
    bound).  Both are heuristic, not bounds.
    """
    strings = []
    for s, star in items:
        if star is not False and star is not True and star != _RESOLVED:
            raise ValueError(f"star must be False, True or {_RESOLVED!r}, got {star!r}")
        entries = signed_string(s)
        strings.append((entries, star))
        if not entries:
            continue
        if len(entries) > MAX_PATTERN_DEPTH:
            raise ValueError(f"series depth {len(entries)} exceeds {MAX_PATTERN_DEPTH}")
        lead = entries[0]
        if star is True:
            if lead.magnitude < 2:
                raise ValueError("weak-descent series needs a leading magnitude >= 2")
        elif lead.magnitude < 2 and not (lead.magnitude == 1 and lead.sign < 0):
            raise ValueError("series needs leading magnitude >= 2 or a signed leading 1")
    if not any(entries for entries, _ in strings):
        return [ClassicalValue(1.0, 0.0, 0) for _ in strings]
    # the sum slices by K, so a float is refused here, where a memoized
    # 10**6 would otherwise answer for 1e6
    K = as_int(K, "K")
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if K > MAX_CLASSICAL_TERMS:
        raise ValueError(f"K = {K} exceeds {MAX_CLASSICAL_TERMS} terms")
    return [
        _classical_sum(entries, star, K, _CHUNK) if entries else ClassicalValue(1.0, 0.0, 0)
        for entries, star in strings
    ]


@lru_cache(maxsize=_CLASSICAL_MEMO_SIZE)
def _classical_sum(entries: tuple, descent: bool | str, K: int, chunk: int) -> ClassicalValue:
    """One nonempty, validated string summed over the chunks of 1..K.

    Per chunk, in this order:

    1. the reciprocal column 1/k, once;
    2. for each level, innermost first, its column k**-p built from 1/k
       by products (:func:`_power_column`), its terms at odd k negated for
       a barred entry, and the column multiplied by its factor: D[k] for a
       weak level, D[k-1] for a strict one and D[k-1] + D[k] for a resolved
       one, with D the deeper level's cumulative (at the chunk start, D[k-1]
       is that level's carry from before), 1 below the innermost level and
       2 for a resolved series;
    3. for an inner level, its carry added to the first term, then one
       cumulative sum in place, whose last element is the next carry;
    4. for the outermost level, whose cumulative nobody reads, one sum of
       the products, added to its carry.

    The levels alternate between two buffers, and the strict and resolved
    factors are formed in a third, so with the reciprocal column the engine
    holds four chunk-wide float buffers (1 MB at the default chunk) besides
    the indices, however long K is.  np.power is not used: it costs about
    as much per term as the cumulative sum, and 1/k to the p by squaring
    costs one or two multiplies per bit of p.  The outermost sum is
    ndarray.sum (pairwise) rather than np.dot, whose BLAS may split a long
    column between threads and so round differently on hosts with another
    thread count; every operation here rounds the same on any host.
    """
    import numpy as np  # only this engine needs it; the exact paths start without it

    resolved = descent == _RESOLVED
    width = min(chunk, K)
    bufs = (np.empty(width), np.empty(width))
    scratch = np.empty(width)
    recs = np.empty(width)
    carries = [0.0] * len(entries)
    ks = np.arange(1, width + 1, dtype=np.float64)
    start = 1
    while start <= K:
        n = min(width, K - start + 1)
        rec = np.reciprocal(ks[:n], out=recs[:n])
        odd = (start + 1) % 2  # the first slot of an odd k
        deeper = prev = None
        for j in reversed(range(len(entries))):
            e, out = entries[j], bufs[j % 2][:n]
            _power_column(rec, e.magnitude, out)
            # the negation is exact, so it commutes with the products below
            if e.sign < 0:
                out[odd::2] *= -1.0
            if deeper is None:
                if resolved:
                    out *= 2.0  # the level below the innermost is 1, read twice
            elif descent is True:
                out *= deeper
            else:
                factor = scratch[:n]
                factor[0] = prev
                factor[1:] = deeper[:-1]
                if resolved:
                    factor += deeper
                out *= factor
            if not j:
                carries[0] += float(out.sum())
                break
            out[0] += carries[j]
            np.cumsum(out, out=out)
            # the next level out reads this cumulative and the carry before it
            deeper, prev = out, carries[j]
            carries[j] = float(out[-1])
        start += n
        ks += width

    # the tail estimate reads level 1's cumulative at K
    inner = carries[1] if len(entries) > 1 else 1.0
    if resolved:
        inner *= 2
    p1 = entries[0].magnitude
    if p1 >= 2:
        tail = abs(inner) * K ** (1 - p1) / (p1 - 1)
    else:
        tail = abs(inner) / K
    return ClassicalValue(carries[0], tail, K)


def _power_column(rec, p: int, out) -> None:
    """Write rec**p into out, for rec the column 1/k: ones for p = 0, a copy
    for p = 1, and otherwise by squaring over the bits of p from the top,
    at most 2*log2(p) products."""
    if p == 0:
        out.fill(1.0)
        return
    out[:] = rec
    for bit in bin(p)[3:]:
        out *= out
        if bit == "1":
            out *= rec


def classical_zeta(s: Sequence, K: int = 1_000_000, star: bool | str = False) -> ClassicalValue:
    """Partial sum of one classical signed multiple zeta value to K terms
    (see :func:`classical_zeta_many`)."""
    return classical_zeta_many([(s, star)], K)[0]
