"""Brute-force reference evaluators for cross-checking the package.

Everything here is computed from first principles with explicit tuple
enumeration and a local q-arithmetic, sharing no code with the library
internals.  Keep these slow and obvious; they are the ground truth the
dynamic-programming evaluators are judged against.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

# The q-arithmetic below is memoized on its arguments (q, n[, m]): the
# brute-force sums ask for the same binomials over and over, and recomputing
# the q-factorials from scratch each time dominated the oracle's cost.


@lru_cache(maxsize=None)
def q_integer(q: Fraction, n: int) -> Fraction:
    return sum((q**i for i in range(n)), Fraction(0))


@lru_cache(maxsize=None)
def q_factorial(q: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= q_integer(q, i)
    return out


@lru_cache(maxsize=None)
def q_binomial(q: Fraction, n: int, m: int) -> Fraction:
    if m < 0 or m > n:
        return Fraction(0)
    return q_factorial(q, n) / (q_factorial(q, m) * q_factorial(q, n - m))


def binom_ratio(q: Fraction, n: int, k: int) -> Fraction:
    # q_binomial(n, k) / q_binomial(n + k, k)
    if k > n:
        return Fraction(0)
    return q_binomial(q, n, k) / q_binomial(q, n + k, k)


def quad_exp(r, k: int) -> int:
    # r is an int shift or None for the absorbing placeholder
    if r is None:
        return 0
    half = k * (k - 1) // 2
    return r * half if r > 0 else r * half - k


def _outermost_buckets(factor, n_max, weak=False):
    """b[k]: the sum of prod_j factor[j][k_j] over every index tuple
    k = k_1 > k_2 > ... > k_m >= 1 (>= between neighbours when weak).

    Every tuple is visited, by nested loops from the outermost slot in;
    each loop carries the product of the factors of the slots outside it,
    so a tuple costs one multiplication rather than m - 1, and one addition
    into its bucket.  Each slot's row is first put over one denominator,
    the lcm of its entries' denominators, so the loops multiply and add
    integers, and each bucket is divided by the product of those
    denominators once.
    """
    m = len(factor)
    dens = [math.lcm(*(f.denominator for f in row[1:])) for row in factor]
    rows = [
        [0] + [f.numerator * (den // f.denominator) for f in row[1:]]
        for row, den in zip(factor, dens)
    ]
    sums = [0] * (n_max + 1)

    def inward(j, outer, outside, top):
        # slot j runs below the index of slot j - 1 (up to it when weak)
        row = rows[j]
        for k in range(1, outer + 1 if weak else outer):
            if j == m - 1:
                sums[top] += outside * row[k]
            else:
                inward(j + 1, k, outside * row[k], top)

    for k in range(1, n_max + 1):
        if m == 1:
            sums[k] = rows[0][k]
        else:
            inward(1, k, rows[0][k], k)
    scale = math.prod(dens)
    return [Fraction(x, scale) for x in sums]


def harmonic_all_n(q, entries, n_max, star=False):
    """Partial sums of a (possibly signed) nested harmonic string.

    entries: sequence of (magnitude, sign) pairs, outermost first.
    Returns a list v with v[n] the depth-len(entries) sum over
    n >= k_1 > ... > k_m >= 1 (weak descent when star) of
    prod q^{k_j} / (sign_j^{k_j} [k_j]^{mag_j}).
    """
    q = Fraction(q)
    m = len(entries)
    out = [Fraction(0)] * (n_max + 1)
    if m == 0:
        return [Fraction(1)] * (n_max + 1)
    qi = [None] + [q_integer(q, k) for k in range(1, n_max + 1)]
    factor = []
    for mag, sign in entries:
        row = [None] * (n_max + 1)
        for k in range(1, n_max + 1):
            row[k] = q**k / (Fraction(sign) ** k * qi[k] ** mag)
        factor.append(row)
    buckets = _outermost_buckets(factor, n_max, weak=star)
    acc = Fraction(0)
    for n in range(1, n_max + 1):
        acc += buckets[n]
        out[n] = acc
    return out


def harmonic_series_nested(q, entries, K, star=False):
    """The partial sum to K of :func:`harmonic_all_n`, value K, by nested
    cumulative sums instead of enumerating every index tuple, so its cost
    grows like K * m rather than K**m.  It serves where the brute force is
    too slow, and is checked against it on small K."""
    q = Fraction(q)
    # below[k]: the sum over the slots deeper than the current one of every
    # index tuple whose top index is at most k; the empty product under the
    # innermost slot
    below = [Fraction(1)] * (K + 1)
    for mag, sign in reversed(entries):
        cumulative = [Fraction(0)] * (K + 1)
        for k in range(1, K + 1):
            term = q**k / (Fraction(sign) ** k * q_integer(q, k) ** mag)
            cumulative[k] = cumulative[k - 1] + term * below[k if star else k - 1]
        below = cumulative
    return below[K]


def _mollified_factors(q, slots, n_max):
    """factor[j][k]: the summand factor of slot j at index k,
    q^{t_j k + Q(r_j, k)} (1 + q^k) / (sign_j^k [k]^{mag_j}), for 1 <= k <= n_max."""
    qi = [None] + [q_integer(q, k) for k in range(1, n_max + 1)]
    factor = []
    for (mag, sign), t, r in slots:
        row = [None] * (n_max + 1)
        for k in range(1, n_max + 1):
            row[k] = (
                q ** (t * k + quad_exp(r, k))
                * (1 + q**k)
                / (Fraction(sign) ** k * qi[k] ** mag)
            )
        factor.append(row)
    return factor


def _mollified_buckets(q, slots, n_max):
    """Mollified summands without prefactor, bucketed by outermost index:
    b[k] is the sum over k = k_1 > ... > k_m >= 1 of
    prod q^{t_j k_j + Q(r_j, k_j)} (1 + q^{k_j}) / (sign_j^{k_j} [k_j]^{mag_j}).

    slots: sequence of ((magnitude, sign), t, r) with r an int or None, nonempty.
    """
    return _outermost_buckets(_mollified_factors(q, slots, n_max), n_max)


def mollified_all_n(q, slots, n_max):
    """Brute-force binomially weighted sums for all n <= n_max.

    slots: sequence of ((magnitude, sign), t, r) with r an int or None.
    Returns v with v[n] the sum over n >= k_1 > ... > k_m >= 1 of
    binom_ratio(n, k_1) * prod q^{t_j k_j + Q(r_j, k_j)} (1 + q^{k_j})
    / (sign_j^{k_j} [k_j]^{mag_j}).
    """
    q = Fraction(q)
    out = [Fraction(0)] * (n_max + 1)
    if not slots:
        return [Fraction(1)] * (n_max + 1)
    buckets = _mollified_buckets(q, slots, n_max)
    for n in range(1, n_max + 1):
        out[n] = sum(
            (binom_ratio(q, n, k) * buckets[k] for k in range(1, n + 1)),
            Fraction(0),
        )
    return out


def mollified_series_partial(q, slots, K):
    """Partial sum to K of the infinite mollified series (no prefactor):
    the sum over K >= k_1 > ... > k_m >= 1 of the summands of
    :func:`mollified_all_n`.  slots as there, nonempty."""
    return sum(_mollified_buckets(Fraction(q), slots, K), Fraction(0))


def mollified_series_nested(q, slots, K):
    """The same partial sum as :func:`mollified_series_partial`, by nested
    cumulative sums instead of enumerating every index tuple, so its cost
    grows like K * m rather than K**m.  It serves where the brute force is
    too slow, and is checked against it on small K."""
    q = Fraction(q)
    # below[k]: the sum over the slots deeper than the current one of every
    # index tuple whose top index is under k; under the innermost slot it is
    # the empty product
    below = [Fraction(1)] * (K + 1)
    for row in reversed(_mollified_factors(q, slots, K)):
        # at[k]: the sum over this slot and the deeper ones, top index k
        at = [Fraction(0)] + [row[k] * below[k] for k in range(1, K + 1)]
        below = [Fraction(0)] * (K + 1)
        for k in range(1, K + 1):
            below[k] = below[k - 1] + at[k - 1]
    return sum(at, Fraction(0))


def merge_shift(acc, r):
    """The merge rule of two shifts (ints, None for theta), the left one
    first: theta is the identity, 1 then -1 merges to theta, any other pair
    of ints adds."""
    if acc is None:
        return r
    if r is None:
        return acc
    return None if (acc, r) == (1, -1) else acc + r


def slot_projections(shifts):
    """P_0, ..., P_m for a shift string (ints, None for theta): P_j is the
    integer projection (theta -> 0) of the left-to-right merge of the first
    j shifts, by :func:`merge_shift`.  P_0 = 0."""
    out, acc = [0], None
    for r in shifts:
        acc = merge_shift(acc, r)
        out.append(0 if acc is None else acc)
    return out


def mollified_series_merged(q, slots, K):
    """The partial sum to K of the mollified series (no prefactor) summed
    over every resolution of the slots, the sum of
    :func:`mollified_series_partial` over the 2**(m-1) ways to merge
    neighbouring slots, without listing them.

    A run of slots [i, j) merges into one slot: magnitudes and offsets add,
    it is barred when an odd number of its slots are, and its shifts merge
    left to right by :func:`merge_shift`.  With T_ij(k) that slot's summand
    factor at index k, C_m[k] = 1 and C_i[0] = 0 for i < m,

        C_i[k] = C_i[k-1] + sum_(j > i) T_ij(k) * C_j[k-1],

    so C_i[k] sums, over the resolutions of slots i..m-1, the nested sums
    whose top index is at most k, and the value is C_0[K].  Every product
    is a Fraction.  slots as in :func:`mollified_all_n`, nonempty.
    """
    q = Fraction(q)
    m = len(slots)
    runs = []  # (i, j, the factor row of the run [i, j) merged into one slot)
    for i in range(m):
        mag, sign, t, r = 0, 1, 0, None
        for j in range(i, m):
            (mag_j, sign_j), t_j, r_j = slots[j]
            mag, sign, t, r = mag + mag_j, sign * sign_j, t + t_j, merge_shift(r, r_j)
            runs.append((i, j + 1, _mollified_factors(q, [((mag, sign), t, r)], K)[0]))
    C = [[Fraction(0)] * (K + 1) for _ in range(m)] + [[Fraction(1)] * (K + 1)]
    for k in range(1, K + 1):
        for i in range(m):
            C[i][k] = C[i][k - 1]
        for i, j, row in runs:
            C[i][k] += row[k] * C[j][k - 1]
    return C[0][K]


def signed_strings(max_depth, max_weight):
    """All nonempty signed strings with magnitudes >= 1 within the bounds."""
    out = []

    def rec(prefix, budget):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == max_depth:
            return
        for mag in range(1, budget + 1):
            for sign in (1, -1):
                prefix.append((mag, sign))
                rec(prefix, budget - mag)
                prefix.pop()

    rec([], max_weight)
    return out


def classical_partial_sum(entries, K, star, chunk):
    """Float partial sum of one classical signed multiple zeta value, summed
    level by level in chunks with fresh arrays, so its value and tail
    estimate are the bit-exact reference for the library's float engine,
    which sums in reused buffers.  The order of operations is the engine's:
    per chunk one column 1/k, each k**-p a product of it by squaring over
    the bits of p, each inner level's carry added to its first term before
    the cumulative sum, and the outermost level's products with the deeper
    cumulative it reads added up by one (pairwise) sum.

    entries: sequence of (magnitude, sign) pairs, outermost first, nonempty
    and convergent.  star: False for strict descent, True for weak, or
    "resolved", where level j reads the deeper cumulative at k - 1 plus the
    one at k (and 2 below the innermost level), which sums 2**depth * zeta
    over every resolution of the string.  chunk: the engine's chunk, which
    fixes where the carries round.  Returns (value, tail_est).
    """
    import numpy as np

    resolved = star == "resolved"
    m = len(entries)
    carries = [0.0] * m
    start = 1
    while start <= K:
        stop = min(start + chunk - 1, K)
        ks = np.arange(start, stop + 1, dtype=np.float64)
        rec = 1.0 / ks
        prev_carries = list(carries)
        cumulative = None
        for j in range(m - 1, -1, -1):
            mag, sign = entries[j]
            terms = np.ones_like(rec) if mag == 0 else rec
            for bit in bin(mag)[3:]:
                terms = terms * terms
                if bit == "1":
                    terms = terms * rec
            if sign < 0:
                terms = terms * np.where(ks % 2 == 1, -1.0, 1.0)
            if cumulative is None:
                factor = 2.0 if resolved else 1.0
            elif star and not resolved:
                factor = cumulative
            else:
                shifted = np.concatenate(([prev_carries[j + 1]], cumulative[:-1]))
                factor = shifted + cumulative if resolved else shifted
            terms = terms * factor
            if j == 0:
                carries[0] += float(np.sum(terms))
                break
            terms = np.concatenate(([terms[0] + carries[j]], terms[1:]))
            cumulative = np.cumsum(terms)
            carries[j] = float(cumulative[-1])
        start = stop + 1
    inner_at_K = carries[1] if m > 1 else 1.0
    if resolved:
        inner_at_K *= 2
    p1 = entries[0][0]
    if p1 >= 2:
        tail = abs(inner_at_K) * K ** (1 - p1) / (p1 - 1)
    else:
        tail = abs(inner_at_K) / K
    return carries[0], tail


def classical_partial_sum_exact(entries, K, star):
    """The partial sum that :func:`classical_partial_sum` rounds, in exact
    rationals, level by level from the innermost: level j's cumulative at
    k adds sign_j**k / k**mag_j times D[k] (weak), D[k - 1] (strict) or
    D[k - 1] + D[k] ("resolved"), with D the deeper level's cumulative and
    D = 1 at every index below the innermost level.  It shares nothing with
    the float order of operations, so it measures the float error.
    entries and star as there; returns the value as a Fraction.
    """
    below = [Fraction(1)] * (K + 1)
    for mag, sign in reversed(entries):
        cumulative = [Fraction(0)] * (K + 1)
        for k in range(1, K + 1):
            if star == "resolved":
                factor = below[k - 1] + below[k]
            elif star:
                factor = below[k]
            else:
                factor = below[k - 1]
            cumulative[k] = cumulative[k - 1] + Fraction(sign**k, k**mag) * factor
        below = cumulative
    return below[K]


def harmonic_ball_per_index(q, entries, n, star, prec):
    """A ball (mid, rad) at the binary point 2**-prec around the nested
    harmonic sum of :func:`harmonic_all_n` with upper limit n, by the
    harmonic DP run index by index with every level's radius carried along.

    entries as in :func:`harmonic_all_n`.  Each term q**k / [k]**mag is
    floored onto the grid, t = floor(term * 2**prec), with flag 1 when that
    dropped a remainder.  Level j keeps its cumulative as a ball (x_j, r_j),
    and the level below the innermost is the exact 1, (2**prec, 0).  At each
    k, in the order the descent reads the deeper level (innermost first for
    weak descent, outermost first for strict), a level whose deeper ball is
    not exactly zero adds floor(+-t * x / 2**prec) to its midpoint and
    1 + ceil((t * r + flag * (|x| + r)) / 2**prec) to its radius: the floor
    loses less than one unit, |t - term| <= flag and |x - exact| <= r.
    Returns (x_0, r_0), or (2**prec, 0) for the empty string.
    """
    q = Fraction(q)
    m = len(entries)
    mids = [0] * m + [1 << prec]
    rads = [0] * (m + 1)
    order = range(m - 1, -1, -1) if star else range(m)
    for k in range(1, n + 1):
        for j in order:
            x, r = mids[j + 1], rads[j + 1]
            if not (x or r):
                continue
            mag, sign = entries[j]
            scaled = q**k / q_integer(q, k) ** mag * 2**prec
            t, rest = divmod(scaled.numerator, scaled.denominator)
            flag = 1 if rest else 0
            signed = -t if sign < 0 and k % 2 else t
            mids[j] += math.floor(Fraction(signed * x, 2**prec))
            rads[j] += 1 + math.ceil(Fraction(t * r + flag * (abs(x) + r), 2**prec))
    return mids[0], rads[0]


def report_text(x: Fraction) -> str:
    """The text a report prints for a rational: "p/q" when numerator and
    denominator are below 10**30, else 12 significant digits by Decimal
    division, rounded half to even."""
    if abs(x.numerator) < 10**30 and x.denominator < 10**30:
        return str(x)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def ball_text(mid: int, rad: int, prec: int):
    """The text :func:`report_text` gives every value of the ball
    [(mid - rad) / 2**prec, (mid + rad) / 2**prec] when it holds only
    positive values and they all give the same, else None, in Fractions:
    None when the rational of denominator below 10**30 nearest the centre
    (Fraction.limit_denominator) lies inside, when the ends' texts differ,
    or when the value that text reads lies inside."""
    lo, hi = Fraction(mid - rad, 2**prec), Fraction(mid + rad, 2**prec)
    if lo <= 0:
        return None
    if lo <= Fraction(mid, 2**prec).limit_denominator(10**30 - 1) <= hi:
        return None
    text = report_text(lo)
    if report_text(hi) != text or lo <= Fraction(text) <= hi:
        return None
    return text
