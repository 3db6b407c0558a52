"""Brute-force reference evaluators for cross-checking the package.

Everything here is computed from first principles with explicit tuple
enumeration and a local q-arithmetic, sharing no code with the library
internals.  Keep these slow and obvious; they are the ground truth the
dynamic-programming evaluators are judged against.
"""

import math
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


def harmonic_ball_per_level(q, entries, n, star, prec):
    """The ball (mid, rad) that the level-by-level sweep gives for the same
    sum as :func:`harmonic_ball_per_index`, from its stated bound: with
    t_k and flag_k as there, w_k = t_k + flag_k, X_j the exact cumulative of
    level j and x_j its floored midpoints, level j's error
    |x_j(k) - 2**prec X_j(k)| is at most A_j + k at every k <= n, where

        A_j = ceil((A_(j+1) sum_k w_k + c sum_k k w_k + M sum_k flag_k) / 2**prec)

    with the sums over the column of level j, k = 1..n, M the largest
    |x_(j+1)(k)|, k = 0..n, and c = 0, A = 0, M = 2**prec for the exact 1
    below the innermost level (c = 1 above it).  Returns (x_0(n), A_0 + n),
    or (2**prec, 0) for the empty string.
    """
    q = Fraction(q)
    one = 2**prec
    if not entries:
        return one, 0
    below = [one] * (n + 1)  # the exact 1 at every index
    bound, slope = 0, 0
    for mag, sign in reversed(entries):
        ts, flags = [], []
        for k in range(1, n + 1):
            scaled = q**k / q_integer(q, k) ** mag * one
            t, rest = divmod(scaled.numerator, scaled.denominator)
            ts.append(t)
            flags.append(1 if rest else 0)
        weights = [t + f for t, f in zip(ts, flags)]
        top = max(abs(x) for x in below)
        total = bound * sum(weights) + slope * sum(k * w for k, w in enumerate(weights, 1))
        bound = math.ceil(Fraction(total + top * sum(flags), one))
        slope = 1
        level = [0]
        for k in range(1, n + 1):
            t = -ts[k - 1] if sign < 0 and k % 2 else ts[k - 1]
            x = below[k] if star else below[k - 1]
            level.append(level[-1] + math.floor(Fraction(t * x, one)))
        below = level
    return below[n], bound + n
