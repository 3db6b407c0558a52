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


def classical_partial_sum(entries, K, star=False, chunk=65536):
    """Float partial sum of one classical signed multiple zeta value, summed
    level by level in chunks with fresh arrays, so its value and tail
    estimate are the bit-exact reference for the library's float engine,
    which sums many strings at once from shared power columns in reused
    buffers.

    entries: sequence of (magnitude, sign) pairs, outermost first, nonempty
    and convergent.  Returns (value, tail_est).
    """
    import numpy as np

    m = len(entries)
    carries = [0.0] * m
    comps = [0.0] * m
    inner_at_K = 1.0
    start = 1
    while start <= K:
        stop = min(start + chunk - 1, K)
        ks = np.arange(start, stop + 1, dtype=np.float64)
        prev_carries = list(carries)
        signs = None
        cumulative = None
        for j in range(m - 1, -1, -1):
            mag, sign = entries[j]
            terms = ks ** float(-mag)
            if sign < 0:
                if signs is None:
                    signs = np.where(ks % 2 == 1, -1.0, 1.0)
                terms = terms * signs
            if cumulative is not None:
                if star:
                    terms = terms * cumulative
                else:
                    shifted = np.empty_like(cumulative)
                    shifted[0] = prev_carries[j + 1]
                    shifted[1:] = cumulative[:-1]
                    terms = terms * shifted
            cumulative = carries[j] + np.cumsum(terms)
            y = float(cumulative[-1]) - carries[j] - comps[j]
            t = carries[j] + y
            comps[j] = (t - carries[j]) - y
            carries[j] = t
            if j == 1:
                inner_at_K = float(cumulative[-1])
        start = stop + 1
    p1 = entries[0][0]
    if p1 >= 2:
        tail = abs(inner_at_K) * K ** (1 - p1) / (p1 - 1)
    else:
        tail = abs(inner_at_K) / K
    return carries[0], tail
