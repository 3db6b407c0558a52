"""Brute-force reference evaluators for cross-checking the package.

Everything here is computed from first principles with explicit tuple
enumeration and a local q-arithmetic, sharing no code with the library
internals.  Keep these slow and obvious; they are the ground truth the
dynamic-programming evaluators are judged against.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

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
    buckets = [Fraction(0)] * (n_max + 1)
    chooser = combinations_with_replacement if star else combinations
    for asc in chooser(range(1, n_max + 1), m):
        # asc is ascending; entry j takes the j-th largest index
        term = factor[0][asc[-1]]
        for j in range(1, m):
            term *= factor[j][asc[-1 - j]]
        buckets[asc[-1]] += term
    acc = Fraction(0)
    for n in range(1, n_max + 1):
        acc += buckets[n]
        out[n] = acc
    return out


def mollified_all_n(q, slots, n_max):
    """Brute-force binomially weighted sums for all n <= n_max.

    slots: sequence of ((magnitude, sign), t, r) with r an int or None.
    Returns v with v[n] the sum over n >= k_1 > ... > k_m >= 1 of
    binom_ratio(n, k_1) * prod q^{t_j k_j + Q(r_j, k_j)} (1 + q^{k_j})
    / (sign_j^{k_j} [k_j]^{mag_j}).
    """
    q = Fraction(q)
    m = len(slots)
    out = [Fraction(0)] * (n_max + 1)
    if m == 0:
        return [Fraction(1)] * (n_max + 1)
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
    buckets = [Fraction(0)] * (n_max + 1)
    for asc in combinations(range(1, n_max + 1), m):
        term = factor[0][asc[-1]]
        for j in range(1, m):
            term *= factor[j][asc[-1 - j]]
        buckets[asc[-1]] += term
    for n in range(1, n_max + 1):
        out[n] = sum(
            (binom_ratio(q, n, k) * buckets[k] for k in range(1, n + 1)),
            Fraction(0),
        )
    return out


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
