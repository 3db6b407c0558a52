"""Exact rational arithmetic for a fixed base q in (0, 1).

Everything is computed exactly, over :class:`fractions.Fraction` or over
integers with a known denominator, so all identities checked downstream are
exact.  A :class:`QContext` memoizes powers of q, q-integers, integer
q-Pochhammer products and the common denominators of the sum evaluators, and
builds Gaussian-binomial integer rows on request; every q-binomial the
package reads comes from those integers.  Sharing one context across a large
batch of evaluations is what makes the exhaustive checks affordable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

QLike = Union[Fraction, int, str]


def as_q(value: QLike) -> Fraction:
    q = Fraction(value)
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    return q


class QContext:
    """Memoized exact arithmetic at a fixed rational q = a/b in (0, 1).

    :meth:`p_lcm` gives the common denominators over which the harmonic-sum
    DP and the run engine work in integers, so neither reduces a fraction
    inside its loop; :meth:`p_prod` and :meth:`gauss_row` give the integer
    Pochhammer products and Gaussian-binomial rows from which the binomial
    ratios gauss(n, k) / gauss(n + k, k) of the finite prefactor and the
    kernel lemmas are built.  All three come from the factors b**k - a**k.
    """

    def __init__(self, q: QLike):
        self.q = as_q(q)
        self.one_minus_q = 1 - self.q
        self._qpow: dict[int, Fraction] = {0: Fraction(1), 1: self.q}
        self._qint: dict[int, Fraction] = {}
        self._plcm: list[int] = [1]
        self._pprod: list[int] = [1]

    def __repr__(self) -> str:
        return f"QContext(q={self.q})"

    def qpow(self, n: int) -> Fraction:
        """q**n for any integer n."""
        cached = self._qpow.get(n)
        if cached is None:
            cached = self.q ** n
            self._qpow[n] = cached
        return cached

    def q_int(self, n: int) -> Fraction:
        """q-integer [n] = (1 - q**n) / (1 - q)."""
        cached = self._qint.get(n)
        if cached is None:
            cached = (1 - self.qpow(n)) / self.one_minus_q
            self._qint[n] = cached
        return cached

    def gauss_row(self, n: int, stop: int) -> list[int]:
        """Integers G(n, j) = P_n / (P_j P_(n-j)) for 0 <= j < stop <= n + 1
        (see :meth:`p_prod`); the Gaussian binomial is G(n, j) / b**(j(n-j)).

        Built by G(n, j) = G(n, j-1) * (b**(n-j+1) - a**(n-j+1)) // (b**j - a**j),
        where every division is exact.  Rows are not kept: one costs O(stop)
        steps on small factors, while keeping every row up to n would hold
        O(n**4) bits.
        """
        if n < 0 or not 0 <= stop <= n + 1:
            raise ValueError(f"need n >= 0 and 0 <= stop <= n + 1, got n={n}, stop={stop}")
        a, b = self.q.numerator, self.q.denominator
        row = [1]
        for j in range(1, stop):
            row.append(row[-1] * (b ** (n - j + 1) - a ** (n - j + 1)) // (b**j - a**j))
        return row[:stop]

    def p_lcm(self, n: int) -> int:
        """L_n = lcm of b**k - a**k over 1 <= k <= n, where q = a/b.

        Since [k] = (b**k - a**k) / (b**(k-1) (b - a)), L_n / [k] is an
        integer for every k <= n.  L_0 = 1.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        a, b = self.q.numerator, self.q.denominator
        while len(self._plcm) <= n:
            k = len(self._plcm)
            self._plcm.append(math.lcm(self._plcm[-1], b**k - a**k))
        return self._plcm[n]

    def p_prod(self, n: int) -> int:
        """P_n = prod of b**k - a**k over 1 <= k <= n, where q = a/b.

        (q; q)_n = P_n / b**(n(n+1)/2), and P_n is prime to b.  P_0 = 1.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        a, b = self.q.numerator, self.q.denominator
        while len(self._pprod) <= n:
            k = len(self._pprod)
            self._pprod.append(self._pprod[-1] * (b**k - a**k))
        return self._pprod[n]
