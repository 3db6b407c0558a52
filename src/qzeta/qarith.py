"""Exact rational arithmetic for a fixed base q in (0, 1).

Everything is computed exactly, over :class:`fractions.Fraction` or over
integers with a known denominator, so all identities checked downstream are
exact.  A :class:`QContext` memoizes powers of q, q-integers, integer
q-Pochhammer products, Gaussian binomials and binomial ratios, plus the
per-index term factors used by the sum evaluators; sharing one context
across a large batch of evaluations is what makes the exhaustive checks
affordable.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .indices import Shift, SignedIndex, quad_exponent

QLike = Union[Fraction, int, str]


def as_q(value: QLike) -> Fraction:
    q = Fraction(value)
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    return q


class QContext:
    """Memoized exact arithmetic at a fixed rational q = a/b in (0, 1).

    Binomial ratios are built a whole row n at a time.  :meth:`p_lcm` gives
    the common denominators over which the harmonic-sum DP works in
    integers, so it never reduces a fraction inside its loop, and
    :meth:`p_prod` the integer Pochhammer products from which the finite
    prefactor is built.  Both come from the factors b**k - a**k.
    """

    def __init__(self, q: QLike):
        self.q = as_q(q)
        self.one_minus_q = 1 - self.q
        self._qpow: dict[int, Fraction] = {0: Fraction(1), 1: self.q}
        self._qint: dict[int, Fraction] = {}
        self._gauss: dict[tuple[int, int], Fraction] = {}
        self._br: dict[int, list[Fraction]] = {}
        self._ak: dict[tuple[int, int], Fraction] = {}
        self._plcm: list[int] = [1]
        self._pprod: list[int] = [1]
        self._mterm: dict[tuple[int, int, int, Shift, int], Fraction] = {}

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

    def poch(self, n: int) -> Fraction:
        """q-Pochhammer (q; q)_n = prod_{i=1..n} (1 - q**i) = P_n / b**(n(n+1)/2)."""
        if n < 0:
            raise ValueError(f"Pochhammer order must be >= 0, got {n}")
        return Fraction(self.p_prod(n), self.q.denominator ** (n * (n + 1) // 2))

    def gauss_binomial(self, n: int, m: int) -> Fraction:
        """Gaussian binomial; zero outside 0 <= m <= n."""
        if m < 0 or m > n:
            return Fraction(0)
        key = (n, m)
        cached = self._gauss.get(key)
        if cached is None:
            cached = self.poch(n) / (self.poch(m) * self.poch(n - m))
            self._gauss[key] = cached
        return cached

    def gauss_row(self, n: int, stop: int) -> list[int]:
        """Integers G(n, j) = P_n / (P_j P_(n-j)) for 0 <= j < stop <= n + 1
        (see :meth:`p_prod`), so gauss_binomial(n, j) = G(n, j) / b**(j(n-j)).

        Built by G(n, j) = G(n, j-1) * (b**(n-j+1) - a**(n-j+1)) // (b**j - a**j),
        where every division is exact.  Rows are not kept: one costs O(stop)
        steps on small factors, while keeping every row up to n would hold
        O(n**4) bits.
        """
        a, b = self.q.numerator, self.q.denominator
        row = [1]
        for j in range(1, stop):
            row.append(row[-1] * (b ** (n - j + 1) - a ** (n - j + 1)) // (b**j - a**j))
        return row[:stop]

    def binom_ratio(self, n: int, k: int) -> Fraction:
        """Ratio gauss(n, k) / gauss(n + k, k); zero when k > n.

        The first request from row n fills the whole row with
        br(n, k) = br(n, k-1) * [n-k+1] / [n+k], starting from br(n, 0) = 1.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if k > n:
            return Fraction(0)
        row = self._br.get(n)
        if row is None:
            row = [Fraction(1)]
            for i in range(1, n + 1):
                row.append(row[-1] * self.q_int(n - i + 1) / self.q_int(n + i))
            self._br[n] = row
        return row[k]

    def a_kernel(self, n: int, k: int) -> Fraction:
        """Kernel A(n, k) = (-1)^k (1 + q^k) q^{k(k-1)/2} gauss(n,k)/gauss(n+k,k)."""
        key = (n, k)
        cached = self._ak.get(key)
        if cached is None:
            sign = -1 if k % 2 else 1
            cached = sign * (1 + self.qpow(k)) * self.qpow(k * (k - 1) // 2) * self.binom_ratio(n, k)
            self._ak[key] = cached
        return cached

    def p_lcm(self, n: int) -> int:
        """L_n = lcm of b**k - a**k over 1 <= k <= n, where q = a/b.

        Since [k] = (b**k - a**k) / (b**(k-1) (b - a)), L_n / [k] is an
        integer for every k <= n.  L_0 = 1.
        """
        a, b = self.q.numerator, self.q.denominator
        while len(self._plcm) <= n:
            k = len(self._plcm)
            self._plcm.append(math.lcm(self._plcm[-1], b**k - a**k))
        return self._plcm[n]

    def p_prod(self, n: int) -> int:
        """P_n = prod of b**k - a**k over 1 <= k <= n, where q = a/b.

        (q; q)_n = P_n / b**(n(n+1)/2), and P_n is prime to b.  P_0 = 1.
        """
        a, b = self.q.numerator, self.q.denominator
        while len(self._pprod) <= n:
            k = len(self._pprod)
            self._pprod.append(self._pprod[-1] * (b**k - a**k))
        return self._pprod[n]

    def mollified_term(self, entry: SignedIndex, t: int, r: Shift, k: int) -> Fraction:
        """Term q^{t k + Q(r, k)} (1 + q^k) sgn^k / [k]^mag at index k."""
        key = (entry.magnitude, entry.sign, t, r, k)
        cached = self._mterm.get(key)
        if cached is None:
            exponent = t * k + quad_exponent(r, k)
            cached = self.qpow(exponent) * (1 + self.qpow(k)) / self.q_int(k) ** entry.magnitude
            if entry.sign < 0 and k % 2:
                cached = -cached
            self._mterm[key] = cached
        return cached
