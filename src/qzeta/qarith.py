"""Exact rational arithmetic for a fixed base q in (0, 1).

Everything is computed exactly, over :class:`fractions.Fraction` or over
integers with a known denominator, so all identities checked downstream are
exact.  A :class:`QContext` keeps the q-integers in integer form and the
common denominators of the exact sum evaluators, and builds
Gaussian-binomial integer rows on request; every q-binomial the package
reads comes from those integers.  Sharing one context across a large batch
of evaluations is what makes the exhaustive checks affordable.  It serves
the exact engines only: the certified q-series checks and their balls read
q alone and build none.  :func:`as_q`, :func:`as_eps` and :func:`as_int`
read a q, an eps and an integer parameter from a caller.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index
from typing import Union

QLike = Union[Fraction, int, str]


def _rational(value: QLike, name: str) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"{name} must be a rational number, got {str(value)!r}") from exc


def as_q(value: QLike) -> Fraction:
    q = _rational(value, "q")
    if not 0 < q < 1:
        raise ValueError(f"q must lie strictly between 0 and 1, got {q}")
    return q


def as_eps(value: QLike) -> Fraction:
    """The target eps of a tail bound, a positive rational."""
    eps = _rational(value, "eps")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return eps


def as_int(value, name: str) -> int:
    """The integer parameter ``name``, read by :func:`operator.index`, so that a
    float raises TypeError; a bool, which would be reported as true, ValueError."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    try:
        return index(value)
    except TypeError as exc:
        raise TypeError(f"{name} must be an int, got {value!r}: {exc}") from exc


class QContext:
    """Integer q-tables at a fixed rational q = a/b in (0, 1), all built from
    h_n = (b**n - a**n) / (b - a), the integer form of [n] = h_n / b**(n-1),
    for the exact engines: the finite sums, :func:`~qzeta.evaluators.q_zeta`,
    :func:`~qzeta.evaluators.frakz` and the kernel lemmas.  The certified
    q-series checks take q itself and build no context.

    One loop grows h_n = b h_(n-1) + a**(n-1) from h_0 = 0, and a second one
    grows from it the common denominators L_n = lcm(h_1, ..., h_n) over which
    the harmonic-sum DP and the run engine work in integers (:meth:`p_lcm`,
    :meth:`p_lcm_step`), only as far as a caller asks for them: L_n has about
    n**2 bits, so a caller that reads only h_n does not pay for its gcds.
    With :meth:`gauss_row` and P_n = h_1 ... h_n they give the binomial ratios
    gauss(n, k) / gauss(n + k, k) of the finite prefactor and the kernel lemmas.
    """

    def __init__(self, q: QLike):
        self.q = as_q(q)
        self._h = [0]  # h_n for n = 0, 1, ...
        self._lcms = [(1, 1)]  # (L_n, L_n / L_(n-1)) for n = 0, 1, ...

    def __repr__(self) -> str:
        return f"QContext(q={self.q})"

    def h(self, n: int) -> int:
        """h_n = (b**n - a**n) / (b - a) for n >= 0; h_0 = 0."""
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        hs = self._h
        while len(hs) <= n:
            hs.append(self.q.denominator * hs[-1] + self.q.numerator ** (len(hs) - 1))
        return hs[n]

    def _lcm_row(self, n: int) -> tuple[int, int]:
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        while len(self._lcms) <= n:
            lcm, _ = self._lcms[-1]
            h = self.h(len(self._lcms))
            step = h // math.gcd(lcm, h)
            self._lcms.append((lcm * step, step))
        return self._lcms[n]

    def q_int(self, n: int) -> Fraction:
        """q-integer [n] = (1 - q**n) / (1 - q) = h_n b / b**n."""
        b = self.q.denominator
        return Fraction(self.h(n) * b, b**n)

    def gauss_row(self, n: int, stop: int) -> list[int]:
        """Integers G(n, j) = P_n / (P_j P_(n-j)) for 0 <= j < stop <= n + 1,
        with P_i = h_1 ... h_i; the Gaussian binomial is G(n, j) / b**(j(n-j)).

        Built by G(n, j) = G(n, j-1) * h_(n-j+1) // h_j, where every division
        is exact.  Rows are not kept: one costs O(stop) steps on small
        factors, while keeping every row up to n would hold O(n**4) bits.
        """
        if n < 0 or not 0 <= stop <= n + 1:
            raise ValueError(f"need n >= 0 and 0 <= stop <= n + 1, got n={n}, stop={stop}")
        row = [1]
        for j in range(1, stop):
            row.append(row[-1] * self.h(n - j + 1) // self.h(j))
        return row[:stop]

    def p_lcm(self, n: int) -> int:
        """L_n = lcm of h_k over 1 <= k <= n; L_0 = 1.  L_n / [k] =
        b**(k-1) L_n / h_k is an integer for every k <= n."""
        return self._lcm_row(n)[0]

    def p_lcm_step(self, n: int) -> int:
        """L_n / L_(n-1) for n >= 1 (see :meth:`p_lcm`), kept as L_n is
        built, so the callers that move a value from L_(n-1) to L_n share it
        without dividing."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return self._lcm_row(n)[1]
