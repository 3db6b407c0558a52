"""Signed indices, extended shifts and their merge operations.

Two small alphabets underpin everything else in this package:

* signed indices: nonnegative integers with a sign marker, where ``3`` and
  ``-3`` are distinct symbols of equal magnitude and ``-0`` is distinct
  from ``0``.  They merge with :func:`oplus` (magnitudes add, signs
  multiply).
* shifts: integers extended by a neutral symbol ``theta``.  They merge with
  :func:`boxplus`, which is ordinary addition away from the two exceptional
  pairs ``(1, -1)`` and ``(-1, 1)`` and therefore is not associative.  All
  multi-way merges in this package fold strictly left to right.

A shift ``r`` contributes the quadratic exponent :func:`quad_exponent`
``(r, k)`` to the k-th term of a mollified sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence, Union


@dataclass(frozen=True)
class SignedIndex:
    """A nonnegative magnitude with a sign marker; -0 and 0 are distinct."""

    magnitude: int
    sign: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.magnitude, int) or self.magnitude < 0:
            raise ValueError(f"magnitude must be a nonnegative integer, got {self.magnitude!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")

    @classmethod
    def parse(cls, text: str) -> "SignedIndex":
        text = text.strip()
        if not text:
            raise ValueError("empty signed index")
        negative = text.startswith("-")
        body = text[1:] if negative else text
        if not body.isdigit():
            raise ValueError(f"cannot parse signed index {text!r}")
        return cls(int(body), -1 if negative else 1)

    def __str__(self) -> str:
        return f"-{self.magnitude}" if self.sign < 0 else str(self.magnitude)

    def latex(self) -> str:
        if self.sign < 0:
            return rf"\overline{{{self.magnitude}}}"
        return str(self.magnitude)


def idx(magnitude: int) -> SignedIndex:
    """Unsigned index of the given magnitude."""
    return SignedIndex(magnitude, 1)


def bar(magnitude: int) -> SignedIndex:
    """Barred (sign -1) index of the given magnitude."""
    return SignedIndex(magnitude, -1)


def signed_string(entries: Iterable) -> tuple:
    """Coerce plain ints (sign carried by the Python sign) to SignedIndex."""
    out = []
    for e in entries:
        if isinstance(e, SignedIndex):
            out.append(e)
        elif isinstance(e, int):
            # plain ints cannot express -0; use SignedIndex directly for that
            out.append(SignedIndex(abs(e), -1 if e < 0 else 1))
        else:
            raise TypeError(f"cannot interpret {e!r} as a signed index")
    return tuple(out)


def oplus(a: SignedIndex, b: SignedIndex) -> SignedIndex:
    """Merge two signed indices: magnitudes add, signs multiply."""
    return SignedIndex(a.magnitude + b.magnitude, a.sign * b.sign)


def oplus_fold(items: Sequence[SignedIndex]) -> SignedIndex:
    if not items:
        raise ValueError("cannot fold an empty run of signed indices")
    return reduce(oplus, items)


@dataclass(frozen=True)
class Theta:
    """Neutral shift symbol."""

    def __str__(self) -> str:
        return "theta"

    def __repr__(self) -> str:
        return "THETA"


THETA = Theta()

Shift = Union[int, Theta]


def parse_shift(text: str) -> Shift:
    text = text.strip()
    if text in ("theta", "t", "*"):
        return THETA
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"cannot parse shift {text!r}") from None


def shift_str(r: Shift) -> str:
    return "theta" if isinstance(r, Theta) else str(r)


def shift_latex(r: Shift) -> str:
    return r"\theta" if isinstance(r, Theta) else str(r)


def boxplus(a: Shift, b: Shift) -> Shift:
    """Merge two shifts.

    theta is the identity.  The pair (1, -1) merges to theta while (-1, 1)
    merges to 0; every other integer pair adds.  Consequently the operation
    is not associative and multi-way merges must fold left to right
    (see :func:`boxplus_fold`).
    """
    if isinstance(a, Theta):
        return b
    if isinstance(b, Theta):
        return a
    if a == 1 and b == -1:
        return THETA
    return a + b


def boxplus_fold(items: Sequence[Shift]) -> Shift:
    """Left-to-right fold of a nonempty run of shifts."""
    if not items:
        raise ValueError("cannot fold an empty run of shifts")
    acc = items[0]
    for x in items[1:]:
        acc = boxplus(acc, x)
    return acc


def proj(r: Shift) -> int:
    """Integer projection: theta maps to 0, integers map to themselves."""
    return 0 if isinstance(r, Theta) else r


def quad_exponent(r: Shift, k: int) -> int:
    """Quadratic exponent contributed by shift r at index k >= 1.

    Positive r contributes r*k*(k-1)/2, nonpositive integer r additionally
    subtracts k, and theta contributes nothing.
    """
    if k < 1:
        raise ValueError(f"index must be >= 1, got {k}")
    if isinstance(r, Theta):
        return 0
    half = k * (k - 1) // 2
    if r > 0:
        return r * half
    return r * half - k


def delta(composition: Sequence[int]) -> int:
    """Global sign of the expansion of a composition: +1 iff it ends in 1."""
    if not composition:
        raise ValueError("delta is undefined for the empty composition")
    return 1 if composition[-1] == 1 else -1
