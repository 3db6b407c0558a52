"""Index triples with separator slots and their expansion.

A :class:`Triple` bundles three strings of equal length: signed indices
``s``, nonnegative integer offsets ``t`` and shifts ``r``.  Between any two
adjacent slots a pattern leaves the separator unresolved; expanding the
pattern resolves every separator either to a comma (the slots stay distinct)
or to a merge (adjacent entries combine via oplus / + / boxplus).  A pattern
of length m therefore expands into 2**(m-1) concrete triples.

The expansion order is canonical: resolutions are enumerated by their set of
comma positions, ordered by subset size ascending and lexicographically
within each size.  The first triple is always the fully merged one and the
last is the pattern itself with every separator a comma.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .indices import (
    THETA,
    Shift,
    Theta,
    boxplus,
    boxplus_fold,
    is_int,
    oplus_fold,
    proj,
    shift_latex,
    shift_str,
    signed_string,
)


@dataclass(frozen=True)
class Triple:
    """Equal-length strings of signed indices, offsets and shifts."""

    s: tuple
    t: tuple
    r: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", signed_string(self.s))
        object.__setattr__(self, "t", tuple(self.t))
        object.__setattr__(self, "r", tuple(self.r))
        if not (len(self.s) == len(self.t) == len(self.r)):
            raise ValueError(
                f"component lengths differ: {len(self.s)}, {len(self.t)}, {len(self.r)}"
            )
        if len(self.s) == 0:
            raise ValueError("triple must have at least one slot")
        for t_j in self.t:
            if not is_int(t_j) or t_j < 0:
                raise ValueError(f"offsets must be nonnegative integers, got {t_j!r}")
        for r_j in self.r:
            if not (is_int(r_j) or isinstance(r_j, Theta)):
                raise ValueError(f"shifts must be integers or theta, got {r_j!r}")

    @property
    def depth(self) -> int:
        return len(self.s)

    @property
    def weight(self) -> int:
        return sum(e.magnitude for e in self.s)

    def __str__(self) -> str:
        s = ",".join(str(e) for e in self.s)
        t = ",".join(str(x) for x in self.t)
        r = ",".join(shift_str(x) for x in self.r)
        return f"[{s}; {t}; {r}]"

    def latex(self) -> str:
        s = ",".join(e.latex() for e in self.s)
        t = ",".join(str(x) for x in self.t)
        r = ",".join(shift_latex(x) for x in self.r)
        return f"[{s}; {t}; {r}]"


def _resolve(pattern: Triple, commas: tuple[int, ...]) -> Triple:
    """Resolve a pattern given the sorted positions of its comma separators.

    Separator i sits between slots i and i+1; positions not listed are
    merged.  Runs between consecutive commas fold left to right.
    """
    bounds = [0, *[c + 1 for c in commas], pattern.depth]
    s, t, r = [], [], []
    for lo, hi in zip(bounds, bounds[1:]):
        s.append(oplus_fold(pattern.s[lo:hi]))
        t.append(sum(pattern.t[lo:hi]))
        r.append(boxplus_fold(pattern.r[lo:hi]))
    return Triple(tuple(s), tuple(t), tuple(r))


# Deepest pattern :func:`expand` will list: 2**19 triples.  A deeper one
# would take minutes to hours and gigabytes of memory.
MAX_EXPAND_DEPTH = 20


def check_expand_depth(depth: int) -> None:
    """Raise ValueError, as :func:`expand` does, for a pattern of more than
    MAX_EXPAND_DEPTH slots."""
    if depth > MAX_EXPAND_DEPTH:
        raise ValueError(
            f"pattern depth {depth} exceeds {MAX_EXPAND_DEPTH}: its expansion "
            f"would have 2**{depth - 1} terms"
        )


def expand(pattern: Triple) -> list[Triple]:
    """All 2**(m-1) resolutions of a pattern, in canonical order.

    Raises ValueError, before building anything, when the pattern has more
    than MAX_EXPAND_DEPTH slots (:func:`check_expand_depth`).
    """
    check_expand_depth(pattern.depth)
    return list(iter_expansion(pattern))


def iter_expansion(pattern: Triple) -> Iterator[Triple]:
    positions = range(pattern.depth - 1)
    for size in range(pattern.depth):
        for commas in combinations(positions, size):
            yield _resolve(pattern, commas)


def is_admissible(triple: Triple) -> bool:
    """Whether every left-to-right partial fold of the shift string projects
    into {1, 2}.  Admissible triples have convergent mollified series, and
    admissibility survives expansion."""
    # theta is a two-sided identity, so seeding the fold with it is harmless
    acc: Shift = THETA
    for r_j in triple.r:
        acc = boxplus(acc, r_j)
        if proj(acc) not in (1, 2):
            return False
    return True
