"""Identity compiler for weak-descent harmonic sums.

A composition (string of positive integers) determines a global sign and a
mollifier pattern whose expansion gives an exact identity

    H*_n[composition] = sign * sum over expand(pattern) of mollified sums,

valid at every n.  This module builds that pattern three ways:

* :func:`compose`: the general construction.  The composition is tokenized
  left to right into maximal-run blocks (a run of 2's followed by a run of
  1's, a run of 2's followed by one entry >= 3, or a trailing run of 2's);
  the rightmost block provides a base pattern (:func:`base_state`) and the
  remaining blocks are attached right to left, each as :func:`attach`
  would, onto lists of slots, so the pattern is built once, in time
  linear in its depth.
* :func:`attach`: one attaching step.  Each block kind puts fixed slots in
  front of the current pattern and merges one increment into its head
  slot; the sign never changes.  compose, attach and base_state read one
  rule table (``_parts``), which states each block kind's slots once.
* :func:`closed_pattern`: direct closed forms for recurring composition
  shapes (named by their shape, e.g. "2c21" for repeated twos-c-twos-one
  groups), used to cross-check compose.

:func:`classical_expand` projects the same data to the q -> 1 shadow: each
resolution of the index string alone becomes a term with coefficient
2**depth and the global sign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .expansion import Triple, expand
from .indices import THETA, SignedIndex, bar, boxplus, idx, is_int, oplus

Composition = tuple[int, ...]


# Most entries a parsed composition or signed string may have, counted
# before the list is built: a repetition count like 2^(10**20) would
# otherwise die in the list allocation.  Far above the inputs the checks
# finish on: the finite check of 2^1100 takes about 2 s.
MAX_PARSED_ENTRIES = 10**6


def parse_repeated(text: str, parse_entry: Callable[[str], object], noun: str) -> tuple:
    """Parse a comma list of entries, each read by parse_entry, where
    "e^n" repeats an entry n times.

    Raises ValueError for an empty entry, a repetition count that is not a
    nonnegative integer, more than MAX_PARSED_ENTRIES entries in all
    (counted before the list is built) or no entries at all.
    """
    entries: list = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"empty entry in {noun} {text!r}")
        base, sep, rep_text = token.partition("^")
        entry = parse_entry(base)
        try:
            rep = int(rep_text) if sep else 1
        except ValueError:
            raise ValueError(f"cannot parse repetition in {token!r}") from None
        if rep < 0:
            raise ValueError(f"repetition count must be nonnegative in {token!r}")
        if len(entries) + rep > MAX_PARSED_ENTRIES:
            raise ValueError(f"{text[:40]!r} has more than {MAX_PARSED_ENTRIES} entries")
        entries.extend([entry] * rep)
    if not entries:
        raise ValueError(f"{noun} {text!r} has no entries")
    return tuple(entries)


def _composition_entry(text: str) -> int:
    try:
        e = int(text)
    except ValueError:
        raise ValueError(f"cannot parse composition entry {text.strip()!r}") from None
    if e < 1:
        raise ValueError(f"composition entries must be positive, got {e}")
    return e


def parse_composition(text: str) -> Composition:
    """Parse "2,1,3" style strings; "2^3" repeats an entry three times.

    Raises ValueError for more than MAX_PARSED_ENTRIES entries in all.
    """
    return parse_repeated(text, _composition_entry, "composition")


def as_composition(composition: Sequence[int]) -> Composition:
    """composition as a nonempty tuple of ints >= 1, the one reader of a
    composition's entries: ValueError names the first entry that is a bool,
    not an int, or below 1."""
    comp = tuple(composition)
    if not comp:
        raise ValueError("composition must be nonempty")
    for e in comp:
        if not is_int(e) or e < 1:
            raise ValueError(f"composition entries must be positive integers, got {e!r}")
    return comp


def zeta_admissible(composition: Sequence[int]) -> bool:
    """Whether the infinite-sum identities apply (leading entry >= 2)."""
    return bool(composition) and composition[0] >= 2


def zeta_composition(composition: Sequence[int]) -> Composition:
    """composition read by :func:`as_composition`, refused unless it is
    :func:`zeta_admissible`."""
    comp = as_composition(composition)
    if not zeta_admissible(comp):
        raise ValueError(f"composition {comp} needs a leading entry >= 2")
    return comp


@dataclass(frozen=True)
class TwosOnes:
    """Block ({2}^a, {1}^l)."""

    a: int
    l: int

    def __post_init__(self) -> None:
        if self.a < 0 or self.l < 1:
            raise ValueError(f"need a >= 0 and l >= 1, got a={self.a}, l={self.l}")

    def entries(self) -> Composition:
        return (2,) * self.a + (1,) * self.l


@dataclass(frozen=True)
class TwosC:
    """Block ({2}^b, c) with c >= 3."""

    b: int
    c: int

    def __post_init__(self) -> None:
        if self.b < 0 or self.c < 3:
            raise ValueError(f"need b >= 0 and c >= 3, got b={self.b}, c={self.c}")

    def entries(self) -> Composition:
        return (2,) * self.b + (self.c,)


@dataclass(frozen=True)
class Twos:
    """Trailing block ({2}^a)."""

    a: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"need a >= 0, got a={self.a}")

    def entries(self) -> Composition:
        return (2,) * self.a


Block = Union[TwosOnes, TwosC, Twos]


def tokenize(composition: Sequence[int]) -> list[Block]:
    """Canonical left-to-right peel into maximal-run blocks."""
    comp = as_composition(composition)
    blocks: list[Block] = []
    i = 0
    while i < len(comp):
        a = 0
        while i < len(comp) and comp[i] == 2:
            a += 1
            i += 1
        if i == len(comp):
            blocks.append(Twos(a))
        elif comp[i] == 1:
            l = 0
            while i < len(comp) and comp[i] == 1:
                l += 1
                i += 1
            blocks.append(TwosOnes(a, l))
        else:
            blocks.append(TwosC(a, comp[i]))
            i += 1
    return blocks


class Compiled(NamedTuple):
    """Global sign together with the mollifier pattern it applies to."""

    delta: int
    pattern: Triple


# Entries the rule table repeats, made once: a SignedIndex is immutable.
_ZERO, _ONE, _BAR_ZERO, _BAR_ONE = idx(0), idx(1), bar(0), bar(1)


def _parts(block: Block) -> tuple[tuple, tuple, tuple, tuple]:
    """The rule of one block kind, stated once: the s, t and r slots the
    block puts in front of a pattern, and the increment (S, T, R) that turns
    the pattern's head slot (s0, t0, r0) into (s0 (+) S, t0 + T, r0 [+] R).
    theta and idx(0) are identities: a Twos block puts no slot in front and
    leaves the head's r as it is, and a TwosOnes block leaves the head's s."""
    if isinstance(block, Twos):
        return (), (), (), (idx(2 * block.a), block.a, THETA)
    if isinstance(block, TwosOnes):
        a, l = block.a, block.l
        return (
            (idx(2 * a + 1),) + (_ONE,) * (l - 1),
            (a + 1,) + (1,) * (l - 1),
            (2,) + (0,) * (l - 1),
            (_ZERO, 0, -2),
        )
    if isinstance(block, TwosC):
        b, c = block.b, block.c
        return (
            (bar(2 * b + 2),) + (_ONE,) * (c - 3),
            (b + 1,) + (0,) * (c - 3),
            (1,) + (THETA,) * (c - 3),
            (_BAR_ONE, 0, -1),
        )
    raise TypeError(f"unknown block {block!r}")


def _attach_all(
    blocks: Sequence[Block], delta: int, s: Sequence, t: Sequence, r: Sequence
) -> Compiled:
    """Attach blocks right to left in front of the pattern (s; t; r) and
    build the one Triple.  The pattern is held as lists, rightmost slot
    first, so each block pops and pushes only at the list ends."""
    s, t, r = list(reversed(s)), list(reversed(t)), list(reversed(r))
    for block in reversed(blocks):
        front_s, front_t, front_r, (S, T, R) = _parts(block)
        s[-1], t[-1], r[-1] = oplus(s[-1], S), t[-1] + T, boxplus(r[-1], R)
        s += reversed(front_s)
        t += reversed(front_t)
        r += reversed(front_r)
    return Compiled(delta, Triple(s[::-1], t[::-1], r[::-1]))


def _compile(blocks: Sequence[Block]) -> Compiled:
    """Sign and pattern of blocks, the last one rightmost.  A rightmost
    TwosOnes block is its front slots with sign +1; any other rightmost
    block attaches to the pattern of -1, (bar(0); 0; 1) (that is
    ``verify.inverse_power_pattern(0)``), with sign -1."""
    *rest, last = blocks
    if isinstance(last, TwosOnes):
        s, t, r, _ = _parts(last)
        return _attach_all(rest, 1, s, t, r)
    if isinstance(last, Twos) and last.a < 1:
        raise ValueError("a trailing run of 2's must be nonempty")
    return _attach_all(blocks, -1, (_BAR_ZERO,), (0,), (1,))


def base_state(block: Block) -> Compiled:
    """Pattern of the rightmost block of a composition: a TwosOnes block's
    front slots with sign +1, or the block attached to the pattern of -1
    with sign -1 (:func:`_compile`)."""
    return _compile([block])


def attach(block: Block, state: Compiled) -> Compiled:
    """Attach a block to the front of an existing pattern: the block's front
    slots, then the pattern's head slot merged with the block's increment,
    then the rest of the pattern (:func:`_parts`).  The sign is never
    changed."""
    d, pat = state
    return _attach_all([block], d, pat.s, pat.t, pat.r)


def compose(composition: Sequence[int]) -> Compiled:
    """Sign and pattern for an arbitrary composition: the fold of
    :func:`attach`, right to left from :func:`base_state` of the last
    block, over :func:`tokenize`'s blocks.  It keeps the slots as lists and
    builds one Triple, so it takes time linear in the pattern depth."""
    return _compile(tokenize(composition))


class ClassicalTerm(NamedTuple):
    """One term of the q -> 1 expansion: sign * coefficient * zeta(index)."""

    sign: int
    coefficient: int
    index: tuple


def classical_expand(composition: Sequence[int]) -> list[ClassicalTerm]:
    """Limit expansion of a weak-descent zeta value into strict signed terms.

    Each of the 2**(m-1) resolutions of the pattern's index string gives one
    term with coefficient 2**depth; the offsets and shifts drop out in the
    limit.  Requires a leading entry >= 2 so that every emitted series
    converges.
    """
    comp = zeta_composition(composition)
    d, pattern = compose(comp)
    return [ClassicalTerm(d, 2 ** triple.depth, triple.s) for triple in expand(pattern)]


def _check_lengths(name: str, ell: int, *seqs: Sequence[int]) -> None:
    for seq in seqs:
        if len(seq) != ell:
            raise ValueError(f"{name}: parameter lists must all have length {ell}")


def closed_twos(a: int) -> tuple[Composition, Compiled]:
    """({2}^a) with a >= 1."""
    if a < 1:
        raise ValueError("need a >= 1")
    return (2,) * a, Compiled(-1, Triple((bar(2 * a),), (a,), (1,)))


def closed_twos_ones(a: int, l: int) -> tuple[Composition, Compiled]:
    """({2}^a, {1}^l) with l >= 1."""
    block = TwosOnes(a, l)
    return block.entries(), base_state(block)


def closed_c_ones(c: int, l: int) -> tuple[Composition, Compiled]:
    """(c, {1}^l) with c >= 3, l >= 1."""
    if c < 3 or l < 1:
        raise ValueError(f"need c >= 3 and l >= 1, got c={c}, l={l}")
    comp = (c,) + (1,) * l
    s = (bar(2),) + (idx(1),) * (c - 3) + (bar(2),) + (idx(1),) * (l - 1)
    t = (1,) + (0,) * (c - 3) + (1,) * l
    r = (1,) + (THETA,) * (c - 3) + (1,) + (0,) * (l - 1)
    return comp, Compiled(1, Triple(s, t, r))


def closed_2c2(a_values: Sequence[int], c_values: Sequence[int]) -> tuple[Composition, Compiled]:
    """({2}^{a_1}, c_1, ..., {2}^{a_l}, c_l, {2}^{a_{l+1}}).

    a_values has one more entry than c_values; with no c's at all this is
    the plain trailing-twos base and needs a_1 >= 1.
    """
    ell = len(c_values)
    if len(a_values) != ell + 1:
        raise ValueError("2c2: need one more run length than c entries")
    if any(a < 0 for a in a_values) or any(c < 3 for c in c_values):
        raise ValueError("2c2: need runs >= 0 and c entries >= 3")
    if ell == 0:
        return closed_twos(a_values[0])
    comp: tuple[int, ...] = ()
    for a, c in zip(a_values, c_values):
        comp += (2,) * a + (c,)
    comp += (2,) * a_values[-1]

    s: list[SignedIndex] = [bar(2 * a_values[0] + 2)] + [idx(1)] * (c_values[0] - 3)
    t: list[int] = [a_values[0] + 1] + [0] * (c_values[0] - 3)
    for j in range(1, ell):
        s += [idx(2 * a_values[j] + 3)] + [idx(1)] * (c_values[j] - 3)
        t += [a_values[j] + 1] + [0] * (c_values[j] - 3)
    s.append(idx(2 * a_values[-1] + 1))
    t.append(a_values[-1])
    r: list = [1]
    for c in c_values:
        r += [THETA] * (c - 2)
    return comp, Compiled(-1, Triple(tuple(s), tuple(t), tuple(r)))


def _group_body(
    b_values: Sequence[int], c_values: Sequence[int], a_values: Sequence[int]
) -> tuple[Composition, list, list, list]:
    """Shared ({2}^{b_j}, c_j, {2}^{a_j}, 1)-group data for the 2c21 shapes.

    Returns the composition together with the s and t slot lists and the
    per-group r tail [-1, theta^(c_j - 3), 1] (the leading group's -1 is
    adjusted by the callers)."""
    comp: tuple[int, ...] = ()
    s: list = []
    t: list = []
    r: list = []
    for b, c, a in zip(b_values, c_values, a_values):
        comp += (2,) * b + (c,) + (2,) * a + (1,)
        s += [bar(2 * b + 2)] + [idx(1)] * (c - 3) + [bar(2 * a + 2)]
        t += [b + 1] + [0] * (c - 3) + [a + 1]
        r += [-1] + [THETA] * (c - 3) + [1]
    return comp, s, t, r


def closed_2c21(
    b_values: Sequence[int], c_values: Sequence[int], a_values: Sequence[int]
) -> tuple[Composition, Compiled]:
    """({2}^{b_1}, c_1, {2}^{a_1}, 1, ..., {2}^{b_l}, c_l, {2}^{a_l}, 1), l >= 1."""
    ell = len(c_values)
    if ell < 1:
        raise ValueError("2c21: need at least one group")
    _check_lengths("2c21", ell, b_values, a_values)
    comp, s, t, r = _group_body(b_values, c_values, a_values)
    r[0] = 1
    return comp, Compiled(1, Triple(tuple(s), tuple(t), tuple(r)))


def closed_212c21(
    a0: int, b_values: Sequence[int], c_values: Sequence[int], a_values: Sequence[int]
) -> tuple[Composition, Compiled]:
    """({2}^{a_0}, 1, {2}^{b_1}, c_1, {2}^{a_1}, 1, ...), any number of groups."""
    ell = len(c_values)
    _check_lengths("212c21", ell, b_values, a_values)
    if a0 < 0:
        raise ValueError("212c21: need a0 >= 0")
    comp, s, t, r = _group_body(b_values, c_values, a_values)
    comp = (2,) * a0 + (1,) + comp
    s = [idx(2 * a0 + 1)] + s
    t = [a0 + 1] + t
    r = [2] + r
    return comp, Compiled(1, Triple(tuple(s), tuple(t), tuple(r)))


def _trailing_twos(
    comp: Composition, compiled: Compiled, a_last: int
) -> tuple[Composition, Compiled]:
    """Append a trailing ({2}^{a_last}) block: one more barred slot with
    shift -1, and the sign becomes -1."""
    pat = compiled.pattern
    pattern = Triple(pat.s + (bar(2 * a_last),), pat.t + (a_last,), pat.r + (-1,))
    return comp + (2,) * a_last, Compiled(-1, pattern)


def closed_2c212(
    b_values: Sequence[int],
    c_values: Sequence[int],
    a_values: Sequence[int],
    a_last: int,
) -> tuple[Composition, Compiled]:
    """2c21 groups followed by a trailing ({2}^{a_last}), a_last >= 1."""
    if a_last < 1:
        raise ValueError("2c212: need a trailing run with a_last >= 1")
    return _trailing_twos(*closed_2c21(b_values, c_values, a_values), a_last)


def closed_212c212(
    a0: int,
    b_values: Sequence[int],
    c_values: Sequence[int],
    a_values: Sequence[int],
    a_last: int,
) -> tuple[Composition, Compiled]:
    """Leading ({2}^{a_0}, 1), any number of 2c21 groups, trailing ({2}^{a_last})."""
    if a_last < 1:
        raise ValueError("212c212: need a trailing run with a_last >= 1")
    return _trailing_twos(*closed_212c21(a0, b_values, c_values, a_values), a_last)


CLOSED_FAMILIES = {
    "twos": closed_twos,
    "twos-ones": closed_twos_ones,
    "c-ones": closed_c_ones,
    "2c2": closed_2c2,
    "2c21": closed_2c21,
    "212c21": closed_212c21,
    "2c212": closed_2c212,
    "212c212": closed_212c212,
}


def closed_pattern(family: str, *args, **kwargs) -> tuple[Composition, Compiled]:
    """Closed-form pattern of a named composition shape."""
    try:
        builder = CLOSED_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(CLOSED_FAMILIES))
        raise ValueError(f"unknown family {family!r} (known: {known})") from None
    return builder(*args, **kwargs)
