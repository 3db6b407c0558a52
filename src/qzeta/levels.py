"""The level memo of the run engine of :mod:`~qzeta.evaluators` and of
the two q-series balls.

In the run engine (``_inner_terms``) a level's column, its cumulative at
every index k <= n at that index's scale, depends only on q, n and the
slots from that level down.  The compositions checked at one q and upper
limit n share many suffixes, so they share columns.  The harmonic DP
(``_mhs_rows``) keeps no level: summing one again costs it little, and
keeping them made it no faster and held memory that the bound below does
not count.

The left ball of a q-series check (``q_zeta_enclosure``) is the harmonic
sum swept as a ball at a truncation K and binary point 2**-prec, and its
level i >= 1 depends only on q, K, prec, the descent and the entries from
i down.  A ball level is (xs, es, c, top): K midpoints and K radii, and
the binary point and bound its readers need.  The ball itself, level 0,
is not held.

The right ball (``frakz_enclosure``) sums m(m+1)/2 folded runs, and a
run [i, j)'s floored column depends only on q and (K, s, P_j, beta,
j == m, c): P_j the projection of the fold of the shifts before slot j,
which damps level j, and c its binary point; no key holds the run's own
quadratic exponent.  Its columns are held under that tuple, so columns of
every K and binary point share one dict; its levels 1..m-1 are not held.

Roots.  Levels hang from four roots: the run engine (RUN_ROOT), the left
ball in strict and weak descent (STRICT_ROOT, WEAK_ROOT), and the right
ball's columns (COLUMN_ROOT).  Each root holds one dict at one ``at``:
(a, b, n) for the run engine, (a, b, K, prec) for a left ball and (a, b)
for the right columns, with q = a/b.  A call at another ``at`` gives that
root a new dict and leaves the other roots alone, so checks that
alternate between a finite and a q-series check at one q read levels on
both sides.

Key.  A run-engine or left-ball level is held under its suffix, the tuple
of its slot keys from itself down, and a right-ball column under its key
above.  The slot key is (outermost, magnitude, sign, offset, shift with
theta as None, merge flag of the separator after it) in the run engine,
whose outermost level keeps inner[k] rather than a cumulative, and
2 * magnitude + [barred] in the left ball, whose descent is its root.
:func:`held_suffix` builds the suffix tuples of a string once and reads
the columns of the longest suffix held, probing from the deepest level
and stopping at the first one missing, so no level is read unless every
level below it is.  The memo holds level columns only: the run engine
reads its q-level factors off the QContext, as a first sum does.

Store.  A caller takes its root's dict in one locked call
(:meth:`Levels.store`) and reads it without the lock: entries are only
ever added to a dict, under the lock, and a root at another ``at`` gets a
new dict, so a reader sees an add-only dict of its own ``at``, and a key,
a whole suffix or a column's whole key, finds a column of that ``at``
whole, or none.  After summing, the caller counts its hits and misses and
writes what it summed in one locked call (:meth:`Levels.hold`).

Admission.  A root records at an ``at`` from its second call there on.
The first sum at an ``at`` keeps no column, so a batch that never comes
back to one, or one command, pays for the memo only its lookups: the
"doorkeeper" of Einziger, Friedman and Manes, "TinyLFU: a highly efficient
cache admission policy" (ACM TOS 2017).

Bound.  LEVEL_MEMO_BITS bounds the bits the memo holds, over all roots
together, not its entries, as a column takes a few hundred bytes at n = 6
and megabytes at n = 160.  One function, :func:`charge`, counts every
column: a run entry (x, A, B) the bit length of x plus four times
ENTRY_BITS for the tuple and its three ints, and a ball's int its bit
length plus ENTRY_BITS for its object and pointer.  The bits are counted
when a column is written: a write adds the caller's columns in the
caller's order, each new one only if its bits fit beside those held, and
ends at the first that does not.  A run engine or left ball passes its
suffix deepest first, so no level is held behind a missing deeper one.
The run engine reads the room left once, with its dict, drops its
shallowest kept column whenever the columns it keeps exceed that room,
and writes those left with its last row, so it never keeps more than it
could write then.  The memo holds at most 2**26 bits, 8 MiB, counted as
Python stores its objects, plus its dicts of keys; the allocator's slack
around the integers kept through a sum comes on top.

The memo is one store, written under one lock, so threads may share it;
it reports itself through ``cache_info()`` and ``cache_clear()`` as the
package's lru_caches do, a level or column read counted as a hit and one
summed or built as a miss.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Sequence


LEVEL_MEMO_BITS = 2**26
ENTRY_BITS = 256
# the roots: the left q-series ball in strict and weak descent, the run
# engine and the right ball's columns
STRICT_ROOT, WEAK_ROOT, RUN_ROOT, COLUMN_ROOT = range(4)


def charge(entries) -> int:
    """The bits that a column's ``entries`` take in the memo: an int its
    bit length plus ENTRY_BITS for its object and pointer, and a run
    engine's (x, A, B) the bit length of x plus 4 * ENTRY_BITS for the
    tuple and its three ints."""
    if entries and type(entries[0]) is tuple:
        return sum(entry[0].bit_length() for entry in entries) + 4 * ENTRY_BITS * len(entries)
    return sum(map(int.bit_length, entries)) + ENTRY_BITS * len(entries)


def held_suffix(held: dict, keys: Sequence) -> tuple[list, list]:
    """(suffixes, columns) of a string of levels with slot keys ``keys``:
    suffixes[i] = tuple(keys[i:]) is level i's key, and ``columns`` are
    those of levels len(keys) - len(columns) .. len(keys) - 1, the longest
    suffix that ``held`` holds, probed from the deepest level and stopped
    at the first that it does not hold."""
    string = tuple(keys)
    suffixes = [string[i:] for i in range(len(string))]
    columns = []
    for suffix in reversed(suffixes):
        column = held.get(suffix)
        if column is None:
            break
        columns.append(column)
    return suffixes, columns[::-1]


class MemoInfo(NamedTuple):
    """What the level memo holds, in the shape of functools.lru_cache's
    cache_info(): levels read from it and levels summed, and the bits held
    against the bound LEVEL_MEMO_BITS."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _State:
    """One root's dict at one ``at`` (see :class:`Levels`).  A root at
    another ``at`` gets a new state, so a state's dict is only ever added
    to: the state is the generation that a write must find still held."""

    def __init__(self, root: int, at):
        self.root, self.at = root, at
        self.held: dict = {}
        self.bits = 0


class Levels:
    """The level memo of the run engine and the q-series balls, one dict
    per root (see the module docstring): one store, written under one
    lock, that reports itself as a bounded memo through :meth:`cache_info`
    and :meth:`cache_clear`.  A caller reads through :meth:`store` and
    writes through :meth:`hold`."""

    _lock = threading.Lock()
    _states: dict = {}  # root -> _State
    _bits = _hits = _misses = 0  # _bits: held over every root

    @classmethod
    def cache_info(cls) -> MemoInfo:
        with cls._lock:
            return MemoInfo(cls._hits, cls._misses, LEVEL_MEMO_BITS, cls._bits)

    @classmethod
    def cache_clear(cls) -> None:
        with cls._lock:
            cls._states = {}
            cls._bits = cls._hits = cls._misses = 0

    @classmethod
    def store(cls, at: tuple, root: int) -> tuple[_State | None, dict, int]:
        """(generation, held, room) of ``root`` at ``at``, giving the root a
        new dict if it holds another ``at``: ``held`` is the root's own
        dict, which may be read without the lock, as entries are only ever
        added to it, and ``room`` is the bits left below the bound.  The
        generation is None on the first call from ``root`` at ``at``: that
        caller writes nothing."""
        with cls._lock:
            state = cls._states.get(root)
            if state is not None and state.at == at:
                return state, state.held, LEVEL_MEMO_BITS - cls._bits
            if state is not None:
                cls._bits -= state.bits
            state = cls._states[root] = _State(root, at)
            return None, state.held, LEVEL_MEMO_BITS - cls._bits

    @classmethod
    def hold(cls, generation: _State | None, levels, hits: int, misses: int) -> None:
        """Count ``hits`` levels read and ``misses`` summed, and, while the
        generation holds, add (key, column) for each (key, column, bits) of
        ``levels`` in their order: a key not held yet only if its ``bits``
        fit beside those held, the first that does not ending the write, so
        a suffix passed deepest first leaves no level held behind a missing
        deeper one."""
        with cls._lock:
            cls._hits += hits
            cls._misses += misses
            if generation is None or cls._states.get(generation.root) is not generation:
                return
            held = generation.held
            for key, column, bits in levels:
                if key not in held:
                    if cls._bits + bits > LEVEL_MEMO_BITS:
                        return
                    cls._bits += bits
                    generation.bits += bits
                    held[key] = column
