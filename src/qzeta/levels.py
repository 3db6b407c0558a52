"""The level memo of the two exact engines of :mod:`~qzeta.evaluators`.

In the harmonic DP (``_mhs_rows``) and the run engine (``_inner_terms``) a
level's column, its cumulative at every index k <= n at that index's
scale, depends only on q, n and the slots from that level down.  The
compositions checked at one q and upper limit n share many suffixes, so
they share columns: over the benchmark's seed-1 finite-wide batch (40
checks at q = 1/2, n = 6) the run engine looks up 440 levels and sums
117, the harmonic DP 245 and 84.  :class:`Levels` holds one (q, n) at a
time, and a call at another (q, n) empties it.

Key.  A level's suffix is interned one level at a time as (id of the
suffix below it, the level's own slot), so a lookup costs one probe of a
constant-size key per level, 1,000 probes for a string of 1,000 entries.
The slot is 2 * magnitude + [barred] in the harmonic DP, whose descent is
in the id of the empty suffix, and (outermost, magnitude, sign, offset,
shift with theta as None, merge flag of the separator after it) in the
run engine, whose outermost level keeps inner[k] rather than a
cumulative.  The memo holds level columns only: both engines read their
q-level factors off the QContext, as a first sum does, since holding
those factors here cost more to look up and bound than it saved.

Admission.  A (q, n) is recorded from the second lookup of an engine (a
descent of the harmonic DP, or the run engine) at it on.  The first sum at
a (q, n) keeps no column, so a batch that never comes back to a (q, n),
one q per check as in the benchmark's finite-long workload, or one
command, pays for the memo only its lookups: the
"doorkeeper" of Einziger, Friedman and Manes, "TinyLFU: a highly efficient
cache admission policy" (ACM TOS 2017).  Keeping columns is not free: a
first sum that kept them ran 5-40 % slower.  Admitting a level only on its
suffix's second sum, the finer doorkeeper, left the seed-1 finite-wide
batch with 241 of its 440 run levels read instead of 323, and no faster
than without a memo.

Bound.  LEVEL_MEMO_BITS bounds the bits the memo holds, not its entries,
as a column takes a few hundred bytes at n = 6 and megabytes at n = 160.
An entry counts the bit length of its integer plus ENTRY_BITS for an
int's object and pointer, or four times ENTRY_BITS for a run entry's
(x, A, B) tuple and its three ints.  The seed-1 finite-wide batch leaves
its columns in about 870,000 bits.  The bits are counted when a column is
recorded: deepest first, a new column is recorded only if its own bits
fit beside those held, so the memo never holds more than the bound.  An
engine reads the room left once, at its lookup, and while it sums it
drops its shallowest kept column whenever the columns it keeps,
projected to n at their last entry's size, would not fit in that room
(see :class:`Kept`), so a column that could not be recorded is dropped
early.  Each side of a finite check (``verify_mhs`` sums both at once)
keeps at most the room it saw, so the two together may keep up to twice
that room in flight.  The memo itself holds at most 2**26 bits, 8 MiB,
counted as Python stores its objects, plus its dicts of keys.  The
allocator's slack around the integers kept through a sum comes on top
(see CHANGES.md for the peak RSS of full memos).

The memo is one store, written under one lock, so two threads may share
it; it reports itself through ``cache_info()`` and ``cache_clear()`` as
the package's lru_caches do.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import NamedTuple


LEVEL_MEMO_BITS = 2**26
ENTRY_BITS = 256
# ids of the empty suffix: the harmonic DP in strict and weak descent, and
# the run engine
STRICT_ROOT, WEAK_ROOT, RUN_ROOT = 0, 1, 2


class MemoInfo(NamedTuple):
    """What the level memo holds, in the shape of functools.lru_cache's
    cache_info(): levels read from it and levels summed, and the bits held
    against the bound LEVEL_MEMO_BITS."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _State:
    """What the level memo holds at one (q, n) (see :class:`Levels`)."""

    def __init__(self):
        self.hits = self.misses = self.generation = 0
        self.reset(None)

    def reset(self, at) -> None:
        self.at, self.generation = at, self.generation + 1
        self.nodes: dict = {}  # (id of the suffix below, level key) -> (id, column)
        self.visits: set = set()  # roots that have looked up at ``at``
        self.bits = 0


class Levels:
    """The level memo of the exact engines at one (q, n) (see the module
    docstring): one store, written under one lock, that reports itself as
    a bounded memo through :meth:`cache_info` and :meth:`cache_clear`.

    A lookup returns the columns of the longest memoized suffix of a
    string of levels and a generation; :meth:`record` writes only while
    that generation holds, so a column summed at one (q, n) never lands in
    the memo of another, and every level recorded chains onto a suffix
    already held: the suffixes held are closed under taking a shorter
    suffix.
    """

    _lock = threading.Lock()
    _ids = count(RUN_ROOT + 1)
    _state = _State()

    @classmethod
    def cache_info(cls) -> MemoInfo:
        state = cls._state
        with cls._lock:
            return MemoInfo(state.hits, state.misses, LEVEL_MEMO_BITS, state.bits)

    @classmethod
    def cache_clear(cls) -> None:
        state = cls._state
        with cls._lock:
            state.reset(None)
            state.hits = state.misses = 0

    @classmethod
    def lookup(cls, at: tuple, root: int, keys: list) -> tuple[int | None, int, list, int]:
        """(generation, id, columns, room) at ``at`` = (a, b, n), emptying
        the memo if it holds another: ``columns`` are those of the levels
        len(keys) - len(columns) .. len(keys) - 1, the longest suffix of
        ``keys`` held, ``id`` is that suffix's (``root`` when none), and
        ``room`` is the bits left below the bound.  The generation is None
        on the first lookup from ``root`` at ``at``: that sum records
        nothing."""
        state, node, found = cls._state, root, []
        with cls._lock:
            if state.at != at:
                state.reset(at)
            room = LEVEL_MEMO_BITS - state.bits
            if root not in state.visits:
                state.visits.add(root)
                state.misses += len(keys)
                return None, root, [], room
            nodes = state.nodes
            for key in reversed(keys):
                entry = nodes.get((node, key))
                if entry is None:
                    break
                node, column = entry
                found.append(column)
            state.hits += len(found)
            state.misses += len(keys) - len(found)
            return state.generation, node, found[::-1], room

    @classmethod
    def record(cls, generation: int, node: int, levels) -> None:
        """Record (key, column) for each (key, column, bits) of ``levels``,
        deepest first, above the suffix ``node``, while the generation
        holds: a column not held yet is recorded only if its ``bits`` fit
        beside those held, and the first that does not ends the record, so
        each level recorded chains onto one held."""
        state = cls._state
        with cls._lock:
            if generation != state.generation:
                return
            nodes = state.nodes
            for key, column, bits in levels:
                entry = nodes.get((node, key))
                if entry is None:
                    if state.bits + bits > LEVEL_MEMO_BITS:
                        return
                    state.bits += bits
                    entry = nodes[node, key] = next(cls._ids), column
                node = entry[0]


class Kept:
    """The columns of levels lo..top-1 that an engine sums at one (q, n),
    kept as one row per index while they fit, and recorded above the
    suffix ``node`` once the last index is kept.

    ``room`` is the bits the memo had left at the engine's lookup.  The
    shallowest kept level is dropped while the bits kept, projected over
    the indices still to come at the last row's size, exceed it, so that a
    column that could not be recorded is dropped early.  Nothing is kept
    at generation None, an engine's first sum at a (q, n).
    """

    def __init__(
        self, generation: int | None, node: int, keys: list, top: int, room: int, entry_bits: int
    ):
        self.generation, self.node, self.keys, self.top = generation, node, keys, top
        self.room = room
        self.entry_bits = entry_bits  # what an entry takes besides its integer's digits
        self.lo = top if generation is None else 0
        self.rows: list = []  # per index, the kept entries of levels lo..top-1
        self.ints: list = []  # per index, their integers
        self.held = 0

    def bits(self, ints) -> int:
        """The bits that entries with integers ``ints`` take in the memo."""
        return sum(map(int.bit_length, ints)) + self.entry_bits * len(ints)

    def add(self, rows: list, ints: list, left: int) -> None:
        """Keep one index's entries ``rows`` of levels lo..top-1, whose
        integers are ``ints``, with ``left`` indices to come."""
        self.rows.append(rows)
        self.ints.append(ints)
        size = self.bits(ints)
        self.held += size
        while self.held + left * size > self.room:
            self.held -= self.bits([row[0] for row in self.ints])
            size -= ints[self.lo - self.top].bit_length() + self.entry_bits
            self.rows = [row[1:] for row in self.rows]
            self.ints = [row[1:] for row in self.ints]
            self.lo += 1
        if not left:
            keys = self.keys[self.lo : self.top]
            columns = list(zip(keys, zip(*self.rows), map(self.bits, zip(*self.ints))))
            Levels.record(self.generation, self.node, reversed(columns))
