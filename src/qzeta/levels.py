"""The level memo of the run engine of :mod:`~qzeta.evaluators` and of
the two q-series balls.

In the run engine (``_inner_terms``) a level's column, its cumulative at
every index k <= n at that index's scale, depends only on q, n and the
slots from that level down.  The compositions checked at one q and upper
limit n share many suffixes, so they share columns: over the benchmark's
seed-1 finite-wide batch (40 checks at q = 1/2, n = 6) the run engine
looks up 440 levels and reads 323 of them.  The harmonic DP
(``_mhs_rows``) keeps no level: a level costs it about 3 microseconds to
sum again at n = 6, and when it kept them it read back 161 of its 245
over that batch, ran no faster, and left a battery of three
``verify_mhs((2,)*1000, n_max=20)`` calls with a peak RSS of 51.8 MB
instead of 40.1 MB.

Roots.  A string of levels hangs from a root, the id of its empty suffix:
the run engine (RUN_ROOT), the left ball in strict and weak descent
(STRICT_ROOT, WEAK_ROOT), and the right ball's columns (COLUMN_ROOT).
Each root keeps its own state: the ``at`` it holds, (a, b, n) for the run
engine, its nodes, its admission and its generation.  A lookup at another
``at`` empties that root's state alone, so checks that alternate between
a finite and a q-series check at one q read levels on both sides; with
one ``at`` held for all roots they read none.

The left ball of a q-series check (``q_zeta_enclosure``) is the harmonic
sum swept as a ball at a truncation K and binary point 2**-prec, and its
level i >= 1 depends only on q, K, prec, the descent and the entries from
i down.  It is held at (a, b, K, prec), under the root of its descent.  A
ball level is (xs, es, c, top): K midpoints and K radii, and the binary
point and bound its readers need; it is charged the bit length of every
int of xs and es plus ENTRY_BITS for each, about 69,000 bits at q = 1/2
and the check's eps = 1e-25 (K = 86 at each side's eps / 4, prec = 300).
Every check of the benchmark's seed-1 q-series batch (105 checks at
q = 1/2) has that K and prec, and the balls read 379 of the 566 levels
they look up.  The ball itself, level 0, is not held.  Toward q -> 1 the
left K grows with the depth, so a batch that mixes depths there changes
(a, b, K, prec) from check to check and keeps nothing.

The right ball (``frakz_enclosure``) sums m(m+1)/2 folded runs, and a
run [i, j)'s floored column depends only on q and (K, s, P_j, beta,
j == m, c): P_j the projection of the fold of the shifts before slot j,
which damps level j, and c its binary point; no key holds the run's own
quadratic exponent.  The columns are held at (a, b) under COLUMN_ROOT,
keyed by that tuple, so columns of every K and binary point share one
state.  A column is charged its ints' bit lengths plus ENTRY_BITS each,
6,500 to 10,200 bits in the seed-1 q-series batch (K 15 to 18, c 320),
whose right balls read 513 of the 665 columns they look up and build
152, of 149 distinct ones.  A ball takes the dict of held columns in one
locked call (:meth:`Levels.columns`) and reads it without the lock:
entries are only ever added to it, under the lock, and a state at another
``at`` gets a dict of its own, so a read finds a column of its own ``at``
or none.  It records the columns it built after its sweep
(:meth:`Levels.hold`).  A locked lookup per run instead, 665 per batch,
kept none to 4 % of the benchmark's qseries wall_s, against about 6 % for
one call per ball.
The right ball's levels 1..m-1 are not held: a prototype that held them
by suffix in a dict read 94 of the 210 levels looked up, and the batch
ran about 1 % slower in-process.

Key.  A level's suffix is interned one level at a time as (id of the
suffix below it, the level's own slot), so a lookup costs one probe of a
constant-size key per level, 1,000 probes for a string of 1,000 entries.
The slot is (outermost, magnitude, sign, offset, shift with theta as
None, merge flag of the separator after it) in the run engine, whose
outermost level keeps inner[k] rather than a cumulative, and
2 * magnitude + [barred] in the left ball, whose descent is in the id of
the empty suffix.  The memo holds level columns only: the run engine
reads its q-level factors off the QContext, as a first sum does, since
holding those factors here cost more to look up and bound than it saved.

Admission.  A root records at a (q, n) from its second lookup there on.
The first sum at a (q, n) keeps no column, so a batch that never comes
back to a (q, n), one q per check as in the benchmark's finite-long
workload, or one command, pays for the memo only its lookups: the
"doorkeeper" of Einziger, Friedman and Manes, "TinyLFU: a highly efficient
cache admission policy" (ACM TOS 2017).  Keeping columns is not free: a
first sum that kept them ran 5-40 % slower.  Admitting a level only on its
suffix's second sum, the finer doorkeeper, left the seed-1 finite-wide
batch with 241 of its 440 run levels read instead of 323, and no faster
than without a memo.

Bound.  LEVEL_MEMO_BITS bounds the bits the memo holds, not its entries,
as a column takes a few hundred bytes at n = 6 and megabytes at n = 160.
One function, :func:`charge`, counts every column: a run entry (x, A, B)
the bit length of x plus four times ENTRY_BITS for the tuple and its
three ints, and a ball's int its bit length plus ENTRY_BITS for its
object and pointer.  The seed-1 finite-wide batch leaves its columns in
about 698,000 bits.  The bits are counted when a column is recorded:
deepest first, a new column is recorded only if its own bits fit beside
those held, so the memo never holds more than the bound.  The run engine
reads the room left once, at its lookup, drops its shallowest kept
column whenever the columns it keeps exceed that room, and records those
left with its last row, so it never keeps more than it could record at
its lookup.  A left ball keeps every level through its sweep anyway and
records the new ones after it, deepest first, by the same rule, and a
right ball records each new column that fits, as a column chains onto
nothing; the seed-1 q-series batch leaves about 12.8 million bits of
left levels and 1.3 million of right columns.
The bound holds over all roots together, counted as one running total.
The memo itself holds at most 2**26 bits, 8 MiB, counted as Python
stores its objects, plus its dicts of keys.  The allocator's slack around
the integers kept through a sum comes on top (see CHANGES.md for the
peak RSS of full memos).

The memo is one store, written under one lock, so two threads may share
it; it reports itself through ``cache_info()`` and ``cache_clear()`` as
the package's lru_caches do, a right ball's columns read and built
counted as levels read and summed.
"""

from __future__ import annotations

import threading
from itertools import count
from typing import NamedTuple


LEVEL_MEMO_BITS = 2**26
ENTRY_BITS = 256
# ids of the empty suffix, one per root: the left q-series ball in strict
# and weak descent and the run engine; and the root of the right ball's
# columns
STRICT_ROOT, WEAK_ROOT, RUN_ROOT, COLUMN_ROOT = range(4)


def charge(entries) -> int:
    """The bits that a column's ``entries`` take in the memo: an int its
    bit length plus ENTRY_BITS for its object and pointer, and a run
    engine's (x, A, B) the bit length of x plus 4 * ENTRY_BITS for the
    tuple and its three ints."""
    if entries and type(entries[0]) is tuple:
        return sum(entry[0].bit_length() for entry in entries) + 4 * ENTRY_BITS * len(entries)
    return sum(map(int.bit_length, entries)) + ENTRY_BITS * len(entries)


class MemoInfo(NamedTuple):
    """What the level memo holds, in the shape of functools.lru_cache's
    cache_info(): levels read from it and levels summed, and the bits held
    against the bound LEVEL_MEMO_BITS."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


class _State:
    """What the level memo holds for one root at one ``at`` (see
    :class:`Levels`).  A root at another ``at`` gets a new state, so a
    state, with its dict of nodes, is never emptied: it is the generation
    that a record must find still held."""

    def __init__(self, root: int, at):
        self.root, self.at = root, at
        # (id of the suffix below, level key) -> (id, column); key -> column
        # at COLUMN_ROOT
        self.nodes: dict = {}
        self.bits = 0


class Levels:
    """The level memo of the run engine and the q-series balls, one
    state per root (see the module docstring): one store, written under one
    lock, that reports itself as a bounded memo through :meth:`cache_info`
    and :meth:`cache_clear`.

    A lookup returns the columns of the longest memoized suffix of a
    string of levels and a generation; :meth:`record` writes only while
    that generation holds, so a column summed at one ``at`` never lands in
    the memo of another, and every level recorded chains onto a suffix
    already held: the suffixes held are closed under taking a shorter
    suffix.  The right ball's columns are read through :meth:`columns` and
    written through :meth:`hold`.
    """

    _lock = threading.Lock()
    _ids = count(COLUMN_ROOT + 1)
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
    def _state(cls, root: int, at) -> tuple[_State, bool]:
        """(root's state at ``at``, whether it was there before this call),
        replacing the state of ``root`` at another ``at``; under the lock."""
        state = cls._states.get(root)
        if state is not None and state.at == at:
            return state, True
        if state is not None:
            cls._bits -= state.bits
        state = cls._states[root] = _State(root, at)
        return state, False

    @classmethod
    def _holds(cls, generation: _State | None) -> bool:
        """Whether a record at ``generation`` may write: not at None, a
        first sum's, nor once its root has moved to another ``at`` or the
        memo was cleared; under the lock."""
        return generation is not None and cls._states.get(generation.root) is generation

    @classmethod
    def lookup(cls, at: tuple, root: int, keys: list) -> tuple[_State | None, int, list, int]:
        """(generation, id, columns, room) at ``at`` = (a, b, n), or
        (a, b, K, prec) for a left ball, emptying the root's state if it
        holds another: ``columns`` are those of the levels
        len(keys) - len(columns) .. len(keys) - 1, the longest suffix of
        ``keys`` held, ``id`` is that suffix's (``root`` when none), and
        ``room`` is the bits left below the bound.  The generation is None
        on the first lookup from ``root`` at ``at``: that sum records
        nothing."""
        node, found = root, []
        with cls._lock:
            state, admitted = cls._state(root, at)
            room = LEVEL_MEMO_BITS - cls._bits
            if not admitted:
                cls._misses += len(keys)
                return None, root, [], room
            nodes = state.nodes
            for key in reversed(keys):
                entry = nodes.get((node, key))
                if entry is None:
                    break
                node, column = entry
                found.append(column)
            cls._hits += len(found)
            cls._misses += len(keys) - len(found)
            return state, node, found[::-1], room

    @classmethod
    def record(cls, generation: _State | None, node: int, levels) -> None:
        """Record (key, column) for each (key, column, bits) of ``levels``,
        deepest first, above the suffix ``node``, while the generation
        holds: a column not held yet is recorded only if its ``bits`` fit
        beside those held, and the first that does not ends the record, so
        each level recorded chains onto one held."""
        with cls._lock:
            if not cls._holds(generation):
                return
            nodes = generation.nodes
            for key, column, bits in levels:
                entry = nodes.get((node, key))
                if entry is None:
                    if cls._bits + bits > LEVEL_MEMO_BITS:
                        return
                    cls._bits += bits
                    generation.bits += bits
                    entry = nodes[node, key] = next(cls._ids), column
                node = entry[0]

    @classmethod
    def columns(cls, at: tuple) -> tuple[_State | None, dict]:
        """(generation, held) of the right ball's columns at ``at`` = (a, b),
        emptying them if they are held at another: ``held`` maps a key to
        its column and is the memo's own dict, which may be read without the
        lock, as entries are only ever added to it.  The generation is None
        on the first call at ``at``: that ball records nothing."""
        with cls._lock:
            state, admitted = cls._state(COLUMN_ROOT, at)
            return (state if admitted else None), state.nodes

    @classmethod
    def hold(cls, generation: _State | None, new: dict, reads: int) -> None:
        """Count the ``reads`` columns read rather than built and the
        len(new) built, and hold each (key, column) of ``new`` whose
        :func:`charge` fits beside the bits held, while the generation
        holds."""
        with cls._lock:
            cls._hits += reads
            cls._misses += len(new)
            if not cls._holds(generation):
                return
            nodes = generation.nodes
            for key, column in new.items():
                bits = charge(column)
                if key not in nodes and cls._bits + bits <= LEVEL_MEMO_BITS:
                    cls._bits += bits
                    generation.bits += bits
                    nodes[key] = column
