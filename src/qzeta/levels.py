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
cumulative.  The memo also holds the run engine's q-level tables at
(q, n): L_k/L_(k-1) and, per magnitude s, the factor
(L_k/h_k)**s (b**k + a**k) of a run's term, which folds in L_k/h_k and
b**k + a**k.  The harmonic DP reads L_k/L_(k-1) and L_k/h_k off its
QContext: a table lookup per call cost it more than it saved.

Admission.  A (q, n) is recorded from the second lookup of an engine (a
descent of the harmonic DP, or the run engine) at it on.  The first sum at
a (q, n) keeps no column and builds no table, so a batch that never comes
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
An entry counts the bit length of its integer plus ENTRY_BITS for an
int's object and pointer, or four times ENTRY_BITS for a run entry's
(x, A, B) tuple and its three ints.  The seed-1 finite-wide batch leaves
its columns and tables in about 890,000 bits.  An engine charges the
bits it keeps in flight to the memo (see :class:`Kept`),
each column projected to n at its last entry's size, in steps that at
least double, and drops its shallowest kept column when they would not
fit beside what is held and what the other engine keeps (``verify_mhs``
sums both sides at once).  The columns it records then fit by
construction.  A table is recorded only if it fits, and one whose size,
bounded by n times its last entry's, would not fit is computed index by
index (:class:`Rows`).  So the memo holds at most 2**26 bits, 8 MiB,
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
        self.tables: dict = {}
        self.visits: set = set()  # roots that have looked up at ``at``
        self.bits = self.pending = 0  # pending: bits the engines keep in flight


class Levels:
    """The level memo of the exact engines at one (q, n) (see the module
    docstring): one store, written under one lock, that reports itself as
    a bounded memo through :meth:`cache_info` and :meth:`cache_clear`.

    A lookup returns the columns of the longest memoized suffix of a
    string of levels and a generation; :meth:`record` and :meth:`tables`
    write only while that generation holds, so a column summed at one
    (q, n) never lands in the memo of another, and every level recorded
    chains onto a suffix already held: the suffixes held are closed under
    taking a shorter suffix.
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
    def lookup(cls, at: tuple, root: int, keys: list) -> tuple[int | None, int, list]:
        """(generation, id, columns) at ``at`` = (a, b, n), emptying the
        memo if it holds another: ``columns`` are those of the levels
        len(keys) - len(columns) .. len(keys) - 1, the longest suffix of
        ``keys`` held, and ``id`` is that suffix's (``root`` when none).
        The generation is None on the first lookup from ``root`` at ``at``:
        that sum records nothing."""
        state, node, found = cls._state, root, []
        with cls._lock:
            if state.at != at:
                state.reset(at)
            if root not in state.visits:
                state.visits.add(root)
                state.misses += len(keys)
                return None, root, []
            nodes = state.nodes
            for key in reversed(keys):
                entry = nodes.get((node, key))
                if entry is None:
                    break
                node, column = entry
                found.append(column)
            state.hits += len(found)
            state.misses += len(keys) - len(found)
            return state.generation, node, found[::-1]

    @classmethod
    def charge(cls, generation: int, before: int, after: int) -> bool:
        """Move an engine's bits in flight at ``generation`` from ``before``
        to ``after``; False when ``after`` would not fit beside the bits
        held and those the other engines keep (both sides of a finite check
        are summed at once), or grows once the generation is gone."""
        state = cls._state
        with cls._lock:
            if generation != state.generation:
                return after == 0
            if after > before and state.bits + state.pending - before + after > LEVEL_MEMO_BITS:
                return False
            state.pending += after - before
            return True

    @classmethod
    def record(cls, generation: int, node: int, levels, bits: int, charged: int) -> None:
        """Release an engine's ``charged`` bits in flight and record
        (key, column) for each of ``levels``, deepest first, above the
        suffix ``node``: ``bits`` in all, at most ``charged``, which the
        engine kept charged while it summed them, so they fit."""
        state = cls._state
        with cls._lock:
            if generation != state.generation:
                return
            state.pending -= charged
            state.bits += bits
            nodes = state.nodes
            for key, column in levels:
                entry = nodes.get((node, key))
                if entry is None:
                    entry = nodes[node, key] = next(cls._ids), column
                node = entry[0]

    @classmethod
    def tables(cls, generation: int, n: int, rows: dict) -> dict:
        """{key: table} for each q-level table ``key`` of ``rows``, whose
        entry at index k = 1..n is row(k) (0 at index 0): held, or built,
        and recorded if it fits and the generation holds, or, when the
        bound n * (bits of row(n)) on its size does not fit in the room
        left, a view that computes each row when read."""
        state = cls._state
        with cls._lock:
            current = generation == state.generation
            out = {key: state.tables.get(key) for key in rows} if current else dict.fromkeys(rows)
            free = LEVEL_MEMO_BITS - state.bits - state.pending
        built = {}
        for key, row in rows.items():
            if out[key] is None:
                size = n * (row(n).bit_length() + ENTRY_BITS)
                if size > free:
                    out[key] = Rows(row)
                else:
                    free -= size
                    out[key] = built[key] = (0, *map(row, range(1, n + 1)))
        if built and current:
            with cls._lock:
                for key, table in built.items():
                    bits = sum(map(int.bit_length, table)) + ENTRY_BITS * n
                    fits = state.bits + state.pending + bits <= LEVEL_MEMO_BITS
                    if generation == state.generation and key not in state.tables and fits:
                        state.tables[key] = table
                        state.bits += bits
        return out


class Rows:
    """A q-level table too large to build: row(k) at index k, computed
    when read."""

    def __init__(self, row):
        self.row = row

    def __getitem__(self, k: int) -> int:
        return self.row(k)


class Kept:
    """The columns of levels lo..top-1 that an engine sums at one (q, n),
    kept as one row per index while they fit, and recorded above the
    suffix ``node`` once the last index is kept.

    The bits held, projected over the indices still to come at the last
    row's size, are charged to the memo in steps that at least double the
    charge, and the shallowest kept level is dropped while they would not
    fit beside what the memo holds and what the other engine keeps (both
    sides of a finite check are summed at once), so that a column that
    cannot be recorded is dropped early.  Nothing is kept at generation
    None, an engine's first sum at a (q, n).
    """

    def __init__(
        self, generation: int | None, node: int, keys: list, top: int, entry_bits: int
    ):
        self.generation, self.node, self.keys, self.top = generation, node, keys, top
        self.entry_bits = entry_bits  # what an entry takes besides its integer's digits
        self.lo = top if generation is None else 0
        self.rows: list = []  # per index, the kept entries of levels lo..top-1
        self.ints: list = []  # per index, their integers
        self.held = self.charged = 0

    def add(self, rows: list, ints: list, left: int) -> None:
        """Keep one index's entries ``rows`` of levels lo..top-1, whose
        integers are ``ints``, with ``left`` indices to come."""
        self.rows.append(rows)
        self.ints.append(ints)
        size = sum(map(int.bit_length, ints)) + self.entry_bits * len(ints)
        self.held += size
        while self.held + left * size > self.charged:
            need = self.held + left * size
            if Levels.charge(self.generation, self.charged, 2 * need):
                self.charged = 2 * need
            elif Levels.charge(self.generation, self.charged, need):
                self.charged = need
            else:
                column = [row[0] for row in self.ints]
                self.held -= sum(map(int.bit_length, column)) + self.entry_bits * len(column)
                size -= ints[self.lo - self.top].bit_length() + self.entry_bits
                self.rows = [row[1:] for row in self.rows]
                self.ints = [row[1:] for row in self.ints]
                self.lo += 1
        if not left:
            levels = zip(reversed(self.keys[self.lo : self.top]), reversed(list(zip(*self.rows))))
            Levels.record(self.generation, self.node, levels, self.held, self.charged)
            self.charged = 0

    def release(self) -> None:
        """Release the charge of a sum left unread."""
        if self.charged:
            Levels.record(self.generation, self.node, (), 0, self.charged)
