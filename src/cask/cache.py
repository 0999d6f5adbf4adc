"""KV cache data model: a structure of arrays with budget accounting and
merge bookkeeping.

A :class:`CacheState` holds its ``n`` live rows in position order, in
buffers of one common capacity that doubles when a row does not fit:

- keys and values, float64 of shape ``(L, capacity, d)`` each (the two
  halves of one buffer): one row per token for every layer, so a token
  occupies exactly one budget slot and structural operations (evict,
  merge) apply uniformly across layers.  ``keys[l, :n + 1]`` is
  C-contiguous, and row ``n`` is the free slot the model step writes the
  next token into (:meth:`CacheState.slot`);
- one column each for ``position`` (int64), ``is_decode`` (bool: the row
  came from a decode step, not the prompt), ``score_mass``, ``group_mass``
  (float64) and ``protected`` (bool);
- ``members``, the covered positions of folded rows only, keyed by the
  row's position; every other row covers its own position alone.

One row leaves by shifting the rows after it down a slot, several by
compaction, and a position is found by binary search.

A row enters through :func:`append`, either committed from the free slot
(see :class:`StagedRow`) or as a :class:`KVEntry`, the frozen value type a
row is appended, folded and merged as; :attr:`CacheState.entries` reads
the live rows back as read-only copies of it, for tests and debugging.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import inf
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .policies import CompressOutcome

PREFIX = "prefix"
DECODE = "decode"

# Rows a cache makes room for when its first row arrives.
_FIRST_CAPACITY = 8


class CacheError(ValueError):
    """Violation of a cache precondition (ordering, protection, mass, shape)."""


@dataclass(frozen=True)
class KVEntry:
    """One token's row: stacked per-layer key/value plus bookkeeping.

    ``group_mass`` is 1.0 for unmerged entries; a merged representative
    carries the summed fold weights of its members.  ``members`` records the
    original positions this entry covers (itself, for unmerged entries).
    Key and value have one shape, ``(L, d)`` or ``(d,)``.  Frozen: a row
    read back from a cache also has read-only key and value copies.
    """

    key: np.ndarray
    value: np.ndarray
    position: int
    origin: str = DECODE
    score_mass: float = 0.0
    group_mass: float = 1.0
    protected: bool = False
    members: tuple[int, ...] = ()

    def __post_init__(self):
        key = np.asarray(self.key, dtype=np.float64)
        value = np.asarray(self.value, dtype=np.float64)
        if key.shape != value.shape:
            raise CacheError(f"entry at position {self.position} has key "
                             f"shape {key.shape} and value shape "
                             f"{value.shape}")
        if key.ndim not in (1, 2):
            raise CacheError(f"entry shape {key.shape} is neither (L, d) "
                             f"nor (d,)")
        if self.origin not in (PREFIX, DECODE):
            raise CacheError(f"unknown origin {self.origin!r}")
        if not 0 < self.group_mass < inf:
            raise CacheError(f"entry at position {self.position} has "
                             f"group_mass {self.group_mass}; expected "
                             f"finite > 0")
        # Frozen: set the checked fields in the instance dict directly.
        vars(self).update(key=key, value=value,
                          members=self.members or (self.position,))

    @property
    def member_count(self) -> int:
        """How many original positions this entry covers."""
        return len(self.members)

    def geometry_key(self) -> np.ndarray:
        """Flat d-vector used for merge geometry (mean over layers)."""
        return self.key if self.key.ndim == 1 else self.key.mean(axis=0)


class StagedRow:
    """A handle to the row a model step staged in a cache's free slot.

    The model step writes a token's whole row into the free slot
    (:meth:`CacheState.slot`) and stages it (:meth:`CacheState.stage`);
    :func:`append` commits the handle by counting the row live, so each
    row's bytes are written once.  The handle is stale once ``n`` moves,
    the buffers are reallocated or the free slot is handed out again, and
    a fork stages nothing.
    """

    __slots__ = ("cache",)

    def __init__(self, cache: "CacheState"):
        self.cache = cache

    def entry(self) -> KVEntry:
        """A read-only copy of the staged row; :class:`CacheError` once
        stale."""
        cache = self.cache
        if cache._staged is not self:
            raise CacheError("the row is no longer staged")
        return cache._entries([cache.n])[0]


# The per-row columns, each a 1-D buffer of the cache's capacity, and their
# dtypes.  Each is a KVEntry field but is_decode, which is origin == DECODE.
_COLUMNS = {"position": np.int64, "is_decode": np.bool_,
            "score_mass": np.float64, "group_mass": np.float64,
            "protected": np.bool_}


class CacheState:
    """Position-ordered KV rows plus budget and history accounting.

    ``compression_events`` holds the outcome of every decode consolidation
    that fired, in order; prefill trimming and baseline eviction add none.
    ``row_shape`` is the shape of one entry's key, ``(L, d)`` or ``(d,)``
    (stored as ``L = 1``); it is None until a row arrives.  ``_staged`` is
    the :class:`StagedRow` in the free slot, if any.

    ``keys``, ``position``, ``is_decode``, ``score_mass`` and ``protected``
    are views of the live rows; writing them writes the cache.

    ``_core_due`` is a core marking owed to the ``protected`` column, or
    None: ``(mark, *args)``, written by ``mark(cache, *args)``.  A
    consolidation leaves one (:func:`cask.policies.cask_compress`) instead
    of marking a core that the next consolidation overwrites unread.  It is
    written before anything reads the column (:attr:`protected`,
    :meth:`_entries`), writes a row or removes one, so every reader sees
    the flags an immediate marking would have left.  It outlives a decode:
    a cache whose flags are never read is never marked.
    """

    def __init__(self, budget: int):
        at_least("budget", budget, 1)
        self.budget = budget
        self.total_appended = 0
        self.evicted_tokens = 0
        self.compression_events: list[CompressOutcome] = []
        self.prefix_budget_exhausted = False
        self.core_overflow = False
        self.n = 0
        self.row_shape: tuple[int, ...] | None = None
        self.members: dict[int, tuple[int, ...]] = {}
        self._staged: StagedRow | None = None
        self._core_due: tuple | None = None
        # Keys are _kv[0], values _kv[1]: (2, L, capacity, d).
        self._kv = np.empty((2, 0, 0, 0))
        self._columns = {name: np.empty(0, dtype)
                         for name, dtype in _COLUMNS.items()}

    def __len__(self) -> int:
        return self.n

    @property
    def keys(self) -> np.ndarray:
        """``(L, n, d)`` view of the live keys."""
        return self._kv[0, :, :self.n]

    @property
    def position(self) -> np.ndarray:
        return self._columns["position"][:self.n]

    @property
    def is_decode(self) -> np.ndarray:
        return self._columns["is_decode"][:self.n]

    @property
    def score_mass(self) -> np.ndarray:
        return self._columns["score_mass"][:self.n]

    @property
    def protected(self) -> np.ndarray:
        """The live rows' core flags, once any due marking is written."""
        self._write_core()
        return self._columns["protected"][:self.n]

    @property
    def entries(self) -> list[KVEntry]:
        """The live rows as read-only :class:`KVEntry` copies."""
        return self._entries(np.arange(self.n))

    def fork(self, budget: int | None = None) -> "CacheState":
        """An independent copy that a decode can continue on, under
        ``budget`` when one is given.

        The live rows are copied into buffers with room for ``budget + 1``
        rows (a run holds one row over its budget between an append and its
        compression), or for the live rows if there are more.  The members
        and the list of compression events are copied too (a fired outcome
        is frozen); counters and flags carry over, and so does a due core
        marking, which each copy writes on its own first read.
        """
        twin = CacheState(self.budget if budget is None else budget)
        twin.__dict__.update(vars(self), budget=twin.budget)
        twin.compression_events = list(self.compression_events)
        twin.members = dict(self.members)
        twin._columns = dict(self._columns)
        if self.row_shape is not None:
            twin._resize(max(self.n, twin.budget + 1))
        return twin

    def entry_at(self, position: int) -> KVEntry:
        """A read-only copy of the row at ``position``."""
        return self._entries(self.row_of([position]))[0]

    def _entries(self, rows) -> list[KVEntry]:
        """Read-only copies of ``rows`` (row indices, live or the staged
        row), their keys and values gathered in one copy; a staged row
        covers its own position alone.

        The copies are trusted, not validated: each is built without
        :class:`KVEntry`'s ``__post_init__``, whose checks the cache's own
        rows pass by construction (one float64 shape, a known origin, and a
        group mass checked when its row was written or the staged slot's
        1), with the fields that constructor would leave."""
        rows = np.asarray(rows)
        if not rows.size:
            return []
        self._write_core()
        c, n, members = self._columns, self.n, self.members
        # (2, k, L, d), C-contiguous, so each row's key and value are too.
        kv = np.ascontiguousarray(self._kv.take(rows, axis=2).swapaxes(1, 2))
        kv.setflags(write=False)
        keys, values = kv.reshape(2, len(rows), *self.row_shape)
        copies = []
        for row, key, value, p, decode, mass, group, core in zip(
                rows.tolist(), keys, values, *(
                    c[name][rows].tolist() for name in (
                        "position", "is_decode", "score_mass",
                        "group_mass", "protected"))):
            entry = object.__new__(KVEntry)
            vars(entry).update(
                key=key, value=value, position=p,
                origin=DECODE if decode else PREFIX, score_mass=mass,
                group_mass=group, protected=core,
                members=members.get(p, (p,)) if row < n else (p,))
            copies.append(entry)
        return copies

    def _write_core(self) -> None:
        """Write the due core marking, if there is one."""
        if self._core_due is not None:
            mark, *args = self._core_due
            mark(self, *args)

    def row_of(self, positions: Sequence[int]) -> np.ndarray:
        """The rows holding ``positions``, by one binary search over them
        all; :class:`CacheError` names the first position no row holds."""
        wanted, live = np.asarray(positions), self.position
        rows = live.searchsorted(wanted)
        found = live.take(rows, mode="clip") if self.n else np.nan
        missing = wanted[wanted != found]
        if missing.size:
            raise CacheError(f"no entry at position {missing[0]}")
        return rows

    def slot(self, row_shape: tuple[int, ...]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of rows ``0..n`` of the keys, values and group masses,
        row ``n`` being the free slot the next row goes into, its group mass
        set to 1.

        Makes room for the slot first: an empty cache takes any row shape,
        and a full one doubles its capacity.  A refused shape changes
        nothing."""
        if row_shape != self.row_shape:
            if self.n:
                raise CacheError(f"entry shape {row_shape} does not match "
                                 f"the cache's {self.row_shape}")
            self.row_shape = row_shape
            self._resize(_FIRST_CAPACITY)
        elif self.n == len(self._columns["position"]):
            self._resize(max(2 * self.n, _FIRST_CAPACITY))
        self._staged = None
        end = self.n + 1
        group_mass = self._columns["group_mass"][:end]
        group_mass[-1] = 1.0
        return self._kv[0, :, :end], self._kv[1, :, :end], group_mass

    def stage(self, origin: str, score_mass: float) -> StagedRow:
        """Stage the row whose keys and values a model step wrote into the
        free slot (:meth:`slot`): position ``total_appended``, ``origin``,
        its own ``score_mass``, group mass 1, unprotected."""
        if origin not in (PREFIX, DECODE):
            raise CacheError(f"unknown origin {origin!r}")
        n, c = self.n, self._columns
        c["position"][n] = self.total_appended
        c["is_decode"][n] = origin == DECODE
        c["score_mass"][n] = score_mass
        c["protected"][n] = False
        self._staged = staged = StagedRow(self)
        return staged

    def _resize(self, capacity: int) -> None:
        """Move the live rows into buffers of ``capacity`` rows."""
        self._staged = None
        n, shape = self.n, self.row_shape
        kv = np.empty((2, shape[0] if len(shape) == 2 else 1, capacity,
                       shape[-1]))
        if n:
            kv[:, :, :n] = self._kv[:, :, :n]
        self._kv = kv
        for name, col in self._columns.items():
            grown = np.empty(capacity, col.dtype)
            grown[:n] = col[:n]
            self._columns[name] = grown

    def _write(self, row: int, entry: KVEntry) -> None:
        """Store ``entry`` in a live ``row`` or, when ``row`` is ``n``, in the
        free slot (:meth:`slot`), and record its members.  Refuses, before
        it writes anything, a group mass other than 1 on a row covering
        only its own position."""
        alone = entry.members == (entry.position,)
        if alone and entry.group_mass != 1.0:
            raise CacheError(f"entry at position {entry.position} has group "
                             f"mass {entry.group_mass} but covers only its "
                             f"own position")
        self._write_core()
        if row == self.n:
            self.slot(entry.key.shape)
        self._kv[0, :, row] = entry.key
        self._kv[1, :, row] = entry.value
        for name, col in self._columns.items():
            col[row] = (entry.origin == DECODE if name == "is_decode"
                        else getattr(entry, name))
        if alone:
            self.members.pop(entry.position, None)
        else:
            self.members[entry.position] = entry.members

    def _remove(self, rows) -> int:
        """Remove the live ``rows`` (row indices) and their members, keeping
        the order of the rest; returns how many positions they covered.

        One row leaves by moving the rows after it down one slot, one slice
        copy per buffer, and the last live row by counting it out, moving no
        byte; several leave by compaction, one gather of the kept rows per
        buffer.  Nearly every removal is of one row: a baseline or
        consolidation step over budget by one evicts one row, and a fold of
        two members removes one.  The baseline's evictions are nearly all of
        the row it has just appended, the last.
        """
        self._write_core()
        self._staged = None
        n, kv, columns, members = (self.n, self._kv, self._columns.values(),
                                   self.members)
        gone = self.position[rows].tolist() if members else ()
        covered = sum(len(members.pop(p)) - 1 for p in gone if p in members)
        if len(rows) == 1:
            row = int(rows[0])
            if row < n - 1:
                kv[:, :, row:n - 1] = kv[:, :, row + 1:n]
                for col in columns:
                    col[row:n - 1] = col[row + 1:n]
            self.n = n - 1
            return 1 + covered
        keep = np.ones(n, dtype=bool)
        keep[rows] = False
        kept = keep.nonzero()[0]
        k = kept.size
        if k < n:
            kv[:, :, :k] = kv.take(kept, axis=2)
            for col in columns:
                col[:k] = col.take(kept)
        self.n = k
        return n - k + covered


def append(cache: CacheState, entry: KVEntry | StagedRow) -> CacheState:
    """Append one token's row; positions must be strictly increasing.

    A :class:`StagedRow` must be the row staged in ``cache`` now; it is
    committed in place, its bytes already written.  A :class:`KVEntry` is
    written into the free slot; its key must have the shape of the cache's
    rows, and its group mass must be 1 unless it covers other positions.
    A rejected row leaves the cache as it was.
    """
    n = cache.n
    staged = isinstance(entry, StagedRow)
    if staged:
        if entry is not cache._staged:
            raise CacheError("no row is staged in this cache" if
                             cache._staged is None else
                             "the row is not the one staged in this cache")
        position = cache._columns["position"][n]
    else:
        position = entry.position
    if n and position <= cache.position[-1]:
        raise CacheError(f"non-monotone position {position} "
                         f"(last is {cache.position[-1]})")
    if staged:
        cache._staged = None
    else:
        cache._write(n, entry)
    cache.n = n + 1
    cache.total_appended += 1
    return cache


def drop(cache: CacheState, rows) -> int:
    """Remove the live ``rows`` (row indices) and count the positions they
    covered as evicted tokens; returns how many entries were removed.  No
    protection check: callers decide it."""
    n = cache.n
    cache.evicted_tokens += cache._remove(rows)
    return n - cache.n


def evict(cache: CacheState, positions: Iterable[int]) -> CacheState:
    """Remove the entries at ``positions``.  A position no row holds
    (:meth:`CacheState.row_of`) or a protected one is refused first."""
    rows = cache.row_of(np.fromiter(positions, dtype=np.int64))
    hit = rows[cache.protected[rows]]
    if hit.size:
        raise CacheError(f"protected entry at position "
                         f"{cache.position[hit.min()]}")
    drop(cache, rows)
    return cache


def ltr_sum(values) -> float:
    """Left-to-right float sum, the order every mass check assumes.

    ``math.fsum`` (and ``sum`` on Python >= 3.12) round differently, which
    would change merged masses and the rows built from them.
    """
    total = 0.0
    for v in values:
        total += float(v)
    return total


def at_least(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer (one that
    ``operator.index`` takes: NaN and 1.5 fail) of at least ``minimum``."""
    try:
        if operator.index(value) >= minimum:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


def merge_replace(cache: CacheState, group_positions: Sequence[int],
                  representative: KVEntry) -> CacheState:
    """Replace a group of entries with one representative.

    The representative's ``group_mass`` must equal the left-to-right sum of
    the members' ``score_mass`` in position order (the fold weights); it is
    written into the earliest member's row, and the other members' rows
    leave with their members (:meth:`CacheState._remove`).
    """
    targets = sorted(set(group_positions))
    if len(targets) < 2:
        raise CacheError("singleton group")
    rows = cache.row_of(targets)
    hit = rows[cache.protected[rows]]
    if hit.size:
        raise CacheError(f"protected member at position {cache.position[hit[0]]}")
    total = ltr_sum(cache.score_mass[rows].tolist())
    if representative.group_mass != total:
        raise CacheError(
            f"mass mismatch: representative carries {representative.group_mass}, "
            f"member score masses sum to {total}"
        )
    if representative.position != targets[0]:
        raise CacheError("representative must sit at the earliest member position")
    if representative.key.shape != cache.row_shape:
        raise CacheError(f"entry shape {representative.key.shape} does not "
                         f"match the cache's {cache.row_shape}")
    cache._write(rows[0], representative)
    cache._remove(rows[1:])
    return cache


def check_invariants(cache: CacheState) -> None:
    """Raise :class:`CacheError` naming the first broken structural invariant.

    Every buffer has the cache's capacity, at least ``n`` rows, and members
    are recorded only for live positions; positions strictly increase;
    every appended token is live, folded into a live entry or evicted
    (``sum(member_count) + evicted_tokens == total_appended``); each live
    row's group mass is finite and > 0, 1 if it covers only its own
    position, and its score mass finite and >= 0; its members strictly
    increase from its own position, which :meth:`CacheState.row_of`
    lookups of group positions rely on; no original position is covered
    by two entries; and the cache holds at most ``budget`` entries unless
    core overflow was signalled.  Meant for tests and debugging, not for
    the decode loop.
    """
    n = cache.n
    rows = {"keys and values": cache._kv.shape[2],
            **{name: len(col) for name, col in cache._columns.items()}}
    if len(set(rows.values())) != 1 or rows["keys and values"] < n:
        raise CacheError(f"buffers disagree with {n} live rows: rows per "
                         f"buffer {rows}")
    positions = cache.position.tolist()
    stray = sorted(set(cache.members) - set(positions))
    if stray:
        raise CacheError(f"members are recorded for position {stray[0]}, "
                         f"which holds no live entry")
    for a, b in zip(positions, positions[1:]):
        if b <= a:
            raise CacheError(f"position {b} follows {a}")
    live = n + sum(len(m) - 1 for m in cache.members.values())
    if live + cache.evicted_tokens != cache.total_appended:
        raise CacheError(
            f"{live} live members + {cache.evicted_tokens} evicted tokens != "
            f"{cache.total_appended} appended")
    covered: set[int] = set()
    group_mass = cache._columns["group_mass"][:n].tolist()
    for p, g, s in zip(positions, group_mass, cache.score_mass.tolist()):
        if not (0 < g < inf and 0 <= s < inf):
            raise CacheError(f"entry at position {p} has group mass {g} and "
                             f"score mass {s}; expected finite, > 0 and >= 0")
        if g != 1.0 and p not in cache.members:
            raise CacheError(f"entry at position {p} has group mass other "
                             f"than 1 but covers only its own position")
        m = cache.members.get(p, (p,))
        if m[0] != p or any(b <= a for a, b in zip(m, m[1:])):
            raise CacheError(f"entry at position {p} has members {m}; they "
                             f"must start at {p} and strictly increase")
        shared = covered.intersection(m)
        if shared:
            raise CacheError(f"entry at position {p} covers "
                             f"{sorted(shared)}, already covered")
        covered.update(m)
    if n > cache.budget and not cache.core_overflow:
        raise CacheError(f"{n} entries exceed budget "
                         f"{cache.budget} without core overflow")


def terminal_saved_ratio(cache: CacheState) -> float:
    """1 - (live cache tokens / tokens ever appended)."""
    if cache.total_appended < 1:
        raise CacheError("empty history")
    return 1.0 - cache.n / cache.total_appended


def covered_positions(cache: CacheState) -> set[int]:
    """Live positions plus every member position folded into a live entry."""
    covered = set(cache.position.tolist())
    for members in cache.members.values():
        covered.update(members)
    return covered
