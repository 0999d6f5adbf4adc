"""KV cache data model: a structure of arrays with budget accounting and
merge bookkeeping.

A :class:`CacheState` holds its ``n`` live rows in position order, in
buffers of one common capacity that doubles when a row does not fit:

- keys and values, float64 of shape ``(L, capacity, d)`` each (the two
  halves of one buffer): one row per token for every layer, so a token
  occupies exactly one budget slot and structural operations (evict,
  merge) apply uniformly across layers.  ``keys[l, :n + 1]`` is
  C-contiguous, and row ``n`` is the slot the model step writes the next
  token into (:meth:`CacheState.slot`);
- one column each for ``position`` (int64), ``origin`` (:data:`PREFIX` or
  :data:`DECODE`), ``score_mass``, ``group_mass`` (float64) and
  ``protected`` (bool);
- ``members``, the covered positions of folded rows only, keyed by the
  row's position; every other row covers its own position alone.

The properties of the same names are views of the live rows; writing them
writes the cache.  Rows leave by mask compaction, and a position is found
by binary search.  :class:`KVEntry` is the value type a row is appended,
folded and merged as; :attr:`CacheState.entries` reads the live rows back
as copies of it, for tests and debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class KVEntry:
    """One token's row: stacked per-layer key/value plus bookkeeping.

    ``group_mass`` is 1.0 for unmerged entries; a merged representative
    carries the summed fold weights of its members.  ``members`` records the
    original positions this entry covers (itself, for unmerged entries).
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
        self.key = np.asarray(self.key, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.origin not in (PREFIX, DECODE):
            raise CacheError(f"unknown origin {self.origin!r}")
        if self.group_mass <= 0:
            raise CacheError("group_mass must be positive")
        if not self.members:
            self.members = (self.position,)

    @property
    def member_count(self) -> int:
        """How many original positions this entry covers."""
        return len(self.members)

    def geometry_key(self) -> np.ndarray:
        """Flat d-vector used for merge geometry (mean over layers)."""
        if self.key.ndim == 1:
            return self.key
        # ndarray.mean's own steps (add.reduce, then one division), without
        # its dispatch overhead: bit-identical.
        return self.key.sum(axis=0) / len(self.key)


# The per-row columns, each a 1-D buffer of the cache's capacity, and their
# dtypes; each is also a KVEntry field.
_COLUMNS = {"position": np.int64, "origin": "<U6", "score_mass": np.float64,
            "group_mass": np.float64, "protected": np.bool_}


class CacheState:
    """Position-ordered KV rows plus budget and history accounting.

    ``compression_events`` holds the outcome of every decode consolidation
    that fired, in order; prefill trimming and baseline eviction add none.
    ``row_shape`` is the shape of one entry's key, ``(L, d)`` or ``(d,)``
    (stored as ``L = 1``); it is None until a row arrives.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise CacheError("budget must be positive")
        self.budget = budget
        self.total_appended = 0
        self.evicted_tokens = 0
        self.compression_events: list[CompressOutcome] = []
        self.prefix_budget_exhausted = False
        self.core_overflow = False
        self.n = 0
        self.row_shape: tuple[int, ...] | None = None
        self.members: dict[int, tuple[int, ...]] = {}
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
    def values(self) -> np.ndarray:
        """``(L, n, d)`` view of the live values."""
        return self._kv[1, :, :self.n]

    @property
    def position(self) -> np.ndarray:
        return self._columns["position"][:self.n]

    @property
    def origin(self) -> np.ndarray:
        return self._columns["origin"][:self.n]

    @property
    def score_mass(self) -> np.ndarray:
        return self._columns["score_mass"][:self.n]

    @property
    def group_mass(self) -> np.ndarray:
        return self._columns["group_mass"][:self.n]

    @property
    def protected(self) -> np.ndarray:
        return self._columns["protected"][:self.n]

    @property
    def entries(self) -> list[KVEntry]:
        """The live rows as :class:`KVEntry` copies; writing them does not
        write the cache."""
        return [self.entry_at(p) for p in self.position.tolist()]

    def fork(self, budget: int | None = None) -> "CacheState":
        """An independent copy that a decode can continue on, under
        ``budget`` when one is given.

        The live rows are copied into buffers with room for ``budget + 1``
        rows (a run holds one row over its budget between an append and its
        compression), or for the live rows if there are more.  The members
        and the list of compression events are copied too (a fired outcome
        is never changed after it is recorded); counters and flags carry
        over.
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
        """A copy of the row at ``position``."""
        row, c = self.row_of(position), self._columns
        return KVEntry(
            key=self._kv[0, :, row].reshape(self.row_shape).copy(),
            value=self._kv[1, :, row].reshape(self.row_shape).copy(),
            position=position, origin=str(c["origin"][row]),
            score_mass=float(c["score_mass"][row]),
            group_mass=float(c["group_mass"][row]),
            protected=bool(c["protected"][row]),
            members=self.members.get(position, (position,)))

    def row_of(self, position: int) -> int:
        """The row holding ``position``; :class:`CacheError` when none does."""
        live = self.position
        row = int(np.searchsorted(live, position))
        if row == self.n or live[row] != position:
            raise CacheError(f"no entry at position {position}")
        return row

    def slot(self, row_shape: tuple[int, ...]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Views of rows ``0..n`` of the keys, values and group masses,
        row ``n`` being the free slot the next row goes into, its group mass
        set to 1.

        Makes room for the slot first: an empty cache takes any row shape,
        and a full one doubles its capacity."""
        if row_shape != self.row_shape:
            if self.n:
                raise CacheError(f"entry shape {row_shape} does not match "
                                 f"the cache's {self.row_shape}")
            self.row_shape = row_shape
            self._resize(_FIRST_CAPACITY)
        elif self.n == len(self._columns["position"]):
            self._resize(max(2 * self.n, _FIRST_CAPACITY))
        end = self.n + 1
        group_mass = self._columns["group_mass"][:end]
        group_mass[-1] = 1.0
        return self._kv[0, :, :end], self._kv[1, :, :end], group_mass

    def _resize(self, capacity: int) -> None:
        """Move the live rows into buffers of ``capacity`` rows."""
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

    def _check_row(self, entry: KVEntry) -> None:
        """Raise :class:`CacheError` unless ``entry``'s key and value have
        one shape, ``(L, d)`` or ``(d,)``, and it is the shape of the rows
        already in the cache."""
        key, value = entry.key.shape, entry.value.shape
        if key != value:
            raise CacheError(f"entry at position {entry.position} has key "
                             f"shape {key} and value shape {value}")
        if len(key) not in (1, 2):
            raise CacheError(f"entry shape {key} is neither (L, d) nor (d,)")
        if self.n and key != self.row_shape:
            raise CacheError(f"entry shape {key} does not match the cache's "
                             f"{self.row_shape}")

    def _write(self, row: int, entry: KVEntry) -> None:
        """Store ``entry`` in ``row``, which must exist."""
        self._kv[0, :, row] = entry.key
        self._kv[1, :, row] = entry.value
        for name in _COLUMNS:
            self._columns[name][row] = getattr(entry, name)
        if entry.members != (entry.position,):
            self.members[entry.position] = entry.members

    def _remove(self, rows) -> int:
        """Compact the live rows to all but ``rows``, keeping their order;
        returns how many rows left.  Their members must already be gone."""
        keep = np.ones(self.n, dtype=bool)
        keep[rows] = False
        n, k = self.n, int(np.count_nonzero(keep))
        kv, columns = self._kv, self._columns.values()
        if k < n:
            kv[:, :, :k] = kv[:, :, :n][:, :, keep]
            for col in columns:
                col[:k] = col[:n][keep]
        self.n = k
        return n - k


def append(cache: CacheState, entry: KVEntry) -> CacheState:
    """Append one token's entry; positions must be strictly increasing and
    the entry's key and value must have the shape of the cache's rows."""
    cache._check_row(entry)
    n = cache.n
    if n and entry.position <= cache.position[-1]:
        raise CacheError(
            f"non-monotone position {entry.position} "
            f"(last is {cache.position[-1]})"
        )
    cache.slot(entry.key.shape)
    cache._write(n, entry)
    cache.n = n + 1
    cache.total_appended += 1
    return cache


def drop(cache: CacheState, rows) -> int:
    """Remove the live ``rows`` (row indices) and count their members as
    evicted tokens; returns how many entries were removed.  No protection
    check: callers decide it."""
    folded = [cache.members.pop(p) for p in cache.position[rows].tolist()
              if p in cache.members]
    removed = cache._remove(rows)
    cache.evicted_tokens += removed + sum(len(m) - 1 for m in folded)
    return removed


def evict(cache: CacheState, positions: Iterable[int]) -> CacheState:
    """Remove the entries at ``positions``; protected entries are off-limits."""
    wanted = np.fromiter(positions, dtype=np.int64)
    live = cache.position
    rows = np.searchsorted(live, wanted)
    found = rows < cache.n
    rows, wanted = rows[found], wanted[found]
    rows = rows[live[rows] == wanted]
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


def merge_replace(cache: CacheState, group_positions: Sequence[int],
                  representative: KVEntry) -> CacheState:
    """Replace a group of entries with one representative.

    The representative's ``group_mass`` must equal the left-to-right sum of
    the members' ``score_mass`` in position order (the fold weights); it is
    written into the earliest member's row and the other members' rows are
    compacted away.
    """
    targets = sorted(set(group_positions))
    if len(targets) < 2:
        raise CacheError("singleton group")
    rows = np.array([cache.row_of(p) for p in targets])
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
    cache._check_row(representative)
    for p in targets:
        cache.members.pop(p, None)
    cache._write(rows[0], representative)
    cache._remove(rows[1:])
    return cache


def check_invariants(cache: CacheState) -> None:
    """Raise :class:`CacheError` naming the first broken structural invariant.

    Every buffer has the cache's capacity, at least ``n`` rows, and members
    are recorded only for live positions; positions strictly increase;
    every appended token is live, folded into a live entry or evicted
    (``sum(member_count) + evicted_tokens == total_appended``); each
    entry's members strictly increase from its own position, which
    :meth:`CacheState.row_of` lookups of group positions rely on; no
    original position is covered by two entries; and the cache holds at
    most ``budget`` entries unless core overflow was signalled.  Meant for
    tests and debugging, not for the decode loop.
    """
    n = cache.n
    rows = {"keys and values": cache._kv.shape[2],
            **{name: len(col) for name, col in cache._columns.items()}}
    if len(set(rows.values())) != 1 or rows["keys and values"] < n:
        raise CacheError(f"buffers disagree with {n} live rows: rows per "
                         f"buffer {rows}")
    positions = cache.position
    stray = sorted(set(cache.members) - set(positions.tolist()))
    if stray:
        raise CacheError(f"members are recorded for position {stray[0]}, "
                         f"which holds no live entry")
    bad = np.flatnonzero(positions[1:] <= positions[:-1])
    if bad.size:
        i = bad[0]
        raise CacheError(f"position {positions[i + 1]} follows {positions[i]}")
    folded = sorted(cache.members.items())
    live = n + sum(len(m) - 1 for _, m in folded)
    if live + cache.evicted_tokens != cache.total_appended:
        raise CacheError(
            f"{live} live members + {cache.evicted_tokens} evicted tokens != "
            f"{cache.total_appended} appended")
    # The first entry, in position order, whose members are malformed or
    # cover a position an earlier entry covers; at one entry the members
    # check comes first.
    broken = [(p, 0, f"entry at position {p} has members {m}; they must "
                     f"start at {p} and strictly increase")
              for p, m in folded
              if m[0] != p or any(b <= a for a, b in zip(m, m[1:]))]
    covered = np.concatenate([positions, *(np.array(m[1:], dtype=np.int64)
                                           for _, m in folded)])
    owners = np.concatenate([positions, *(np.full(len(m) - 1, p)
                                          for p, m in folded)])
    order = np.lexsort((owners, covered))
    covered, owners = covered[order], owners[order]
    again = np.flatnonzero((covered[1:] == covered[:-1])
                           & (owners[1:] != owners[:-1])) + 1
    if again.size:
        first = owners[again].min()
        shared = covered[again[owners[again] == first]].tolist()
        broken.append((first, 1, f"entry at position {first} covers "
                                 f"{shared}, already covered"))
    if broken:
        raise CacheError(min(broken)[2])
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
