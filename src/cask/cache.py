"""KV cache data model: ordered entries, budget accounting, merge bookkeeping.

One :class:`KVEntry` holds the key/value rows for *all* layers of a token
(shape ``(num_layers, d)``), so a token occupies exactly one budget slot and
structural operations (evict, merge) apply uniformly across layers.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .policies import CompressOutcome

PREFIX = "prefix"
DECODE = "decode"


class CacheError(ValueError):
    """Violation of a cache precondition (ordering, protection, mass)."""


@dataclass
class KVEntry:
    """One cached token: stacked per-layer key/value plus bookkeeping.

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

    def __copy__(self) -> "KVEntry":
        # Shallow copy without re-validation: about 5x faster than the
        # generic reduce-based copy, and a long prefill is copied into
        # every sweep cell.
        twin = object.__new__(KVEntry)
        twin.__dict__.update(self.__dict__)
        return twin

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


@dataclass
class CacheState:
    """Position-ordered KV entries plus budget and history accounting.

    ``compression_events`` holds the outcome of every decode consolidation
    that fired, in order; prefill trimming and baseline eviction add none.
    """

    budget: int
    entries: list[KVEntry] = field(default_factory=list)
    total_appended: int = 0
    evicted_tokens: int = 0
    compression_events: list[CompressOutcome] = field(default_factory=list)
    prefix_budget_exhausted: bool = False
    core_overflow: bool = False

    def __post_init__(self):
        if self.budget < 1:
            raise CacheError("budget must be positive")

    def __len__(self) -> int:
        return len(self.entries)

    def fork(self) -> "CacheState":
        """An independent copy that a decode can continue on.

        Entries are shallow copies, each owning its ``score_mass`` and
        ``protected`` flag; their key and value arrays are shared, because
        nothing writes them in place.  Counters and flags are copied, and
        so is the list of compression events (a fired outcome is never
        changed after it is recorded).
        """
        return dataclasses.replace(
            self, entries=[copy.copy(e) for e in self.entries],
            compression_events=list(self.compression_events))

    def entry_at(self, position: int) -> KVEntry:
        for e in self.entries:
            if e.position == position:
                return e
        raise CacheError(f"no entry at position {position}")


def append(cache: CacheState, entry: KVEntry) -> CacheState:
    """Append one token's entry; positions must be strictly increasing."""
    if cache.entries and entry.position <= cache.entries[-1].position:
        raise CacheError(
            f"non-monotone position {entry.position} "
            f"(last is {cache.entries[-1].position})"
        )
    cache.entries.append(entry)
    cache.total_appended += 1
    return cache


def drop(cache: CacheState, positions: set[int]) -> int:
    """Remove the entries at ``positions`` and count their members as
    evicted tokens; returns how many entries were removed.  No protection
    check: callers decide it."""
    before = len(cache.entries)
    cache.evicted_tokens += sum(
        e.member_count for e in cache.entries if e.position in positions
    )
    cache.entries = [e for e in cache.entries if e.position not in positions]
    return before - len(cache.entries)


def evict(cache: CacheState, positions: Iterable[int]) -> CacheState:
    """Remove the entries at ``positions``; protected entries are off-limits."""
    targets = set(positions)
    for e in cache.entries:
        if e.position in targets and e.protected:
            raise CacheError(f"protected entry at position {e.position}")
    drop(cache, targets)
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
    inserted at the earliest member position.
    """
    targets = sorted(set(group_positions))
    if len(targets) < 2:
        raise CacheError("singleton group")
    members = [cache.entry_at(p) for p in targets]
    for m in members:
        if m.protected:
            raise CacheError(f"protected member at position {m.position}")
    total = ltr_sum(m.score_mass for m in members)
    if representative.group_mass != total:
        raise CacheError(
            f"mass mismatch: representative carries {representative.group_mass}, "
            f"member score masses sum to {total}"
        )
    if representative.position != targets[0]:
        raise CacheError("representative must sit at the earliest member position")
    target_set = set(targets)
    out: list[KVEntry] = []
    for e in cache.entries:
        if e.position == targets[0]:
            out.append(representative)
        elif e.position not in target_set:
            out.append(e)
    cache.entries = out
    return cache


def check_invariants(cache: CacheState) -> None:
    """Raise :class:`CacheError` naming the first broken structural invariant.

    Positions strictly increase; every appended token is live, folded into a
    live entry or evicted (``sum(member_count) + evicted_tokens ==
    total_appended``); each entry's members strictly increase from its own
    position, which :meth:`CacheState.entry_at` lookups of group positions
    rely on; no original position is covered by two entries; and the cache
    holds at most ``budget`` entries unless core overflow was signalled.
    Linear in the cache size, so it is meant for tests and debugging, not
    for the decode loop.
    """
    positions = [e.position for e in cache.entries]
    for a, b in zip(positions, positions[1:]):
        if b <= a:
            raise CacheError(f"position {b} follows {a}")
    live = sum(e.member_count for e in cache.entries)
    if live + cache.evicted_tokens != cache.total_appended:
        raise CacheError(
            f"{live} live members + {cache.evicted_tokens} evicted tokens != "
            f"{cache.total_appended} appended")
    covered: set[int] = set()
    for e in cache.entries:
        m = e.members
        if m[0] != e.position or any(b <= a for a, b in zip(m, m[1:])):
            raise CacheError(f"entry at position {e.position} has members "
                             f"{m}; they must start at {e.position} and "
                             f"strictly increase")
        shared = covered.intersection(e.members)
        if shared:
            raise CacheError(f"entry at position {e.position} covers "
                             f"{sorted(shared)}, already covered")
        covered.update(e.members)
    if len(cache.entries) > cache.budget and not cache.core_overflow:
        raise CacheError(f"{len(cache.entries)} entries exceed budget "
                         f"{cache.budget} without core overflow")


def terminal_saved_ratio(cache: CacheState) -> float:
    """1 - (live cache tokens / tokens ever appended)."""
    if cache.total_appended < 1:
        raise CacheError("empty history")
    return 1.0 - len(cache.entries) / cache.total_appended


def covered_positions(cache: CacheState) -> set[int]:
    """Live positions plus every member position folded into a live entry."""
    covered: set[int] = set()
    for e in cache.entries:
        covered.update(e.members)
    return covered
