"""Compression policies: core-aware consolidation and score-mass eviction.

The consolidation path partitions decode entries into a protected core
(sinks, recency window, high-mass anchors) and mergeable scratch, folds
redundant scratch groups into mass-weighted representatives, and only then
falls back to eviction.  The baseline keeps the highest-score entries and
nothing else.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from math import floor, inf
from typing import Sequence

import numpy as np

from .cache import (
    DECODE,
    CacheState,
    KVEntry,
    drop,
    ltr_sum,
    merge_replace,
)
from .kernels import (
    HorizonDistribution,
    band_frequencies,
    band_view,
    d_kappa_batch,
    kappa_dual_norm,
    kappa_magnitudes,
    kappa_norm,
    truncated_geometric,
)


@dataclass(frozen=True)
class CaskConfig:
    """Tunables for core detection and scratch consolidation.

    Frozen, so the horizon distribution :attr:`pi` derived from
    ``horizon`` is computed once per config and can never go stale.
    """

    sink_count: int = 2
    recency_window: int = 8
    anchor_quantile: float = 0.9
    merge_epsilon: float = 0.25
    temporal_window: int = 512
    max_group_size: int = 16
    horizon: int = 4

    def __post_init__(self):
        if self.sink_count < 0:
            raise ValueError("sink_count must be >= 0")
        if self.recency_window < 0:
            raise ValueError("recency_window must be >= 0")
        if not 0.0 <= self.anchor_quantile <= 1.0:
            raise ValueError("anchor_quantile must be in [0, 1]")
        if self.merge_epsilon < 0:
            raise ValueError("merge_epsilon must be >= 0")
        if self.temporal_window < 1:
            raise ValueError("temporal_window must be >= 1")
        if self.max_group_size < 2:
            raise ValueError("max_group_size must be >= 2")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")

    @cached_property
    def pi(self) -> HorizonDistribution:
        return truncated_geometric(self.horizon)


@dataclass
class MergeGroup:
    """A disjoint set of scratch entries scheduled for folding."""

    positions: tuple[int, ...]
    weights: tuple[float, ...]
    mass: float
    keys: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if len(self.positions) != len(self.weights):
            raise ValueError("positions and weights must align")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        if self.mass != ltr_sum(self.weights):
            raise ValueError("mass must equal the left-to-right weight sum")

    def __len__(self) -> int:
        return len(self.positions)


def linear_quantile(ordered, q: float) -> float:
    """``np.quantile(values, q)`` with its default linear method, bit for bit,
    where ``ordered`` holds the values in ascending order.

    Mirrors numpy's steps: virtual index ``(n - 1) * q``; at or past the last
    index both neighbours are the maximum and the fractional part is taken
    against index -1, as numpy does; ``_lerp`` interpolates from the upper
    neighbour once the fraction reaches 0.5.
    """
    n = len(ordered)
    virtual = (n - 1) * q
    if virtual >= n - 1:
        below, lo, hi = -1.0, n - 1, n - 1
    else:
        below = float(floor(virtual))
        lo = int(below)
        hi = lo + 1
    t = virtual - below
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _check_score_mass(cache: CacheState, rows: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first of ``rows`` whose score mass is
    NaN, infinite or negative."""
    masses = cache.score_mass[rows]
    ok = (masses >= 0.0) & (masses < inf)
    if not ok.all():
        first = int(np.argmin(ok))
        raise ValueError(f"entry at position {cache.position[rows[first]]} "
                         f"has score_mass {float(masses[first])}; expected "
                         f"finite >= 0")


def detect_core(cache: CacheState, config: CaskConfig) -> set[int]:
    """Mark the protected core among decode entries and return its positions.

    Core = first ``sink_count`` decode entries + last ``recency_window``
    decode entries + decode entries whose accumulated score mass is strictly
    above the ``anchor_quantile`` quantile of decode score mass.  Flags are
    recomputed from scratch on every call.  A NaN, infinite or negative
    decode score mass raises ``ValueError`` naming its position, since it
    would turn the quantile into NaN and silently drop every anchor.
    """
    if not cache.n:
        raise ValueError("cache is empty")
    decode = np.flatnonzero(cache.origin == DECODE)
    _check_score_mass(cache, decode)
    protected = cache.protected
    protected[:] = False
    if not decode.size:
        return set()
    masses = cache.score_mass[decode]
    core = masses > linear_quantile(sorted(masses.tolist()),
                                    config.anchor_quantile)
    core[:config.sink_count] = True
    if config.recency_window > 0:
        core[-config.recency_window:] = True
    rows = decode[core]
    protected[rows] = True
    return set(cache.position[rows].tolist())


def _weighted_centroid(keys: Sequence[np.ndarray],
                       weights: Sequence[float]) -> np.ndarray:
    """Weight-averaged rows: w0*x0, then left-to-right adds, then one divide
    by the left-to-right weight sum (the plain mean when it is 0)."""
    total = ltr_sum(weights)
    if total == 0.0:
        return np.mean(keys, axis=0)
    acc = weights[0] * keys[0]
    for w, k in zip(weights[1:], keys[1:]):
        acc = acc + w * k
    return acc / total


def form_merge_groups(cache: CacheState,
                      config: CaskConfig) -> list[MergeGroup]:
    """Greedy temporal scan over unprotected decode entries, fold
    representatives included.

    A group seeds at the earliest unassigned entry and admits later entries
    while they sit within ``temporal_window`` positions of the seed, within
    ``merge_epsilon`` kernel distance of the running mass-weighted centroid,
    and the group is below ``max_group_size``.  Size-1 groups are discarded.

    The candidates' geometry keys are stacked once and read as band spectra
    (:func:`band_view`).  The centroid changes only when a member is
    admitted, so the distances of all remaining in-window candidates to it
    are taken in one batched call; admitting the first one within
    ``merge_epsilon`` is the choice a one-by-one scan makes.
    """
    candidates = np.flatnonzero((cache.origin == DECODE) & ~cache.protected)
    if candidates.size < 2:
        return []
    layers = cache.keys[:, candidates]
    # KVEntry.geometry_key of every candidate at once, bit for bit.
    stacked = layers.sum(axis=0) / len(layers)
    spectra = band_view(stacked)
    mags = kappa_magnitudes(config.pi, band_frequencies(stacked.shape[1]))
    positions = cache.position[candidates].tolist()
    masses = cache.score_mass[candidates].tolist()
    free = np.ones(candidates.size, dtype=bool)
    groups: list[MergeGroup] = []
    for i, seed in enumerate(positions):
        if not free[i]:
            continue
        end = bisect_right(positions, seed + config.temporal_window)
        pool = i + 1 + np.flatnonzero(free[i + 1:end])
        members = [i]
        keys = [stacked[i]]
        weights = [masses[i]]
        while pool.size and len(members) < config.max_group_size:
            centroid = band_view(_weighted_centroid(keys, weights))
            near = np.flatnonzero(
                d_kappa_batch(spectra[pool], centroid, mags)
                <= config.merge_epsilon)
            if not near.size:
                break
            j = int(pool[near[0]])
            members.append(j)
            keys.append(stacked[j])
            weights.append(masses[j])
            pool = pool[near[0] + 1:]
        if len(members) >= 2:
            free[members] = False
            groups.append(MergeGroup(
                positions=tuple(positions[j] for j in members),
                weights=tuple(weights),
                mass=ltr_sum(weights),
                keys=tuple(keys),
            ))
    return groups


def fold_group(group: MergeGroup, entries: list[KVEntry]) -> KVEntry:
    """Fold a group into one representative carrying the group mass.

    Key and value are the weight-averaged members (:func:`_weighted_centroid`);
    ``group_mass`` is the left-to-right weight sum; the representative sits
    at the earliest member position and covers every member position.
    """
    if len(group) != len(entries):
        raise ValueError("group and entries must align")
    mass = ltr_sum(group.weights)
    if mass <= 0.0:
        raise ValueError("all-zero weights")
    if len(entries) == 1:
        e = entries[0]
        return KVEntry(key=e.key.copy(), value=e.value.copy(),
                       position=e.position, origin=DECODE, score_mass=mass,
                       group_mass=mass, members=e.members)
    return KVEntry(
        key=_weighted_centroid([e.key for e in entries], group.weights),
        value=_weighted_centroid([e.value for e in entries], group.weights),
        position=min(group.positions),
        origin=DECODE,
        score_mass=mass,
        group_mass=mass,
        members=tuple(sorted(p for e in entries for p in e.members)),
    )


@dataclass
class CompressOutcome:
    """What one :func:`cask_compress` call did; a fired one is also the
    cache's record of that consolidation."""

    groups_folded: int = 0
    members_folded: int = 0
    evicted: int = 0

    @property
    def fired(self) -> bool:
        """Whether the call folded or evicted anything."""
        return self.groups_folded > 0 or self.evicted > 0


def keep_order(cache: CacheState, rows: np.ndarray) -> np.ndarray:
    """``rows`` in keep priority: score mass descending, then recency
    (higher position).  Positions are unique, so the order is total."""
    return rows[np.lexsort((-cache.position[rows], -cache.score_mass[rows]))]


def cask_compress(cache: CacheState, config: CaskConfig,
                  budget: int) -> CompressOutcome:
    """Core detection, scratch folding, then eviction down to ``budget``.

    A cache already at or under budget is left untouched (which also makes
    the operation idempotent).  A budget smaller than the detected core
    sets ``cache.core_overflow`` (a regime condition, not an exception) and
    leaves the cache untouched; the outcome does not fire.  Otherwise the
    cache is over a budget that fits the core, so at least one fold or
    eviction happens: the outcome fires and is appended to
    ``cache.compression_events``.  Terminal protected flags are recomputed
    on the final state.
    """
    if cache.n <= budget:
        return CompressOutcome()
    core = detect_core(cache, config)
    if budget < len(core):
        cache.core_overflow = True
        return CompressOutcome()
    outcome = CompressOutcome()
    groups = form_merge_groups(cache, config)
    for group in groups:
        if group.mass <= 0.0:
            continue
        rep = fold_group(group, [cache.entry_at(p) for p in group.positions])
        merge_replace(cache, group.positions, rep)
        outcome.groups_folded += 1
        outcome.members_folded += len(group)
    if cache.n > budget:
        unprotected = np.flatnonzero(~cache.protected)
        n_keep = budget - (cache.n - unprotected.size)
        outcome.evicted = drop(cache, keep_order(cache, unprotected)[n_keep:])
    cache.compression_events.append(outcome)
    # Not redundant: sets the terminal protected flags replay_row's rho_core reads.
    detect_core(cache, config)
    return outcome


def evict_baseline(cache: CacheState, budget: int) -> CacheState:
    """Keep the ``budget`` highest-score entries, recency breaking ties.

    Protection flags are ignored: the baseline has no core concept.  A
    NaN, infinite or negative score mass raises ``ValueError`` naming its
    position, since the keep order is undefined on NaN.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rows = np.arange(cache.n)
    _check_score_mass(cache, rows)
    if cache.n > budget:
        drop(cache, keep_order(cache, rows)[budget:])
    return cache


@dataclass
class MassDiagnostics:
    """Share of oracle top-k score mass held by the core / the covered set."""

    rho_core: float
    rho_rep: float


def mass_diagnostics(core: set[int], covered: set[int],
                     oracle_scores: dict[int, float], k: int
                     ) -> MassDiagnostics:
    """Oracle mass coverage ratios over the top-k scored positions.

    ``covered`` is every position the cache still holds, a folded member
    counting as held by its representative (``covered_positions(cache)``);
    it includes the live ``core``.  Top-k selection orders by score
    descending then position descending; ``k`` beyond the population clamps
    to the population size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if any(s < 0 for s in oracle_scores.values()):
        raise ValueError("oracle scores must be non-negative")
    ranked = sorted(oracle_scores, key=lambda p: (-oracle_scores[p], -p))
    topk = ranked[:k]
    denom = ltr_sum(oracle_scores[p] for p in topk)
    if denom == 0.0:
        rho_core = rho_rep = 0.0
    else:
        rho_core = ltr_sum(oracle_scores[p] for p in topk if p in core) / denom
        rho_rep = ltr_sum(oracle_scores[p] for p in topk
                          if p in covered) / denom
    return MassDiagnostics(rho_core=rho_core, rho_rep=rho_rep)


@dataclass
class PerturbationReport:
    pairs: np.ndarray            # (n_queries, 2) of (lhs, rhs)
    fraction_bounded: float


def perturbation_check(group: MergeGroup, representative: KVEntry,
                       queries: np.ndarray,
                       pi: HorizonDistribution) -> PerturbationReport:
    """Check the consolidation perturbation bound on a query sample.

    lhs is the gap between the group's summed weighted scores and the
    mass-scaled representative score; rhs is the dual-norm-weighted
    within-group dispersion plus the absolute lost mass.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if queries.shape[0] == 0:
        raise ValueError("empty query sample")
    if not group.keys:
        raise ValueError("group carries no keys")
    rep_key = representative.geometry_key()
    delta_m = representative.group_mass - ltr_sum(group.weights)
    dispersion = ltr_sum(w * kappa_norm(k - rep_key, pi)
                         for w, k in zip(group.weights, group.keys))
    pairs = np.empty((queries.shape[0], 2))
    for i, q in enumerate(queries):
        lhs_sum = ltr_sum(w * float(q @ k)
                          for w, k in zip(group.weights, group.keys))
        lhs = abs(lhs_sum - representative.group_mass * float(q @ rep_key))
        rhs = kappa_dual_norm(q, pi) * dispersion + abs(delta_m)
        pairs[i] = (lhs, rhs)
    fraction = float(np.mean(pairs[:, 0] <= pairs[:, 1]))
    return PerturbationReport(pairs=pairs, fraction_bounded=fraction)
