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
from functools import cached_property, lru_cache
from math import floor, inf
from typing import Sequence

import numpy as np

from .cache import (
    DECODE,
    CacheState,
    KVEntry,
    at_least,
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
        at_least("sink_count", self.sink_count, 0)
        at_least("recency_window", self.recency_window, 0)
        if not 0.0 <= self.anchor_quantile <= 1.0:
            raise ValueError("anchor_quantile must be in [0, 1]")
        if not self.merge_epsilon >= 0:
            raise ValueError("merge_epsilon must be >= 0")
        at_least("temporal_window", self.temporal_window, 1)
        at_least("max_group_size", self.max_group_size, 2)
        at_least("horizon", self.horizon, 0)

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


def _check_score_mass(cache: CacheState, rows) -> None:
    """Raise ``ValueError`` naming the first of ``rows`` (any index of the
    live rows) whose score mass is NaN, infinite or negative."""
    masses = cache.score_mass[rows]
    if not masses.size or (np.minimum.reduce(masses) >= 0.0
                            and np.maximum.reduce(masses) < inf):
        return
    first = int(np.argmin((masses >= 0.0) & (masses < inf)))
    raise ValueError(f"entry at position {cache.position[rows][first]} "
                     f"has score_mass {float(masses[first])}; expected "
                     f"finite >= 0")


def _mark_core(cache: CacheState, config: CaskConfig) -> np.ndarray:
    """Protect and return :func:`detect_core`'s rows; masses unchecked."""
    decode = cache.is_decode.nonzero()[0]
    cache.protected[:] = False
    if not decode.size:
        return decode
    masses = cache.score_mass[decode]
    core = masses > linear_quantile(sorted(masses.tolist()),
                                    config.anchor_quantile)
    core[:config.sink_count] = True
    if config.recency_window > 0:
        core[-config.recency_window:] = True
    rows = decode[core]
    cache.protected[rows] = True
    return rows


def detect_core(cache: CacheState, config: CaskConfig) -> set[int]:
    """Mark the protected core among decode entries and return its positions.

    Core = first ``sink_count`` decode entries + last ``recency_window``
    decode entries + decode entries whose accumulated score mass is strictly
    above the ``anchor_quantile`` quantile of decode score mass.  Flags are
    recomputed from scratch on every call.  A NaN, infinite or negative
    decode score mass raises ``ValueError`` naming its position before any
    flag is written: it would make the quantile NaN and drop every anchor.
    """
    if not cache.n:
        raise ValueError("cache is empty")
    _check_score_mass(cache, cache.is_decode)
    return set(cache.position[_mark_core(cache, config)].tolist())


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


@lru_cache(maxsize=64)
def _kappa_magnitudes(config: CaskConfig, dim: int) -> np.ndarray:
    """``kappa_magnitudes(config.pi, band_frequencies(dim))``, computed once
    per config and key width.  Every caller shares the array, so it is
    read-only."""
    mags = kappa_magnitudes(config.pi, band_frequencies(dim))
    mags.setflags(write=False)
    return mags


# Seed-candidate pairs in one block of form_merge_groups' distance table:
# c candidates take blocks of ``_TABLE_PAIRS // c`` seed rows, so a budget in
# the hundreds never holds c**2 differences of spectra at once.
_TABLE_PAIRS = 4096


def form_merge_groups(cache: CacheState,
                      config: CaskConfig) -> list[MergeGroup]:
    """Greedy temporal scan over unprotected decode entries, fold
    representatives included.

    A group seeds at the earliest unassigned entry and admits later entries
    while they sit within ``temporal_window`` positions of the seed, within
    ``merge_epsilon`` kernel distance of the running mass-weighted centroid,
    and the group is below ``max_group_size``.  Size-1 groups are discarded.

    The candidates' geometry keys are stacked once and read as band spectra
    (:func:`band_view`).  A seed's first admission is measured against the
    seed alone, whose centroid is ``(w * k) / w`` (``k`` where ``w == 0``),
    so one batched call per block of seed rows takes every candidate's
    distance to every seed's centroid.  A seed with no free, in-window
    candidate within ``merge_epsilon`` in its row of that table forms no
    group and costs no further work; any other admits the first one.  From
    then on the centroid changes only when a member is admitted, by one
    term of its running sums, and the distances of all remaining in-window
    candidates to it are taken in one batched call.  Admitting the first
    one within ``merge_epsilon`` is the choice a one-by-one scan makes.
    """
    candidates = (cache.is_decode & ~cache.protected).nonzero()[0]
    c = candidates.size
    if c < 2:
        return []
    layers = cache.keys[:, candidates]
    # KVEntry.geometry_key of every candidate at once, bit for bit.
    stacked = layers.sum(axis=0) / len(layers)
    spectra = band_view(stacked)
    mags = _kappa_magnitudes(config, stacked.shape[1])
    position = cache.position[candidates]
    mass = cache.score_mass[candidates]
    # _weighted_centroid([k], [w]) of every candidate, bit for bit.
    scale = np.where(mass == 0.0, 1.0, mass)[:, None]
    seed_centroids = band_view(scale * stacked / scale)
    positions, masses = position.tolist(), mass.tolist()
    window = config.temporal_window
    free = np.ones(c, dtype=bool)
    groups: list[MergeGroup] = []
    block = max(1, _TABLE_PAIRS // c)
    for start in range(0, c, block):
        stop = min(start + block, c)
        lo = start + 1
        hi = bisect_right(positions, positions[stop - 1] + window)
        gap = position[lo:hi] - position[start:stop, None]
        within = (d_kappa_batch(spectra[None, lo:hi],
                                seed_centroids[start:stop, None], mags)
                  <= config.merge_epsilon) \
            & (gap > 0) & (gap <= window) & free[lo:hi]
        for i in (start + within.any(axis=1).nonzero()[0]).tolist():
            partners = (within[i - start] & free[lo:hi]).nonzero()[0]
            if not free[i] or not partners.size:
                continue
            j = lo + int(partners[0])
            members = [i, j]
            acc = masses[i] * stacked[i] + masses[j] * stacked[j]
            total = 0.0 + masses[i] + masses[j]
            end = bisect_right(positions, positions[i] + window)
            pool = j + 1 + free[j + 1:end].nonzero()[0]
            while pool.size and len(members) < config.max_group_size:
                centroid = acc / total if total else stacked[members].mean(0)
                near = (d_kappa_batch(spectra[pool], band_view(centroid), mags)
                        <= config.merge_epsilon).nonzero()[0]
                if not near.size:
                    break
                j = int(pool[near[0]])
                members.append(j)
                acc += masses[j] * stacked[j]
                total += masses[j]
                pool = pool[near[0] + 1:]
            free[members] = False
            groups.append(MergeGroup(
                positions=tuple(positions[j] for j in members),
                weights=tuple(masses[j] for j in members),
                mass=total,
                keys=tuple(stacked[j] for j in members),
            ))
    return groups


def fold_group(group: MergeGroup, entries: list[KVEntry]) -> KVEntry:
    """Fold a group into one representative carrying the group mass.

    Key and value are the weight-averaged members (:func:`_weighted_centroid`);
    ``group_mass`` is the left-to-right weight sum; the representative sits
    at the earliest member position and covers every member position.  A
    one-member group is refused, as :func:`cask.cache.merge_replace` does.
    """
    if len(group) != len(entries):
        raise ValueError("group and entries must align")
    if len(entries) == 1:
        raise ValueError("singleton group")
    mass = ltr_sum(group.weights)
    if mass <= 0.0:
        raise ValueError("all-zero weights")
    return KVEntry(
        key=_weighted_centroid([e.key for e in entries], group.weights),
        value=_weighted_centroid([e.value for e in entries], group.weights),
        position=min(group.positions),
        origin=DECODE,
        score_mass=mass,
        group_mass=mass,
        members=tuple(sorted(p for e in entries for p in e.members)),
    )


@dataclass(frozen=True)
class CompressOutcome:
    """What one :func:`cask_compress` call did; a fired one is also the
    cache's record of that consolidation, frozen because forks share it."""

    groups_folded: int = 0
    members_folded: int = 0
    evicted: int = 0

    @property
    def fired(self) -> bool:
        """Whether the call folded or evicted anything."""
        return self.groups_folded > 0 or self.evicted > 0


def lowest(masses: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` lowest ``masses`` (none when ``count <= 0``),
    the one removal rule of the prefix trim, the baseline and consolidation.

    Ties go to the lower index (a stable sort), so over rows in position
    order an equal mass drops the older row.  One index is the first
    minimum, ``argmin``, taken without the sort."""
    if count == 1:
        return masses.argmin(keepdims=True)
    return masses.argsort(kind="stable")[:max(count, 0)]


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

    Every row's score mass is checked once, first (the eviction ranks prefix
    rows too): a NaN, infinite or negative one raises ``ValueError`` naming
    its position, and the cache is left untouched.
    """
    if cache.n <= budget:
        return CompressOutcome()
    _check_score_mass(cache, slice(None))
    if budget < len(_mark_core(cache, config)):
        cache.core_overflow = True
        return CompressOutcome()
    groups_folded = members_folded = evicted = 0
    for group in form_merge_groups(cache, config):
        if group.mass <= 0.0:
            continue
        rows = cache.row_of(group.positions)
        rep = fold_group(group, [cache._entry(row) for row in rows])
        merge_replace(cache, group.positions, rep)
        groups_folded += 1
        members_folded += len(group)
    if cache.n > budget:
        unprotected = (~cache.protected).nonzero()[0]
        gone = lowest(cache.score_mass[unprotected], cache.n - budget)
        evicted = drop(cache, unprotected[gone])
    outcome = CompressOutcome(groups_folded, members_folded, evicted)
    cache.compression_events.append(outcome)
    # The terminal flags rho_core reads; a fold's mass is finite and > 0.
    _mark_core(cache, config)
    return outcome


def evict_baseline(cache: CacheState, budget: int) -> CacheState:
    """Keep the ``budget`` highest-score entries, recency breaking ties:
    the rest go by :func:`lowest`.

    Protection flags are ignored: the baseline has no core concept.  A
    NaN, infinite or negative score mass raises ``ValueError`` naming its
    position, since the order is undefined on NaN.
    """
    at_least("budget", budget, 1)
    _check_score_mass(cache, slice(None))
    if cache.n > budget:
        drop(cache, lowest(cache.score_mass, cache.n - budget))
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
    to the population size.  A NaN, infinite or negative score raises
    ``ValueError`` naming its position, since it has no place in the
    ranking and would make both ratios NaN.
    """
    at_least("k", k, 1)
    count = len(oracle_scores)
    positions = np.fromiter(oracle_scores, np.int64, count)
    scores = np.fromiter(oracle_scores.values(), np.float64, count)
    if count and not (np.minimum.reduce(scores) >= 0.0
                      and np.maximum.reduce(scores) < inf):
        p = int(positions[np.argmin((scores >= 0.0) & (scores < inf))])
        raise ValueError(f"oracle score at position {p} is "
                         f"{oracle_scores[p]}; expected finite >= 0")
    topk = np.lexsort((-positions, -scores))[:k]
    top = list(zip(positions[topk].tolist(), scores[topk].tolist()))
    denom = ltr_sum(s for _, s in top)
    if denom == 0.0:
        rho_core = rho_rep = 0.0
    else:
        rho_core = ltr_sum(s for p, s in top if p in core) / denom
        rho_rep = ltr_sum(s for p, s in top if p in covered) / denom
    return MassDiagnostics(rho_core=rho_core, rho_rep=rho_rep)


@dataclass
class PerturbationReport:
    pairs: np.ndarray            # (n_queries, 2) of (lhs, rhs)

    @property
    def fraction_bounded(self) -> float:
        """Share of queries whose lhs is within its rhs."""
        return float(np.mean(self.pairs[:, 0] <= self.pairs[:, 1]))


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
    return PerturbationReport(pairs=pairs)
