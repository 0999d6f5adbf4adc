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
from math import floor, inf, isnan, nan
from typing import Sequence

import numpy as np

from .cache import (
    DECODE,
    CacheState,
    KVEntry,
    at_least,
    covered_positions,
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
            raise ValueError("anchor_quantile must be in [0, 1], got "
                             f"{self.anchor_quantile!r}")
        if not self.merge_epsilon >= 0:
            raise ValueError("merge_epsilon must be >= 0, got "
                             f"{self.merge_epsilon!r}")
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


def _protect(cache: CacheState, config: CaskConfig, decode: np.ndarray,
             masses: np.ndarray) -> np.ndarray:
    """Protect and return the core among the ``decode`` rows, whose score
    masses are ``masses``: the one rule that decides which decode rows are
    core.  Drops any due marking first: this one replaces it.

    Core = the first ``sink_count`` decode rows + the last
    ``recency_window`` + the rows whose score mass is strictly above the
    ``anchor_quantile`` quantile of ``masses``.  When the sinks and the
    recency window cover every decode row, every one is core, and
    ``masses`` is not read."""
    cache._core_due = None
    protected = cache.protected
    protected[:] = False
    if config.sink_count + config.recency_window >= decode.size:
        protected[decode] = True
        return decode
    core = masses > linear_quantile(sorted(masses.tolist()),
                                    config.anchor_quantile)
    core[:config.sink_count] = True
    if config.recency_window > 0:
        core[-config.recency_window:] = True
    rows = decode[core]
    protected[rows] = True
    return rows


def detect_core(cache: CacheState, config: CaskConfig) -> set[int]:
    """Mark the protected core among decode entries (the rule of
    :func:`_protect`) and return its positions.

    Flags are recomputed from scratch on every call.  A NaN, infinite or
    negative decode score mass raises ``ValueError`` naming its position
    before any flag is written: it would make the quantile NaN and drop
    every anchor.
    """
    if not cache.n:
        raise ValueError("cache is empty")
    decode = cache.is_decode.nonzero()[0]
    _check_score_mass(cache, decode)
    core = _protect(cache, config, decode, cache.score_mass[decode])
    return set(cache.position[core].tolist())


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

# The range :func:`_rounding_margin` covers.  Keys and weights up to
# _HEAVIEST keep every weighted sum far from overflow.  A centroid measured
# at a group weight of at least _LIGHTEST_ANCHOR divides by a normal number,
# so a product that underflows moves it by less than 2**-600 per component;
# a lighter one (zero, the mean branch, included) certifies nothing.
_HEAVIEST = 2.0 ** 400
_LIGHTEST_ANCHOR = 2.0 ** -400


def _rounding_margin(stacked: np.ndarray, masses: list[float],
                     mags: np.ndarray, size: int) -> float:
    """mu of :func:`form_merge_groups`: a bound, five times over, on how far
    float64 rounding can move one certified decision; NaN, which certifies
    nothing, when a key or a weight leaves the range it covers.  Computed
    once per call, at the call's first admission.

    With u = 2**-53 and S = sum_f |kappa(w_f)| * max|key component| (a
    band's modulus is at most sqrt 2 times its largest component), a
    measured distance rounds by at most 2 sqrt 2 (bands + 4) u S, and a
    running centroid of m members sits within sqrt 2 (2 m + 1) u S of the
    exact one in merge distance.  A decision compares two measured
    distances, each to its own running centroid, through the drift bound's
    own arithmetic: about sqrt 2 (8 m + 4 bands + 30) u S in all.  mu is
    2**-47 (size + bands + 8) S, over five times that for any m <= size,
    plus 2**-600 per component for products that underflow.
    """
    scale = float(np.abs(stacked).max())
    if not (scale <= _HEAVIEST and 0.0 <= min(masses)
            and max(masses) <= _HEAVIEST):
        return nan
    bands = stacked.shape[1] // 2
    return (2.0 ** -47 * (size + bands + 8) * float(mags.sum())
            * (scale + 2.0 ** -600))


def form_merge_groups(cache: CacheState,
                      config: CaskConfig) -> list[MergeGroup]:
    """Greedy temporal scan over unprotected decode entries, fold
    representatives included.

    A group seeds at the earliest unassigned entry and admits later entries
    while they sit within ``temporal_window`` positions of the seed, within
    ``merge_epsilon`` kernel distance of the running mass-weighted centroid,
    and the group is below ``max_group_size``.  Size-1 groups are discarded.

    The candidates' geometry keys are stacked once and read as band spectra
    (:func:`band_view`).  One batched call per block of seed rows measures
    every candidate against every seed alone (centroid ``(w * k) / w``,
    ``k`` where ``w == 0``).  A seed with no free, in-window candidate
    within ``merge_epsilon`` in its row of that table forms no group.  Any
    other scans its pool, the free entries after it in the window, in one
    loop that takes every admission: first the first pool member within
    ``merge_epsilon`` in the table, at zero slack.

    Later admissions are certified where they can be, not re-measured.  The
    merge distance d(x, c) = sum_f |kappa(w_f)| * |x_f - c_f| is a seminorm
    of x - c, so |d(x, c') - d(x, c)| <= d(c, c').  Every pool member has a
    measured distance d to the last measured centroid (at first the seed's,
    its row of the table), of group weight T.  Members of weights w_i
    admitted since move the exact centroid by at most
    sum_i w_i * d_i / (T + sum_i w_i), so with the rounding margin mu
    (:func:`_rounding_margin`) counted on each distance, a member with
    d + drift + mu <= merge_epsilon is admitted and one with
    d - drift - mu > merge_epsilon is passed over, each as a fresh
    measurement would decide.  Any other member, or any member while the
    last measured centroid's weight is 0 (the mean) or too light, is
    undecided: the centroid of the members so far is built
    (:func:`_weighted_centroid`, its adds in member order), and the rest of
    the pool is measured against it in one batched call.  The first member
    measured within ``merge_epsilon`` is admitted, the choice a one-by-one
    scan makes.
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
    window, epsilon = config.temporal_window, config.merge_epsilon
    size = config.max_group_size
    margin = None
    free = np.ones(c, dtype=bool)
    groups: list[MergeGroup] = []
    block = max(1, _TABLE_PAIRS // c)
    for start in range(0, c, block):
        stop = min(start + block, c)
        lo = start + 1
        hi = bisect_right(positions, positions[stop - 1] + window)
        gap = position[lo:hi] - position[start:stop, None]
        table = d_kappa_batch(spectra[None, lo:hi],
                              seed_centroids[start:stop, None], mags)
        within = (table <= epsilon) & (gap > 0) & (gap <= window) \
            & free[lo:hi]
        for i in (start + within.any(axis=1).nonzero()[0]).tolist():
            if not free[i]:
                continue
            end = bisect_right(positions, positions[i] + window)
            pool = i + 1 + free[i + 1:end].nonzero()[0]
            # The pool's distances to the last measured centroid (at first
            # the seed's, its row of the table), that centroid's weight,
            # and sum w * (d + mu) over the members admitted since.
            dist = table[i - start, pool - lo].tolist()
            members, total = [i], 0.0 + masses[i]
            anchor, lead, drifted = masses[i], 0.0, False
            for k, p in enumerate(pool.tolist()):
                if len(members) == size:
                    break
                d, slack = dist[k], 0.0
                if drifted:
                    slack = lead / total + margin if not isnan(margin) \
                        and anchor >= _LIGHTEST_ANCHOR else nan
                    if not (d + slack <= epsilon or d - slack > epsilon):
                        centroid = _weighted_centroid(
                            stacked[members], [masses[q] for q in members])
                        dist[k:] = d_kappa_batch(spectra[pool[k:]],
                                                 band_view(centroid),
                                                 mags).tolist()
                        d, slack = dist[k], 0.0
                        anchor, lead, drifted = total, 0.0, False
                if d + slack <= epsilon:
                    if margin is None:
                        margin = _rounding_margin(stacked, masses, mags, size)
                    members.append(p)
                    total += masses[p]
                    lead += masses[p] * (d + margin)
                    drifted = True
            if len(members) > 1:
                free[members] = False
                groups.append(MergeGroup(
                    positions=tuple(positions[j] for j in members),
                    weights=tuple(masses[j] for j in members), mass=total))
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
    ``cache.compression_events``.

    Grouping (:func:`form_merge_groups`) runs only when at least two decode
    rows are outside the core (:func:`_protect`): fewer cannot form a group.

    A fired call leaves the core of its final state owed to the cache, not
    marked (:class:`cask.cache.CacheState`); the next call marks the core
    afresh and drops an owed marking unread.

    ``budget`` must be an integer of at least 1, and every row's score mass
    is checked once, first (the eviction ranks prefix rows too): a NaN,
    infinite or negative one raises ``ValueError`` naming its position, and
    the cache is left untouched.
    """
    at_least("budget", budget, 1)
    if cache.n <= budget:
        return CompressOutcome()
    _check_score_mass(cache, slice(None))
    decode = cache.is_decode.nonzero()[0]
    core = _protect(cache, config, decode, cache.score_mass[decode])
    if budget < len(core):
        cache.core_overflow = True
        return CompressOutcome()
    groups_folded = members_folded = evicted = 0
    groups = form_merge_groups(cache, config) \
        if decode.size - core.size >= 2 else ()
    for group in groups:
        if group.mass <= 0.0:
            continue
        rep = fold_group(group, cache._entries(cache.row_of(group.positions)))
        merge_replace(cache, group.positions, rep)
        groups_folded += 1
        members_folded += len(group)
    if cache.n > budget:
        unprotected = (~cache.protected).nonzero()[0]
        gone = lowest(cache.score_mass[unprotected], cache.n - budget)
        evicted = drop(cache, unprotected[gone])
    outcome = CompressOutcome(groups_folded, members_folded, evicted)
    cache.compression_events.append(outcome)
    # The terminal flags rho_core reads, marked unchecked when first read:
    # a fold's mass is finite and > 0.
    decode = cache.is_decode.nonzero()[0]
    cache._core_due = (_protect, config, decode, cache.score_mass[decode])
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


def mass_diagnostics(cache: CacheState, reference: CacheState, k: int
                     ) -> MassDiagnostics:
    """Shares of the ``reference`` run's top-k score mass that ``cache``
    holds: in its protected core (``rho_core``), and anywhere it covers, a
    folded member counting as held by its representative (``rho_rep``).

    ``reference`` is a full-KV run's terminal cache, the oracle score
    source.  Top-k selection orders by score descending then position
    descending; ``k`` beyond the population clamps to the population size.
    A NaN, infinite or negative reference score mass raises ``ValueError``
    naming its position, since it has no place in the ranking and would
    make both ratios NaN.
    """
    at_least("k", k, 1)
    _check_score_mass(reference, slice(None))
    topk = np.lexsort((-reference.position, -reference.score_mass))[:k]
    top = reference.position[topk].tolist()
    masses = reference.score_mass[topk].tolist()
    denom = ltr_sum(masses)
    if denom == 0.0:
        return MassDiagnostics(rho_core=0.0, rho_rep=0.0)
    core = set(cache.position[cache.protected].tolist())
    covered = covered_positions(cache)
    return MassDiagnostics(
        rho_core=ltr_sum(m for p, m in zip(top, masses) if p in core) / denom,
        rho_rep=ltr_sum(m for p, m in zip(top, masses) if p in covered) / denom)


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
