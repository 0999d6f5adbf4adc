"""Two-stage budget controller: prefix eviction, then decode consolidation.

Stage 1 runs once at the end of prefill and trims the prompt's cache share
to reserve decode slack; stage 2 runs per decode token and consolidates the
decode trace whenever the budget overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .cache import CacheState, at_least, evict
from .policies import (
    CaskConfig,
    CompressOutcome,
    _check_score_mass,
    cask_compress,
    lowest,
)

REGIME_DECODE_ACTIVE = "decode-active"
REGIME_PREFIX_DOMINANT = "prefix-dominant"
REGIME_BOUNDARY = "boundary"


@dataclass
class StageConfig:
    budget: int
    prefix_fraction: float = 0.75
    min_decode_slack: int = 16
    min_prefix_keep: int = 4

    def __post_init__(self):
        at_least("budget", self.budget, 1)
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError("prefix_fraction must be in (0, 1], got "
                             f"{self.prefix_fraction!r}")
        at_least("min_decode_slack", self.min_decode_slack, 0)
        at_least("min_prefix_keep", self.min_prefix_keep, 0)


@dataclass
class RegimeFlags:
    """A replay's regime flags; whether merging stayed inactive and the
    regime label follow from the stored fields."""

    prefix_budget_exhausted: bool
    core_overflow: bool
    decode_events: int

    @property
    def merge_inactive(self) -> bool:
        return self.decode_events == 0

    @property
    def regime_label(self) -> str:
        if self.decode_events > 0:
            return REGIME_DECODE_ACTIVE
        if self.prefix_budget_exhausted:
            return REGIME_PREFIX_DOMINANT
        return REGIME_BOUNDARY


def stage1_prefix_evict(cache: CacheState, config: StageConfig) -> bool:
    """Trim prefix entries to floor(prefix_fraction * budget) once, post-prefill.

    Evicts the lowest-score prefix entries (:func:`lowest`; never below
    ``min_prefix_keep``) and flags ``prefix_budget_exhausted`` when the
    remaining decode slack falls short of ``min_decode_slack``.  Returns
    the flag, which is also stored on the cache; a cache left over a budget
    below ``min_prefix_keep`` sets ``core_overflow``.  A NaN, infinite or
    negative prefix score mass raises ``ValueError`` naming its position
    before anything is evicted.
    """
    prefix = (~cache.is_decode).nonzero()[0]
    cap = floor(config.prefix_fraction * config.budget)
    if prefix.size > cap:
        _check_score_mass(cache, prefix)
        target = max(cap, config.min_prefix_keep)
        gone = lowest(cache.score_mass[prefix], prefix.size - target)
        evict(cache, cache.position[prefix[gone]])
        cache.core_overflow |= cache.n > config.budget
    prefix_after = cache.n - int(np.count_nonzero(cache.is_decode))
    exhausted = (config.budget - prefix_after) < config.min_decode_slack
    cache.prefix_budget_exhausted = exhausted
    return exhausted


def stage2_step(cache: CacheState, cask_config: CaskConfig,
                stage_config: StageConfig) -> CompressOutcome:
    """Consolidate once a decode entry's append overflows the budget.

    Prefix entries are never merge candidates (core detection and grouping
    only see decode entries); core overflow propagates as a cache flag.
    """
    if cache.n > stage_config.budget:
        return cask_compress(cache, cask_config, stage_config.budget)
    return CompressOutcome()


def finalize_flags(cache: CacheState,
                   config: StageConfig | None = None) -> RegimeFlags:
    """Read the replay's regime flags off its terminal cache.

    The flags depend on the cache alone; ``config`` is accepted and unused.
    """
    return RegimeFlags(
        prefix_budget_exhausted=cache.prefix_budget_exhausted,
        core_overflow=cache.core_overflow,
        decode_events=len(cache.compression_events),
    )
