"""Two-stage budget controller: prefix eviction, then decode consolidation.

Stage 1 runs once at the end of prefill and trims the prompt's cache share
to reserve decode slack; stage 2 runs per decode token and consolidates the
decode trace whenever the budget overflows.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor

import numpy as np

from .cache import PREFIX, CacheState, KVEntry, append, evict
from .policies import CaskConfig, CompressOutcome, cask_compress, keep_order

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
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if not 0.0 < self.prefix_fraction <= 1.0:
            raise ValueError("prefix_fraction must be in (0, 1]")
        if self.min_decode_slack < 0:
            raise ValueError("min_decode_slack must be >= 0")
        if self.min_prefix_keep < 0:
            raise ValueError("min_prefix_keep must be >= 0")


@dataclass
class RegimeFlags:
    prefix_budget_exhausted: bool
    merge_inactive: bool
    core_overflow: bool
    decode_events: int
    regime_label: str


def stage1_prefix_evict(cache: CacheState, config: StageConfig) -> bool:
    """Trim prefix entries to floor(prefix_fraction * budget) once, post-prefill.

    Evicts the lowest-score prefix entries (never below ``min_prefix_keep``)
    and flags ``prefix_budget_exhausted`` when the remaining decode slack
    falls short of ``min_decode_slack``.  Returns the flag, which is also
    stored on the cache.
    """
    prefix = np.flatnonzero(cache.origin == PREFIX)
    cap = floor(config.prefix_fraction * config.budget)
    if prefix.size > cap:
        target = max(cap, config.min_prefix_keep)
        evict(cache, cache.position[keep_order(cache, prefix)[target:]])
    prefix_after = int(np.count_nonzero(cache.origin == PREFIX))
    exhausted = (config.budget - prefix_after) < config.min_decode_slack
    cache.prefix_budget_exhausted = exhausted
    return exhausted


def stage2_step(cache: CacheState, new_entry: KVEntry,
                cask_config: CaskConfig,
                stage_config: StageConfig) -> CompressOutcome:
    """Append a decode entry and consolidate when the budget overflows.

    Prefix entries are never merge candidates (core detection and grouping
    only see decode entries); core overflow propagates as a cache flag.
    """
    append(cache, new_entry)
    if cache.n > stage_config.budget:
        return cask_compress(cache, cask_config, stage_config.budget)
    return CompressOutcome()


def finalize_flags(cache: CacheState,
                   config: StageConfig | None = None) -> RegimeFlags:
    """Summarize the replay's regime once decoding is finished.

    The flags depend on the cache alone; ``config`` is accepted and unused.
    """
    events = len(cache.compression_events)
    if events > 0:
        label = REGIME_DECODE_ACTIVE
    elif cache.prefix_budget_exhausted:
        label = REGIME_PREFIX_DOMINANT
    else:
        label = REGIME_BOUNDARY
    return RegimeFlags(
        prefix_budget_exhausted=cache.prefix_budget_exhausted,
        merge_inactive=(events == 0),
        core_overflow=cache.core_overflow,
        decode_events=events,
        regime_label=label,
    )
