import pytest

from cask.cache import DECODE, PREFIX, CacheState, append, check_invariants
from cask.policies import CaskConfig, CompressOutcome
from cask.twostage import (
    REGIME_BOUNDARY,
    REGIME_DECODE_ACTIVE,
    REGIME_PREFIX_DOMINANT,
    StageConfig,
    finalize_flags,
    stage1_prefix_evict,
    stage2_step,
)
from conftest import bad_integers, make_entry


def prefix_cache(n, budget=10_000, rng=None):
    cache = CacheState(budget=budget)
    for i in range(n):
        mass = 1.0 if rng is None else float(rng.uniform(0.1, 2.0))
        append(cache, make_entry(i, [float(i % 7), 1.0], origin=PREFIX,
                                 score_mass=mass))
    return cache


def test_stage_config_validation():
    with pytest.raises(ValueError):
        StageConfig(budget=0)
    with pytest.raises(ValueError):
        StageConfig(budget=10, prefix_fraction=0.0)
    with pytest.raises(ValueError):
        StageConfig(budget=10, min_decode_slack=-1)
    # Each integer field refuses NaN and fractions too.
    for field, minimum in (("budget", 1), ("min_decode_slack", 0),
                           ("min_prefix_keep", 0)):
        for value in bad_integers(minimum):
            with pytest.raises(ValueError,
                               match=f"{field} must be >= {minimum}"):
                StageConfig(**{"budget": 10, field: value})


def test_stage1_short_prefix_untouched():
    cache = prefix_cache(10)
    cfg = StageConfig(budget=64, prefix_fraction=0.75, min_decode_slack=16)
    exhausted = stage1_prefix_evict(cache, cfg)
    assert not exhausted
    assert len(cache.entries) == 10
    assert cache.compression_events == []


@pytest.mark.parametrize("budget", [1, 3, 4])
def test_stage1_signals_a_prefix_floor_over_the_budget(budget):
    # min_prefix_keep = 4 prefix rows stay even under a smaller budget; the
    # cache then holds more rows than its budget, which only core overflow
    # allows.
    cache = prefix_cache(10, budget=budget)
    stage1_prefix_evict(cache, StageConfig(budget=budget, min_prefix_keep=4))
    assert cache.n == 4
    assert cache.core_overflow == (budget < 4)
    check_invariants(cache)


def test_stage1_trims_to_fraction_and_flags_slack():
    # prefix = B = 256, alpha = 0.9, s_min = 32: trimmed to 230, slack 26
    cache = prefix_cache(256)
    cfg = StageConfig(budget=256, prefix_fraction=0.9, min_decode_slack=32,
                      min_prefix_keep=4)
    exhausted = stage1_prefix_evict(cache, cfg)
    assert len(cache.entries) == 230
    assert exhausted
    assert cache.prefix_budget_exhausted


def test_stage1_keeps_min_prefix():
    cache = prefix_cache(12)
    cfg = StageConfig(budget=8, prefix_fraction=0.25, min_decode_slack=0,
                      min_prefix_keep=6)
    stage1_prefix_evict(cache, cfg)
    assert len(cache.entries) == 6


def test_stage1_min_prefix_keep_at_prefix_count_blocks_eviction():
    cache = prefix_cache(12)
    cfg = StageConfig(budget=8, prefix_fraction=0.25, min_decode_slack=2,
                      min_prefix_keep=12)
    exhausted = stage1_prefix_evict(cache, cfg)
    assert len(cache.entries) == 12  # no eviction possible
    assert exhausted  # slack 8 - 12 < 2, flag still follows the slack rule


def test_stage1_evicts_lowest_mass_prefix(rng):
    cache = prefix_cache(10, rng=rng)
    masses = {e.position: e.score_mass for e in cache.entries}
    cfg = StageConfig(budget=8, prefix_fraction=0.5, min_decode_slack=0,
                      min_prefix_keep=0)
    stage1_prefix_evict(cache, cfg)
    kept = [e.position for e in cache.entries]
    expected = sorted(sorted(masses, key=lambda p: (-masses[p], -p))[:4])
    assert kept == expected


def test_stage1_never_evicts_decode_entries():
    cache = prefix_cache(20)
    append(cache, make_entry(20, [1.0, 1.0], origin=DECODE))
    cfg = StageConfig(budget=8, prefix_fraction=0.5, min_decode_slack=0,
                      min_prefix_keep=0)
    stage1_prefix_evict(cache, cfg)
    assert sum(1 for e in cache.entries if e.origin == DECODE) == 1


def test_stage1_alpha_one_with_overbudget_prefix_forces_exhaustion():
    cache = prefix_cache(300)
    cfg = StageConfig(budget=256, prefix_fraction=1.0, min_decode_slack=1)
    assert stage1_prefix_evict(cache, cfg) is True


def test_stage2_below_budget_no_events(rng):
    cache = prefix_cache(4)
    stage_cfg = StageConfig(budget=32)
    for i in range(8):
        append(cache, make_entry(4 + i, rng.standard_normal(2), origin=DECODE))
        out = stage2_step(cache, CaskConfig(), stage_cfg)
        assert not out.fired
    flags = finalize_flags(cache, stage_cfg)
    assert flags.decode_events == 0
    assert flags.merge_inactive
    assert flags.regime_label == REGIME_BOUNDARY


def test_stage2_overflow_consolidates(rng):
    cache = prefix_cache(4)
    stage_cfg = StageConfig(budget=12, min_decode_slack=0)
    key = rng.standard_normal(2)
    for i in range(20):
        append(cache, make_entry(4 + i, key, origin=DECODE, score_mass=0.5))
        stage2_step(cache, CaskConfig(recency_window=3), stage_cfg)
        assert len(cache.entries) <= 12
    flags = finalize_flags(cache, stage_cfg)
    assert flags.decode_events >= 1
    assert not flags.merge_inactive
    assert flags.regime_label == REGIME_DECODE_ACTIVE


def test_stage2_never_merges_prefix_entries(rng):
    cache = prefix_cache(6)
    prefix_positions = {e.position for e in cache.entries}
    stage_cfg = StageConfig(budget=10, min_decode_slack=0)
    key = rng.standard_normal(2)
    for i in range(16):
        append(cache, make_entry(6 + i, key, origin=DECODE, score_mass=0.5))
        stage2_step(cache, CaskConfig(recency_window=2), stage_cfg)
    for e in cache.entries:
        if e.member_count > 1:
            assert not (set(e.members) & prefix_positions)


def test_decode_events_equal_consolidate_event_count(rng):
    cache = prefix_cache(4)
    stage_cfg = StageConfig(budget=10, min_decode_slack=0)
    outcomes = []
    for i in range(14):
        append(cache, make_entry(4 + i, rng.standard_normal(2), origin=DECODE,
                                 score_mass=0.5))
        outcomes.append(stage2_step(cache, CaskConfig(recency_window=2),
                                    stage_cfg))
    fired = [out for out in outcomes if out.fired]
    assert fired
    assert cache.compression_events == fired
    assert finalize_flags(cache, stage_cfg).decode_events == len(fired)


def test_finalize_label_priorities():
    stage_cfg = StageConfig(budget=8)
    cache = CacheState(budget=8)
    append(cache, make_entry(0, [1.0, 0.0]))
    cache.compression_events.extend(
        [CompressOutcome(evicted=1)] * 3)
    flags = finalize_flags(cache, stage_cfg)
    assert flags.regime_label == REGIME_DECODE_ACTIVE
    assert flags.decode_events == 3

    cache = CacheState(budget=8)
    cache.prefix_budget_exhausted = True
    flags = finalize_flags(cache, stage_cfg)
    assert flags.regime_label == REGIME_PREFIX_DOMINANT
    assert flags.merge_inactive

    flags = finalize_flags(CacheState(budget=8), stage_cfg)
    assert flags.regime_label == REGIME_BOUNDARY
