import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from cask.cache import (
    DECODE,
    PREFIX,
    CacheError,
    CacheState,
    KVEntry,
    append,
    check_invariants,
    covered_positions,
    evict,
    merge_replace,
    terminal_saved_ratio,
)
from cask.policies import (
    CaskConfig,
    cask_compress,
    evict_baseline,
    fold_group,
    form_merge_groups,
)
from conftest import fill_cache, make_entry


def test_append_counts():
    cache = CacheState(budget=8)
    append(cache, make_entry(0, [1.0, 0.0]))
    assert len(cache.entries) == 1
    assert cache.total_appended == 1


def test_append_rejects_non_monotone_position():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CacheError):
        append(cache, make_entry(1, [2.0, 2.0]))


@pytest.mark.parametrize("key, value, message", [
    (np.zeros(4), np.zeros(3), r"key shape \(4,\) and value shape \(3,\)"),
    (np.zeros((2, 4)), np.zeros((1, 4)),
     r"key shape \(2, 4\) and value shape \(1, 4\)"),
    (np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), r"neither \(L, d\) nor"),
])
def test_append_rejects_a_malformed_entry(key, value, message):
    # Such an entry used to be accepted; the next forward_step then failed.
    cache = fill_cache([[1.0, 0.0]])
    with pytest.raises(CacheError, match=message):
        append(cache, KVEntry(key=key, value=value, position=5))
    assert len(cache) == 1 and cache.total_appended == 1


def test_total_appended_survives_compression():
    cache = fill_cache([[float(i), 0.0] for i in range(10)])
    evict(cache, {3, 4, 5})
    assert cache.total_appended == 10
    assert len(cache.entries) == 7


def test_evict_empty_set_is_noop():
    cache = fill_cache([[1.0, 0.0]])
    evict(cache, set())
    assert len(cache.entries) == 1
    assert cache.compression_events == []


def test_evict_protected_raises():
    cache = CacheState(budget=4)
    append(cache, make_entry(0, [1.0, 0.0], protected=True))
    with pytest.raises(CacheError, match="protected"):
        evict(cache, {0})


def test_evict_records_no_event():
    # Only a fired decode consolidation is a compression event.
    cache = fill_cache([[float(i), 0.0] for i in range(5)])
    evict(cache, {1, 2})
    assert [e.position for e in cache.entries] == [0, 3, 4]
    assert cache.evicted_tokens == 2
    assert cache.compression_events == []


def rep_for(entries, weights=None):
    weights = weights if weights is not None else [e.score_mass for e in entries]
    mass = 0.0
    for w in weights:
        mass += w
    key = sum(w * e.key for w, e in zip(weights, entries)) / mass
    return KVEntry(key=key, value=key.copy(), position=entries[0].position,
                   origin=DECODE, score_mass=mass, group_mass=mass,
                   members=tuple(p for e in entries for p in e.members))


def test_merge_replace_reduces_count():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rep = rep_for(cache.entries[:2])
    merge_replace(cache, [0, 1], rep)
    assert len(cache.entries) == 2
    assert cache.entries[0].position == 0
    assert cache.entries[0].member_count == 2


def test_merge_replace_mass_mismatch():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    rep = rep_for(cache.entries)
    rep.group_mass += 0.5
    with pytest.raises(CacheError, match="mass mismatch"):
        merge_replace(cache, [0, 1], rep)


def test_merge_replace_rejects_singleton():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CacheError, match="singleton"):
        merge_replace(cache, [0], cache.entries[0])


def test_merge_replace_rejects_protected_member():
    cache = CacheState(budget=8)
    append(cache, make_entry(0, [1.0, 0.0], protected=True))
    append(cache, make_entry(1, [0.0, 1.0]))
    rep = rep_for(cache.entries)
    with pytest.raises(CacheError, match="protected"):
        merge_replace(cache, [0, 1], rep)


def test_merge_all_scratch_with_four_protected():
    # 10 entries, 4 protected: merging the 6 unprotected leaves 5
    cache = CacheState(budget=16)
    for i in range(10):
        append(cache, make_entry(i, [float(i), 1.0], protected=i < 4))
    scratch = cache.entries[4:]
    merge_replace(cache, [e.position for e in scratch], rep_for(scratch))
    assert len(cache.entries) == 5


def test_saved_ratio_identity_case():
    cache = fill_cache([[1.0, 0.0]] * 1)
    assert terminal_saved_ratio(cache) == 0.0


def test_saved_ratio_formula():
    cache = CacheState(budget=300)
    for i in range(256):
        append(cache, make_entry(i, [1.0, 0.0]))
    evict(cache, set(range(64, 256)))
    assert len(cache.entries) == 64
    assert terminal_saved_ratio(cache) == 0.75


def test_saved_ratio_empty_history():
    with pytest.raises(CacheError):
        terminal_saved_ratio(CacheState(budget=4))


def test_covered_positions_includes_folded_members():
    cache = fill_cache([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    merge_replace(cache, [0, 1], rep_for(cache.entries[:2]))
    assert covered_positions(cache) == {0, 1, 2}


def test_merge_replace_keeps_positions_strictly_increasing():
    cache = fill_cache([[float(i), 1.0] for i in range(8)])
    group = [cache.entries[i] for i in (2, 4, 5)]
    merge_replace(cache, [2, 4, 5], rep_for(group))
    positions = [e.position for e in cache.entries]
    assert positions == sorted(positions)
    assert positions == [0, 1, 2, 3, 6, 7]


@given(st.lists(st.sampled_from(["append", "evict", "merge"]),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_conservation_of_history(ops, seed):
    # total_appended == live member_count sum + evicted token count
    rng = np.random.default_rng(seed)
    cache = CacheState(budget=10_000)
    next_pos = 0
    for op in ops:
        if op == "append" or len(cache.entries) < 3:
            append(cache, make_entry(next_pos, rng.standard_normal(4),
                                     score_mass=float(rng.uniform(0.1, 2.0))))
            next_pos += 1
        elif op == "evict":
            victim = rng.choice([e.position for e in cache.entries])
            evict(cache, {int(victim)})
        else:
            k = int(rng.integers(2, min(4, len(cache.entries)) + 1))
            idx = rng.choice(len(cache.entries), size=k, replace=False)
            group = sorted((cache.entries[i] for i in idx),
                           key=lambda e: e.position)
            merge_replace(cache, [e.position for e in group], rep_for(group))
    live = sum(e.member_count for e in cache.entries)
    assert cache.total_appended == live + cache.evicted_tokens


# --- check_invariants ---------------------------------------------------------

def test_check_invariants_accepts_folds_and_evictions():
    cache = fill_cache([[float(i), 0.0] for i in range(5)], budget=3)
    rep = make_entry(0, [0.5, 0.0], score_mass=2.0, group_mass=2.0)
    rep.members = (0, 1)
    merge_replace(cache, [0, 1], rep)
    evict(cache, [4])
    check_invariants(cache)
    cache.budget = 2
    cache.core_overflow = True
    check_invariants(cache)


@pytest.mark.parametrize("breakage, message", [
    ("order", "position 1 follows 2"),
    ("count", "live members"),
    ("overlap", "covers \\[1\\], already covered"),
    ("members-start", "members \\(3,\\); they must start at 2"),
    ("members-order", "members \\(0, 0\\); they must start at 0 and "
                      "strictly increase"),
    ("budget", "exceed budget 2 without core overflow"),
    ("rows", "buffers disagree with 1000 live rows"),
    ("stray-members", "members are recorded for position 7, which holds "
                      "no live entry"),
])
def test_check_invariants_names_the_broken_invariant(breakage, message):
    cache = fill_cache([[float(i), 0.0] for i in range(3)], budget=3)
    if breakage == "order":
        cache.position[1:] = cache.position[[2, 1]]
    elif breakage == "count":
        cache.evicted_tokens += 1
    elif breakage == "overlap":
        cache.members[0] = (0, 1)
        cache.evicted_tokens -= 1
    elif breakage == "members-start":
        cache.members[2] = (3,)
    elif breakage == "members-order":
        cache.members[0] = (0, 0)
        cache.evicted_tokens -= 1
    elif breakage == "rows":
        cache.n = 1000              # more live rows than the buffers hold
    elif breakage == "stray-members":
        cache.members[7] = (7, 8)
    else:
        cache.budget = 2
    with pytest.raises(CacheError, match=message):
        check_invariants(cache)


# --- model-based: every cache mutation, in any order -------------------------

# Three L=2 keys, so exact repeats (and hence folds) are common.
KEY_POOL = np.random.default_rng(7).standard_normal((3, 2, 8))
MACHINE_CONFIG = CaskConfig(sink_count=1, recency_window=2)


class CacheMachine(RuleBasedStateMachine):
    """Appends interleaved with consolidation, baseline eviction, protected
    eviction and single folds.  The structural invariants hold after every
    step, and only a fired consolidation adds a compression event."""

    @initialize(budget=st.integers(min_value=6, max_value=16))
    def start(self, budget):
        self.cache = CacheState(budget=budget)
        self.fired = 0

    @precondition(lambda self: len(self.cache) < self.cache.budget
                  or self.cache.core_overflow)
    @rule(tokens=st.lists(st.tuples(
        st.integers(min_value=0, max_value=len(KEY_POOL) - 1),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
        st.sampled_from([DECODE, DECODE, PREFIX])), min_size=1, max_size=6))
    def append(self, tokens):
        # Up to the budget, or past it once the core has overflowed.
        room = len(tokens) if self.cache.core_overflow \
            else self.cache.budget - len(self.cache)
        for key, mass, origin in tokens[:room]:
            append(self.cache, KVEntry(
                key=KEY_POOL[key], value=KEY_POOL[key] + 1.0,
                position=self.cache.total_appended, origin=origin,
                score_mass=mass))

    @rule(shrink=st.integers(min_value=0, max_value=6))
    def compress(self, shrink):
        events = len(self.cache.compression_events)
        outcome = cask_compress(self.cache, MACHINE_CONFIG,
                                max(1, len(self.cache) - shrink))
        assert len(self.cache.compression_events) == events + outcome.fired
        if outcome.fired:
            assert self.cache.compression_events[-1] is outcome
            self.fired += 1

    @rule(shrink=st.integers(min_value=0, max_value=6))
    def evict_to(self, shrink):
        evict_baseline(self.cache, max(1, len(self.cache) - shrink))

    @rule(data=st.data())
    def evict_unprotected(self, data):
        picks = data.draw(st.lists(st.booleans(), min_size=len(self.cache),
                                   max_size=len(self.cache)))
        evict(self.cache, [e.position for e, pick
                           in zip(self.cache.entries, picks)
                           if pick and not e.protected])

    @rule(index=st.integers(min_value=0, max_value=7))
    def fold(self, index):
        groups = [g for g in form_merge_groups(self.cache, MACHINE_CONFIG)
                  if g.mass > 0.0]
        if groups:
            group = groups[index % len(groups)]
            rep = fold_group(group, [self.cache.entry_at(p)
                                     for p in group.positions])
            merge_replace(self.cache, group.positions, rep)

    @invariant()
    def structure_holds(self):
        check_invariants(self.cache)
        assert len(self.cache.compression_events) == self.fired
        assert all(o.fired for o in self.cache.compression_events)


CacheMachine.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=40,
                                          deadline=None)
TestCacheMachine = CacheMachine.TestCase
