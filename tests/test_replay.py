import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cask.cache import check_invariants, drop
from cask.model import decode, generate_reference, init_model, make_witness
from cask.replay import (
    FidelitySummary,
    ReplayRecord,
    first_mismatch,
    make_policy,
    mean_nll,
    summarize,
    teacher_forced_replay,
    top1_agreement,
    top5_coverage,
)
from conftest import keep_order

# sha256 of the acceptance suite's replay rows (see
# test_acceptance_suite_rows_match_golden_digest), one json.dumps line each,
# taken while a run without a snapshot still prefilled through the policy.
ACCEPTANCE_SUITE_DIGEST = (
    "93c511e8f93bfadfa6649a5925b1ed30ae4dced89426693a105c74c68e312dec")


def random_record(rng, T=8, V=12):
    dists = rng.dirichlet(np.ones(V), size=T)
    refs = rng.integers(0, V, size=T)
    return ReplayRecord.from_distributions(dists, refs)


# --- record construction and metric oracles ---------------------------------

def oracle_metrics(record):
    """Brute-force recomputation of all four metrics from raw distributions."""
    T, V = record.distributions.shape
    top1_hits, top5_hits, nlls = 0, 0, []
    fm = None
    for t in range(T):
        dist = record.distributions[t]
        ref = int(record.reference[t])
        order = sorted(range(V), key=lambda i: (-dist[i], i))  # stable full sort
        if order[0] == ref:
            top1_hits += 1
        elif fm is None:
            fm = t + 1
        if ref in order[:min(5, V)]:
            top5_hits += 1
        nlls.append(-math.log(max(dist[ref], 1e-12)))
    return (top1_hits / T, top5_hits / T, sum(nlls) / T, fm)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_metrics_match_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    record = random_record(rng, T=int(rng.integers(1, 12)),
                           V=int(rng.integers(5, 16)))
    o_top1, o_top5, o_nll, o_fm = oracle_metrics(record)
    assert top1_agreement(record) == o_top1
    assert top5_coverage(record) == o_top5
    assert mean_nll(record) == pytest.approx(o_nll, abs=1e-9)
    assert first_mismatch(record) == o_fm


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=80)
def test_record_stats_equal_per_step_loop(seed):
    rng = np.random.default_rng(seed)
    T, V = int(rng.integers(0, 10)), int(rng.integers(1, 12))
    dists = rng.integers(0, 4, size=(T, V)) / 4.0  # coarse values force ties
    refs = rng.integers(0, V, size=T)
    record = ReplayRecord.from_distributions(dists, refs)
    k = min(5, V)
    for t, (dist, ref) in enumerate(zip(dists, refs)):
        p = dist[ref]
        rank = np.sum(dist > p) + np.sum((dist == p) & (np.arange(V) < ref))
        assert record.argmax[t] == np.argmax(dist)
        assert record.top5_flags[t] == (rank < k)
        assert record.log_probs[t] == np.log(max(float(p), 1e-12))
    assert record.argmax.shape == record.top5_flags.shape == (T,)
    assert record.log_probs.shape == (T,)


def test_top1_all_match_and_none_match():
    dists = np.array([[0.9, 0.1], [0.8, 0.2]])
    assert top1_agreement(ReplayRecord.from_distributions(dists, [0, 0])) == 1.0
    assert top1_agreement(ReplayRecord.from_distributions(dists, [1, 1])) == 0.0


def test_top1_counts_matches():
    rng = np.random.default_rng(0)
    dists = rng.dirichlet(np.ones(6), size=8)
    refs = [int(np.argmax(d)) for d in dists]
    refs[2] = (refs[2] + 1) % 6
    refs[5] = (refs[5] + 1) % 6
    record = ReplayRecord.from_distributions(dists, refs)
    assert top1_agreement(record) == 0.75


def test_top5_with_vocab_five_is_always_one(rng):
    record = random_record(rng, T=6, V=5)
    assert top5_coverage(record) == 1.0


def test_top5_clamps_below_five_vocab(rng):
    record = random_record(rng, T=4, V=4)
    assert top5_coverage(record) == 1.0


def test_rank_one_matches_give_equal_top1_top5(rng):
    dists = rng.dirichlet(np.ones(8), size=5)
    refs = [int(np.argmax(d)) for d in dists]
    record = ReplayRecord.from_distributions(dists, refs)
    assert top1_agreement(record) == top5_coverage(record) == 1.0


def test_top5_boundary_ties_resolved_by_lowest_id():
    dist = np.array([0.3, 0.15, 0.15, 0.15, 0.15, 0.15, 0.0, 0.0])
    # five tokens tie at 0.15 for four top-5 slots: ids 1..4 get them
    rec_in = ReplayRecord.from_distributions(dist[None, :], [4])
    rec_out = ReplayRecord.from_distributions(dist[None, :], [5])
    assert top5_coverage(rec_in) == 1.0
    assert top5_coverage(rec_out) == 0.0


def test_mean_nll_uniform_is_log_vocab():
    V = 32
    dists = np.full((4, V), 1.0 / V)
    record = ReplayRecord.from_distributions(dists, [3, 7, 11, 0])
    assert mean_nll(record) == pytest.approx(math.log(32), abs=1e-9)


def test_mean_nll_certain_reference_is_zero():
    dists = np.zeros((3, 4))
    refs = [1, 2, 0]
    for t, r in enumerate(refs):
        dists[t, r] = 1.0
    assert mean_nll(ReplayRecord.from_distributions(dists, refs)) == 0.0


def test_mean_nll_hand_mix():
    # p(ref) = 0.5 then 0.25 -> (log 2 + log 4) / 2
    dists = np.array([[0.5, 0.5, 0.0, 0.0], [0.25, 0.25, 0.25, 0.25]])
    record = ReplayRecord.from_distributions(dists, [1, 2])
    assert mean_nll(record) == pytest.approx((math.log(2) + math.log(4)) / 2,
                                             abs=1e-9)


def test_mean_nll_floors_zero_probability():
    dists = np.array([[1.0, 0.0]])
    record = ReplayRecord.from_distributions(dists, [1])
    assert np.isfinite(mean_nll(record))
    assert mean_nll(record) == pytest.approx(-math.log(1e-12))


def test_first_mismatch_single_divergence():
    dists = np.array([[0.9, 0.1], [0.2, 0.8], [0.9, 0.1]])
    record = ReplayRecord.from_distributions(dists, [0, 0, 0])
    assert first_mismatch(record) == 2


def test_first_mismatch_none_when_all_match():
    dists = np.array([[0.9, 0.1], [0.1, 0.9]])
    record = ReplayRecord.from_distributions(dists, [0, 1])
    assert first_mismatch(record) is None


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_top1_never_exceeds_top5(seed):
    rng = np.random.default_rng(seed)
    record = random_record(rng, T=int(rng.integers(1, 10)),
                           V=int(rng.integers(5, 14)))
    assert top1_agreement(record) <= top5_coverage(record)


def test_a_record_without_a_cache_has_no_summary():
    # A record built from distributions alone keeps no made-up cache, so
    # summarize names the missing terminal cache, not an empty history.
    record = ReplayRecord.from_distributions(np.array([[0.9, 0.1]]), [0])
    assert record.cache is None and top1_agreement(record) == 1.0
    with pytest.raises(ValueError, match="no terminal cache"):
        summarize(record)


def test_summary_validates_ordering():
    with pytest.raises(ValueError):
        FidelitySummary(top1=0.9, top5=0.5, mean_nll=1.0, first_mismatch=None,
                        saved_ratio=0.0, T=4, top1_matches=3, top5_matches=2)


# --- the replay harness ------------------------------------------------------

def test_no_compression_replay_is_bit_identical(params):
    w = make_witness("short-prompt-reasoning", 2, 24, 12, 0.4)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    record = teacher_forced_replay(params, list(w.prompt), ref.tokens,
                                   make_policy("none"))
    s = summarize(record)
    assert s.top1 == 1.0
    assert s.first_mismatch is None
    assert s.saved_ratio == 0.0
    assert np.array_equal(record.distributions, ref.distributions)


def test_replay_deterministic(params):
    w = make_witness("short-prompt-reasoning", 4, 16, 8, 0.5)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    a = teacher_forced_replay(params, list(w.prompt), ref.tokens,
                              make_policy("cask", 16))
    b = teacher_forced_replay(params, list(w.prompt), ref.tokens,
                              make_policy("cask", 16))
    assert np.array_equal(a.distributions, b.distributions)
    assert [(e.position, e.score_mass) for e in a.cache.entries] \
        == [(e.position, e.score_mass) for e in b.cache.entries]


def test_budget_at_total_length_equals_full_kv(params):
    w = make_witness("short-prompt-reasoning", 4, 16, 8, 0.5)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    total = len(w.prompt) + w.decode_len + 1
    full = summarize(teacher_forced_replay(params, list(w.prompt), ref.tokens,
                                           make_policy("none")))
    for method in ("cask", "evict"):
        s = summarize(teacher_forced_replay(params, list(w.prompt), ref.tokens,
                                            make_policy(method, total)))
        assert (s.top1, s.top5, s.mean_nll) == (full.top1, full.top5,
                                                full.mean_nll)


def test_replay_rejects_out_of_vocab(params):
    with pytest.raises(ValueError, match="vocab"):
        teacher_forced_replay(params, [1, 2], [99], make_policy("none"))


def test_replay_rejects_empty_reference(params):
    with pytest.raises(ValueError):
        teacher_forced_replay(params, [1, 2], [], make_policy("none"))


@pytest.mark.parametrize("method", ["cask", "evict"])
def test_a_nan_budget_is_refused_before_any_step(params, method):
    # Both used to get past every budget check: evict then replayed without
    # evicting anything, and cask failed on a budget mismatch.
    ref = generate_reference(params, [1, 2, 3], 8)
    with pytest.raises(ValueError, match="budget must be >= 1, got nan"):
        decode(params, ref.snapshot, 8, make_policy(method, float("nan")),
               forced=ref.tokens)


def _cache_bytes(cache):
    """Everything a policy could change in ``cache``, as comparable values."""
    n = cache.n
    return ({name: col[:n].tobytes() for name, col in cache._columns.items()},
            cache._kv[:, :, :n].tobytes(), dict(cache.members), cache.budget,
            cache.total_appended, cache.evicted_tokens,
            cache.prefix_budget_exhausted, cache.core_overflow,
            list(cache.compression_events))


@pytest.mark.parametrize("method", ["cask", "evict"])
@pytest.mark.parametrize("slack", [0, 8])
def test_after_append_changes_nothing_within_budget(params, method, slack):
    # A policy acts on a decode step only once the append puts the cache
    # over its budget.  Stage 1's trim in after_prefill can act under
    # budget and is not covered here.  The cache is a cask run's terminal
    # cache, with folded rows, protected rows and compression events.
    witness = make_witness("prompt-heavy-decode-active", 0, 32, 256, 0.8)
    ref = generate_reference(params, list(witness.prompt), witness.decode_len)
    run = decode(params, ref.snapshot, witness.decode_len,
                 make_policy("cask", 64), forced=ref.tokens)
    budget = run.cache.n + slack
    cache = run.cache.fork(budget)
    assert cache.members and cache.compression_events
    assert cache.protected.any() and not cache.protected.all()
    before = _cache_bytes(cache)
    make_policy(method, budget).after_append(cache)
    assert _cache_bytes(cache) == before


def test_make_policy_rejects_unknown_method():
    with pytest.raises(ValueError):
        make_policy("magic", 8)
    with pytest.raises(ValueError):
        make_policy("cask")  # needs a budget


def _run_state(run):
    cache = run.cache
    rows = [(e.position, e.origin, e.score_mass, e.group_mass, e.protected,
             e.members, e.key.tobytes(), e.value.tobytes())
            for e in cache.entries]
    return (run.tokens, run.distributions.tobytes(), run.cache_sizes.tolist(),
            rows, cache.total_appended, cache.evicted_tokens,
            cache.compression_events)


@pytest.mark.parametrize("forced", [False, True])
def test_a_policy_written_against_the_protocol_equals_eviction(params, forced):
    # A policy only compresses: after prefill and after each decode row is
    # appended.  This one evicts by score mass with the cache's own
    # primitives, as EvictionPolicy does.
    class LowestMassEviction:
        method = "lowest-mass"

        def __init__(self, budget):
            self.budget = budget

        def after_prefill(self, cache):
            self.after_append(cache)

        def after_append(self, cache):
            if cache.n > self.budget:
                drop(cache, keep_order(cache, np.arange(cache.n))[self.budget:])

    for witness in (make_witness("prompt-heavy-decode-active", 0, 32, 48, 0.8),
                    make_witness("prompt-heavy-prefix-dominant", 1, 48, 16,
                                 0.2)):
        ref = generate_reference(params, list(witness.prompt),
                                 witness.decode_len)
        for budget in (12, 40):
            runs = [decode(params, ref.snapshot, witness.decode_len, policy,
                           forced=ref.tokens if forced else None)
                    for policy in (LowestMassEviction(budget),
                                   make_policy("evict", budget))]
            assert _run_state(runs[0]) == _run_state(runs[1])
            assert runs[0].cache.evicted_tokens > 0


def test_multi_layer_pipeline_end_to_end():
    params = init_model(2, vocab_size=24, model_dim=12, num_layers=3)
    w = make_witness("prompt-heavy-decode-active", 4, prefix_len=16,
                     decode_len=32, redundancy=0.8, vocab_size=24)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    record = teacher_forced_replay(params, list(w.prompt), ref.tokens,
                                   make_policy("none"))
    assert np.array_equal(record.distributions, ref.distributions)
    record = teacher_forced_replay(params, list(w.prompt), ref.tokens,
                                   make_policy("cask", 24))
    assert len(record.cache.entries) <= 24
    assert all(e.key.shape == (3, 12) for e in record.cache.entries)
    assert record.cache.compression_events


class CheckedPolicy:
    """A policy that checks the cache invariants after each of its steps."""

    def __init__(self, policy):
        self.policy = policy
        self.method = policy.method
        self.budget = policy.budget
        self.checks = 0
        self.max_members = 1

    def after_prefill(self, cache):
        self.policy.after_prefill(cache)
        check_invariants(cache)

    def after_append(self, cache):
        self.policy.after_append(cache)
        check_invariants(cache)
        self.checks += 1
        self.max_members = max(self.max_members,
                               *(e.member_count for e in cache.entries))


@pytest.mark.parametrize("method", ["cask", "evict"])
@pytest.mark.parametrize("budget", [8, 32, 64])
def test_cache_invariants_hold_after_every_append(params, method, budget):
    # The consolidate benchmark's witness shape; budget 8 is below cask's
    # protected core, where the cache may outgrow its budget with the flag set.
    folded = overflowed = False
    for seed in (0, 1):
        witness = make_witness("prompt-heavy-decode-active", seed, 32, 256, 0.8)
        ref = generate_reference(params, list(witness.prompt),
                                 witness.decode_len)
        policy = CheckedPolicy(make_policy(method, budget))
        record = teacher_forced_replay(params, list(witness.prompt), ref.tokens,
                                       policy)
        assert policy.checks == witness.decode_len
        folded |= policy.max_members > 1
        overflowed |= record.cache.core_overflow
    assert folded == (method == "cask" and budget == 64)
    assert overflowed == (method == "cask" and budget == 8)


def test_acceptance_suite_rows_match_golden_digest():
    # The acceptance suite's rows: ten decode-active witnesses, cask and
    # evict at budgets 24-64, each replay started without a snapshot.
    params = init_model(0, 32, 16, 1)
    lines = []
    for seed in range(10):
        witness = make_witness("prompt-heavy-decode-active", seed,
                               prefix_len=24, decode_len=64, redundancy=0.7)
        ref = generate_reference(params, list(witness.prompt),
                                 witness.decode_len)
        for method in ("cask", "evict"):
            for budget in (24, 32, 48, 64):
                s = summarize(teacher_forced_replay(
                    params, list(witness.prompt), ref.tokens,
                    make_policy(method, budget)))
                lines.append(json.dumps({
                    "kind": "replay", "witness": witness.name,
                    "method": method, "budget": budget, "top1": s.top1,
                    "top5": s.top5, "mean_nll": s.mean_nll, "T": s.T}) + "\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == ACCEPTANCE_SUITE_DIGEST
