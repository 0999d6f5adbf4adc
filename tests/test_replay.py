import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cask import model
from cask.cache import drop
from cask.model import (
    WITNESS_KINDS,
    decode,
    generate_reference,
    greedy_branch,
    init_model,
    make_witness,
    prefill,
)
from cask.policies import detect_core
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
from cask.report import bridge_row
from conftest import CheckedPolicy, bad_integers, cache_bytes, keep_order

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
    before = cache_bytes(cache)
    make_policy(method, budget).after_append(cache)
    assert cache_bytes(cache) == before


def test_make_policy_rejects_unknown_method():
    for budget in (8, None):
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            make_policy("magic", budget)
    with pytest.raises(ValueError, match="method 'cask' needs a budget"):
        make_policy("cask")


@pytest.mark.parametrize("method", ["cask", "evict"])
@pytest.mark.parametrize("budget", bad_integers(1))
def test_make_policy_refuses_a_bad_budget(method, budget):
    # evict used to build and fail only when decode forked the snapshot.
    with pytest.raises(ValueError, match="^budget must be >= 1, got "):
        make_policy(method, budget)


def _run_state(run):
    cache = run.cache
    rows = [(e.position, e.origin, e.score_mass, e.group_mass, e.protected,
             e.members, e.key.tobytes(), e.value.tobytes())
            for e in cache.entries]
    return (run.tokens, run.distributions.tobytes(), run.cache_sizes.tolist(),
            rows, cache.total_appended, cache.evicted_tokens,
            cache.compression_events)


@pytest.mark.parametrize("forced", [False, True])
def test_a_run_started_on_the_trunk_equals_a_run_from_the_prefill(
        params, monkeypatch, forced):
    # P = 33, T = 24.  Budgets below P, at P, inside the run, first exceeded
    # by the last step (P + T - 1) and never exceeded.  Stage 1 trims the
    # prompt up to budget 40 (cap 30 < 33) but not at 48, where it flags
    # too little decode slack (15 < 16).
    witness = make_witness("prompt-heavy-decode-active", 0, 32, 24, 0.8)
    budgets = (20, 33, 40, 48, 56, 70)
    ref = generate_reference(params, list(witness.prompt), witness.decode_len,
                             budgets)
    assert sorted(ref.kept) == [1, 8, 16]
    for t, cache in ref.kept.items():
        assert cache.n == cache.budget + 1 == 33 + t
    steps = []
    forward_step = model.forward_step
    monkeypatch.setattr(model, "forward_step",
                        lambda *a, **k: steps.append(1) or forward_step(*a, **k))
    skipped = {}
    for method in ("none", "evict", "cask"):
        for budget in budgets:
            runs, counts = [], []
            for trunk in (None, ref):
                steps.clear()
                runs.append(decode(params, ref.snapshot, witness.decode_len,
                                   make_policy(method, budget),
                                   forced=ref.tokens if forced else None,
                                   trunk=trunk))
                counts.append(len(steps))
            a, b = runs
            assert _run_state(a) == _run_state(b)
            assert cache_bytes(a.cache) == cache_bytes(b.cache)
            assert (a.fork is None) == (b.fork is None)
            if a.fork is not None:
                assert a.fork[0] == b.fork[0]
                assert cache_bytes(a.fork[1]) == cache_bytes(b.fork[1])
            if counts[0] != counts[1]:
                skipped[method, budget] = counts[0] - counts[1]
    # min(budget - P + 1, T) steps where after_prefill removed nothing.
    assert skipped == {**{("none", b): 24 for b in budgets},
                       ("evict", 33): 1, ("evict", 40): 8, ("evict", 48): 16,
                       ("evict", 56): 24, ("evict", 70): 24,
                       ("cask", 48): 16, ("cask", 56): 24, ("cask", 70): 24}
    assert ref.kept[16].prefix_budget_exhausted is False
    assert decode(params, ref.snapshot, 24, make_policy("cask", 48),
                  trunk=ref).cache.prefix_budget_exhausted


def test_decode_refuses_a_trunk_it_cannot_follow(params):
    ref = generate_reference(params, [1, 2, 3], 8, budgets=[5])
    policy = make_policy("evict", 5)
    with pytest.raises(ValueError, match="trunk"):
        decode(params, prefill(params, [1, 2, 3]), 8, policy, trunk=ref)
    with pytest.raises(ValueError, match="trunk"):
        decode(params, ref.snapshot, 7, policy, trunk=ref)
    forced = list(ref.tokens)
    forced[-1] = (forced[-1] + 1) % params.vocab_size
    with pytest.raises(ValueError, match="forced or not"):
        decode(params, ref.snapshot, 8, policy, forced=forced, trunk=ref)


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


def _sweep_cell_equals_its_own_run(params, ref, method, budget):
    """Decode one cell of reference run ``ref`` on the sweep's path (the
    teacher-forced replay started on ``ref``, then its greedy branch) with
    the cache invariants checked after every policy step, and again as a
    run of its own from the prefill; the two must agree in every byte."""
    runs = []
    for trunk in (ref, None):
        policy = make_policy(method, budget)
        if trunk is not None:
            policy = CheckedPolicy(policy)
        run = decode(params, ref.snapshot, len(ref.tokens), policy,
                     forced=ref.tokens, trunk=trunk)
        tokens, cache = greedy_branch(params, run, policy)
        runs.append((_run_state(run), cache_bytes(run.cache),
                     run.fork and run.fork[0], tokens, cache_bytes(cache)))
    assert runs[0] == runs[1]


_PARAMS_BY_LAYERS = {L: init_model(0, 32, 16, L) for L in (1, 2)}


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(WITNESS_KINDS), prefix_len=st.integers(0, 40),
       decode_len=st.integers(1, 40),
       redundancy=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       num_layers=st.sampled_from([1, 2]),
       method=st.sampled_from(["cask", "evict"]), data=st.data())
def test_a_sweep_cell_keeps_the_invariants_and_equals_its_own_run(
        kind, prefix_len, decode_len, redundancy, num_layers, method, data):
    # Budgets run from 1, below every core, to past the full history.
    budget = data.draw(st.integers(1, prefix_len + decode_len + 3))
    params = _PARAMS_BY_LAYERS[num_layers]
    witness = make_witness(kind, 0, prefix_len, decode_len, redundancy)
    ref = generate_reference(params, list(witness.prompt), decode_len,
                             [budget])
    _sweep_cell_equals_its_own_run(params, ref, method, budget)


class _CoreCheck:
    """A cask policy that, after each consolidation that fires, reads the
    core flags of a fork of the cache and compares them with a fresh
    marking of another fork.  The cache itself is not read, so its marking
    stays due for the rest of the run."""

    def __init__(self, policy):
        self.policy = policy
        self.budget = policy.budget
        self.fired = 0

    def after_prefill(self, cache):
        self.policy.after_prefill(cache)

    def after_append(self, cache):
        events = len(cache.compression_events)
        self.policy.after_append(cache)
        if len(cache.compression_events) > events:
            fresh = cache.fork()
            detect_core(fresh, self.policy.cask_config)
            assert cache.fork().protected.tobytes() == fresh.protected.tobytes()
            self.fired += 1


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(WITNESS_KINDS), prefix_len=st.integers(0, 40),
       decode_len=st.integers(1, 40),
       redundancy=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
       num_layers=st.sampled_from([1, 2]), budget=st.integers(4, 48))
def test_the_core_read_after_a_consolidation_is_a_fresh_marking(
        kind, prefix_len, decode_len, redundancy, num_layers, budget):
    # Over a decode tree: the teacher-forced run on the trunk, then its
    # greedy branch, which continues from a fork with the marking due.
    params = _PARAMS_BY_LAYERS[num_layers]
    witness = make_witness(kind, 0, prefix_len, decode_len, redundancy)
    ref = generate_reference(params, list(witness.prompt), decode_len,
                             [budget])
    policy = _CoreCheck(make_policy("cask", budget))
    run = decode(params, ref.snapshot, decode_len, policy, forced=ref.tokens,
                 trunk=ref)
    greedy_branch(params, run, policy)


class _FiredCheck:
    """A policy that records, per step, whether a consolidation fired."""

    def __init__(self, policy):
        self.policy = policy
        self.budget = policy.budget
        self.fired = []

    def after_prefill(self, cache):
        self.policy.after_prefill(cache)

    def after_append(self, cache):
        events = len(cache.compression_events)
        self.policy.after_append(cache)
        self.fired.append(len(cache.compression_events) > events)


def _forced_cask_run(params):
    """A frontier cell's witness, its reference and its forced ``cask``
    run at budget 24, whose last step fires a consolidation."""
    witness = make_witness("prompt-heavy-decode-active", 0, 24, 64, 0.7)
    ref = generate_reference(params, list(witness.prompt), 64, [24])
    policy = _FiredCheck(make_policy("cask", 24))
    run = decode(params, ref.snapshot, 64, policy, forced=ref.tokens,
                 trunk=ref)
    assert policy.fired[-1]
    return witness, ref, policy, run


def test_a_decode_run_returns_its_core_owed(params):
    # Only the cache writes an owed core marking, on its first read: a
    # decode does not write it on return.
    _, _, policy, run = _forced_cask_run(params)
    assert run.cache._core_due is not None
    fresh = run.cache.fork()
    detect_core(fresh, policy.policy.cask_config)
    assert run.cache.protected.tobytes() == fresh.protected.tobytes()


def test_a_bridge_row_leaves_the_greedy_branch_core_owed(params):
    # A bridge row reads no core flag, so the marking the greedy branch's
    # last consolidation owes is never written.
    witness, ref, policy, run = _forced_cask_run(params)
    assert run.fork is not None
    policy.fired.clear()
    tokens, branch = greedy_branch(params, run, policy)
    assert policy.fired[-1]
    cell = {"witness": witness.name, "method": "cask", "budget": 24,
            "seed": 0}
    bridge_row(cell, ref, tokens, branch)
    assert branch._core_due is not None


@pytest.mark.parametrize("method", ["cask", "evict"])
def test_frontier_cells_keep_the_invariants_and_equal_their_own_runs(
        params, method):
    budgets = (24, 32, 48)
    for seed in range(10):
        witness = make_witness("prompt-heavy-decode-active", seed, 24, 64, 0.7)
        ref = generate_reference(params, list(witness.prompt), 64, budgets)
        for budget in budgets:
            _sweep_cell_equals_its_own_run(params, ref, method, budget)


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
