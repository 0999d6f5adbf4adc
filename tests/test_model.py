import dataclasses
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cask.bridge import bridge_run
from cask.cache import (
    DECODE,
    CacheError,
    CacheState,
    KVEntry,
    append,
    check_invariants,
    drop,
)
from cask.model import (
    WITNESS_KINDS,
    StepOutput,
    _softmax,
    accumulate_mass,
    decode,
    forward_step,
    generate_reference,
    greedy_branch,
    init_model,
    make_witness,
    prefill,
    read_witness_manifest,
    write_witness_manifest,
)
from cask.policies import CaskConfig, CompressOutcome, cask_compress
from cask.replay import make_policy, teacher_forced_replay


def test_init_model_deterministic():
    a = init_model(7, 32, 16, 1)
    b = init_model(7, 32, 16, 1)
    assert a.checksum() == b.checksum()


def test_init_model_seed_changes_parameters():
    assert init_model(7, 32, 16, 1).checksum() != init_model(8, 32, 16, 1).checksum()


def test_init_model_rejects_odd_dim():
    with pytest.raises(ValueError, match="even"):
        init_model(7, 32, 15, 1)


def test_init_model_rejects_tiny_vocab_and_dim():
    with pytest.raises(ValueError):
        init_model(7, 1, 16, 1)
    with pytest.raises(ValueError):
        init_model(7, 32, 2, 1)


def test_forward_step_empty_cache(params):
    cache = CacheState(budget=4)
    out = forward_step(params, cache, 3)
    assert out.distribution.sum() == pytest.approx(1.0, abs=1e-9)
    assert out.attention_weights.shape == (1, 1)
    assert out.attention_weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert len(cache.entries) == 0  # pure function, nothing appended


def test_forward_step_deterministic(params):
    cache = CacheState(budget=8)
    for tok in (1, 2, 3):
        out = forward_step(params, cache, tok)
        accumulate_mass(cache, out)
        append(cache, out.new_entry)
    a = forward_step(params, cache, 5)
    b = forward_step(params, cache, 5)
    assert np.array_equal(a.distribution, b.distribution)
    assert np.array_equal(a.attention_weights, b.attention_weights)


def test_forward_step_rejects_out_of_vocab(params):
    with pytest.raises(ValueError, match="vocab"):
        forward_step(params, CacheState(budget=4), 99)


def test_forward_step_rejects_dimension_mismatch(params):
    for dims in ((32, 8, 1),                    # model_dim mismatch
                 (32, 16, 2)):                  # layer-count mismatch
        cache = CacheState(budget=4)
        out = forward_step(init_model(0, *dims), CacheState(budget=4), 1)
        append(cache, KVEntry(key=out.new_entry.key,
                              value=out.new_entry.value, position=0))
        with pytest.raises(ValueError, match=r"shape \(1, 16\)"):
            forward_step(params, cache, 1)


def test_append_rejects_a_ragged_cache():
    # A row of another width fails where it is appended, not one step later.
    cache = CacheState(budget=4)
    append(cache, KVEntry(key=np.zeros((1, 16)), value=np.zeros((1, 16)),
                          position=0))
    with pytest.raises(CacheError, match=r"entry shape \(1, 8\) does not "
                                         r"match the cache's \(1, 16\)"):
        append(cache, KVEntry(key=np.zeros((1, 8)), value=np.zeros((1, 8)),
                              position=1))
    assert cache.n == 1 and cache.total_appended == 1


def _restack_forward_step(params, cache, token, origin=DECODE):
    """Reference forward pass that re-stacks the cache once per layer."""
    L, d = params.num_layers, params.model_dim
    n = len(cache.entries)
    h = params.embedding[token]
    new_keys = np.empty((L, d))
    new_values = np.empty((L, d))
    weights = np.empty((L, n + 1))
    sqrt_d = np.sqrt(d)
    for l in range(L):
        q = h @ params.wq[l]
        k = h @ params.wk[l]
        v = h @ params.wv[l]
        new_keys[l] = k
        new_values[l] = v
        if n:
            keys = np.stack([e.key[l] for e in cache.entries] + [k])
            values = np.stack([e.value[l] for e in cache.entries] + [v])
            masses = np.array([e.group_mass for e in cache.entries] + [1.0])
        else:
            keys = k[None, :]
            values = v[None, :]
            masses = np.ones(1)
        logits = keys @ q / sqrt_d + np.log(masses)
        w = _softmax(logits)
        weights[l] = w
        h = h + (w @ values) @ params.wo[l]
    dist = _softmax(h @ params.unembed)
    entry = KVEntry(key=new_keys, value=new_values,
                    position=cache.total_appended, origin=origin,
                    score_mass=float(weights[:, -1].mean()))
    return StepOutput(distribution=dist, new_entry=entry,
                      attention_weights=weights)


@pytest.mark.parametrize("num_layers", [1, 3])
@pytest.mark.parametrize("n", [0, 1, 9, 70])
def test_forward_step_matches_per_layer_restack(num_layers, n):
    params = init_model(5, 32, 16, num_layers)
    rng = np.random.default_rng([num_layers, n])
    cache = CacheState(budget=128)
    for i in range(n):
        members = int(rng.integers(1, 4))  # members > 1: a merged entry
        append(cache, KVEntry(
            key=rng.standard_normal((num_layers, 16)),
            value=rng.standard_normal((num_layers, 16)),
            position=3 * i, score_mass=float(rng.random()),
            group_mass=1.0 if members == 1 else float(rng.uniform(0.1, 4.0)),
            members=tuple(range(3 * i, 3 * i + members))))
    for token in (0, 17, 31):
        new = forward_step(params, cache, token)
        old = _restack_forward_step(params, cache, token)
        for a, b in ((new.distribution, old.distribution),
                     (new.attention_weights, old.attention_weights),
                     (new.new_entry.key, old.new_entry.key),
                     (new.new_entry.value, old.new_entry.value)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert new.new_entry.score_mass == old.new_entry.score_mass
        assert new.new_entry.key.flags.owndata


def test_decode_builds_one_entry_per_fed_token(params, monkeypatch):
    # The step reads the cache's buffers in place: the only KVEntry a
    # decode builds is each fed token's new row.  Forks and mass
    # accumulation build none.
    built = []
    post_init = KVEntry.__post_init__

    def counting(entry):
        built.append(entry.position)
        post_init(entry)

    monkeypatch.setattr(KVEntry, "__post_init__", counting)
    prompt = list(make_witness("prompt-heavy-decode-active", 2, 24, 64,
                               0.7).prompt)
    snapshot = prefill(params, prompt)
    assert built == list(range(len(prompt)))
    for method, forced in (("none", None), ("evict", None),
                           ("evict", [1] * 64)):
        built.clear()
        run = decode(params, snapshot, 64, make_policy(method, 16), forced)
        assert built == list(range(len(prompt), len(prompt) + 64))
    out = forward_step(params, run.cache, 3)
    built.clear()
    accumulate_mass(run.cache, out)
    run.cache.fork()
    snapshot.cache.fork(budget=4)
    assert built == []


def test_noop_compression_keeps_distributions_identical(params):
    # a compressed cache whose representative set equals the full set
    prompt = [1, 4, 9, 2, 7, 5]
    full = CacheState(budget=64)
    for tok in prompt:
        out = forward_step(params, full, tok)
        accumulate_mass(full, out)
        append(full, out.new_entry)
    compressed = CacheState(budget=64)
    for tok in prompt:
        out = forward_step(params, compressed, tok)
        accumulate_mass(compressed, out)
        append(compressed, out.new_entry)
    cask_compress(compressed, CaskConfig(merge_epsilon=0.0), budget=64)
    a = forward_step(params, full, 11)
    b = forward_step(params, compressed, 11)
    assert np.array_equal(a.distribution, b.distribution)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_distribution_and_weights_normalized(seed):
    rng = np.random.default_rng(seed)
    params = init_model(int(rng.integers(0, 100)), 16, 8, 2)
    cache = CacheState(budget=32)
    for tok in rng.integers(0, 16, size=6):
        out = forward_step(params, cache, int(tok))
        assert abs(out.distribution.sum() - 1.0) < 1e-9
        assert np.all(out.attention_weights >= 0)
        assert np.allclose(out.attention_weights.sum(axis=1), 1.0, atol=1e-9)
        accumulate_mass(cache, out)
        append(cache, out.new_entry)
    assert all(e.score_mass >= 0 for e in cache.entries)


def test_generate_reference_rejects_zero_length(params):
    with pytest.raises(ValueError):
        generate_reference(params, [1, 2], 0)


def test_generate_reference_deterministic(params):
    a = generate_reference(params, [1, 2, 3], 8)
    b = generate_reference(params, [1, 2, 3], 8)
    assert a.tokens == b.tokens
    assert np.array_equal(a.distributions, b.distributions)


def test_generate_reference_matches_manual_replay(params):
    # replaying prompt + continuation step by step reproduces every
    # recorded distribution bitwise
    prompt = [3, 1, 4, 1, 5]
    ref = generate_reference(params, prompt, 6)
    cache = CacheState(budget=64)
    seen = []
    for tok in prompt + ref.tokens:
        out = forward_step(params, cache, tok)
        accumulate_mass(cache, out)
        append(cache, out.new_entry)
        seen.append(out.distribution)
    for t in range(6):
        assert np.array_equal(ref.distributions[t], seen[len(prompt) - 1 + t])


def test_generate_reference_oracle_scores_cover_all_positions(params):
    ref = generate_reference(params, [1, 2, 3], 5)
    assert set(ref.oracle_scores) == set(range(8))
    assert all(v >= 0 for v in ref.oracle_scores.values())


def _entry_state(entries):
    return [(e.position, e.origin, e.score_mass, e.group_mass,
             e.member_count, e.protected, e.members, e.key.tobytes(),
             e.value.tobytes()) for e in entries]


def _cache_state(cache):
    return (_entry_state(cache.entries), cache.budget, cache.total_appended,
            cache.evicted_tokens, cache.compression_events,
            cache.prefix_budget_exhausted, cache.core_overflow)


def test_prefill_fork_isolation(params):
    snap = prefill(params, [3, 1, 4, 1, 5, 9])
    before = _entry_state(snap.cache.entries)
    a, b = snap.cache.fork(), snap.cache.fork()
    # Forks copy every buffer.
    assert not np.shares_memory(a.keys, snap.cache.keys)
    a.score_mass[0] += 1.0
    a.protected[1] = True
    a.keys[0, 3] = 0.0
    drop(a, [2])
    append(a, KVEntry(key=np.zeros((1, 16)), value=np.zeros((1, 16)),
                      position=6))
    a.compression_events.append(CompressOutcome(evicted=1))
    assert _cache_state(snap.cache) == (before, 6, 6, 0, [], False, False)
    assert _cache_state(b) == (before, 6, 6, 0, [], False, False)


@pytest.mark.parametrize("method", ["cask", "evict", "none"])
@pytest.mark.parametrize("forced", [False, True])
def test_decode_from_snapshot_matches_fresh_prefill(method, forced):
    params = init_model(0, num_layers=2)
    prompt = list(make_witness("prompt-heavy-decode-active", 3, 24, 1,
                               0.7).prompt)
    ref = generate_reference(params, prompt, 24)
    runs = []
    for snapshot in (prefill(params, prompt), ref.snapshot):
        policy = make_policy(method, 16)
        runs.append(decode(params, snapshot, 24, policy,
                           forced=ref.tokens if forced else None))
    a, b = runs
    assert a.tokens == b.tokens
    assert a.distributions.tobytes() == b.distributions.tobytes()
    assert a.cache_sizes.tolist() == b.cache_sizes.tolist()
    assert _cache_state(a.cache) == _cache_state(b.cache)
    (tokens_a, cache_a), (tokens_b, cache_b) = (
        greedy_branch(params, run, make_policy(method, 16)) for run in runs)
    assert tokens_a == tokens_b
    assert _cache_state(cache_a) == _cache_state(cache_b)


def test_greedy_branch_equals_independent_bridge_run():
    # Decode-active and prefix-dominant witnesses at L = 1 and 2, cask and
    # evict, budget 4 being below cask's protected core.  Every shifted
    # token differs from the argmax at step 0, so that tree forks right
    # after after_prefill; a token shifted midway forks a run that has
    # overflowed its core by then (cask at budget 4, L = 1).
    forks, overflowed = set(), False
    for num_layers, (kind, prefix_len, decode_len, redundancy) in (
            itertools.product([1, 2], [
                ("prompt-heavy-decode-active", 16, 24, 0.7),
                ("prompt-heavy-prefix-dominant", 48, 12, 0.2)])):
        params = init_model(0, num_layers=num_layers)
        prompt = list(make_witness(kind, 1, prefix_len, decode_len,
                                   redundancy).prompt)
        ref = generate_reference(params, prompt, decode_len)
        shifted = [(t + 1) % params.vocab_size for t in ref.tokens]
        mid = decode_len // 2
        midway = ref.tokens[:mid] + shifted[mid:mid + 1] + ref.tokens[mid + 1:]
        for (method, budget), forced in itertools.product(
                [("cask", 4), ("cask", 16), ("evict", 4), ("evict", 16)],
                [ref.tokens, shifted, midway]):
            policy = make_policy(method, budget)
            run = decode(params, ref.snapshot, decode_len, policy,
                         forced=forced)
            tokens, cache = greedy_branch(params, run, policy)
            alone_tokens, alone = bridge_run(params, prompt, decode_len,
                                             make_policy(method, budget))
            assert tokens == alone_tokens
            assert _cache_state(cache) == _cache_state(alone)
            check_invariants(run.cache)
            check_invariants(cache)
            if run.fork is None:
                assert forced is ref.tokens
                assert tokens is run.tokens and cache is run.cache
                forks.add(None)
                continue
            t, fork = run.fork
            forks.add(t)
            assert t == 0 if forced is shifted else t <= mid
            # The fork is the replay's cache as it stood before step t.
            head = decode(params, ref.snapshot, t,
                          make_policy(method, budget), forced=forced)
            assert head.fork is None
            assert _cache_state(fork) == _cache_state(head.cache)
            overflowed |= fork.core_overflow
            before = _cache_state(run.cache)
            for branch in (fork, cache):
                branch.score_mass[:] += 1.0
                branch.protected[:] = ~branch.protected
                drop(branch, [0])
                append(branch, KVEntry(key=np.zeros((num_layers, 16)),
                                       value=np.zeros((num_layers, 16)),
                                       position=branch.total_appended + 1))
                branch.compression_events.append(CompressOutcome(evicted=1))
                branch.core_overflow = not branch.core_overflow
            assert _cache_state(run.cache) == before
    assert {None, 0, 1} <= forks
    assert overflowed


def test_reference_run_carries_its_prefill(params):
    ref = generate_reference(params, [1, 2, 3], 5)
    fresh = prefill(params, [1, 2, 3])
    assert ref.snapshot.prompt == (1, 2, 3)
    assert _cache_state(ref.snapshot.cache) == _cache_state(fresh.cache)
    assert ref.snapshot.distribution.tobytes() == fresh.distribution.tobytes()
    assert ref.cache_sizes.tolist() == [3, 4, 5, 6, 7]


def test_replay_rejects_snapshot_of_another_prompt(params):
    snap = prefill(params, [1, 2, 3])
    with pytest.raises(ValueError, match="another prompt"):
        teacher_forced_replay(params, [1, 2, 4], [1, 2, 3, 4],
                              make_policy("none"), snapshot=snap)
    with pytest.raises(ValueError, match="nonempty"):
        prefill(params, [])


def test_make_witness_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown witness kind"):
        make_witness("mystery", 0, 10, 5, 0.5)


@pytest.mark.parametrize("kind", WITNESS_KINDS)
@pytest.mark.parametrize("vocab_size", [1, 0])
def test_make_witness_rejects_tiny_vocab(kind, vocab_size):
    # Token 0 is the start token, so a prompt body needs ids 1..V-1.
    with pytest.raises(ValueError, match="vocab_size must be >= 2"):
        make_witness(kind, 0, 10, 5, 0.5, vocab_size)


def test_make_witness_validates_ranges():
    kind = WITNESS_KINDS[0]
    with pytest.raises(ValueError):
        make_witness(kind, 0, -1, 5, 0.5)
    with pytest.raises(ValueError):
        make_witness(kind, 0, 10, 0, 0.5)
    with pytest.raises(ValueError):
        make_witness(kind, 0, 10, 5, 1.5)


def test_make_witness_deterministic():
    a = make_witness("short-prompt-reasoning", 5, 24, 8, 0.5)
    b = make_witness("short-prompt-reasoning", 5, 24, 8, 0.5)
    assert a.prompt == b.prompt


def test_make_witness_zero_redundancy_has_no_motif_blocks():
    w = make_witness("short-prompt-reasoning", 5, 24, 8, 0.0)
    assert len(w.prompt) == 25
    # redundancy drives repetition: at 0 the prompt should be more diverse
    high = make_witness("short-prompt-reasoning", 5, 240, 8, 0.9)
    low = make_witness("short-prompt-reasoning", 5, 240, 8, 0.0)
    assert len(set(low.prompt)) >= len(set(high.prompt))


def test_make_witness_prefix_dominant_labeling():
    w = make_witness("prompt-heavy-prefix-dominant", 1, 900, 32, 0.3)
    assert len(w.prompt) == 901  # far above a budget of 256


def test_witness_manifest_roundtrip(tmp_path):
    w = make_witness("prompt-heavy-decode-active", 3, 48, 16, 0.8)
    path = write_witness_manifest(w, tmp_path / "w.json")
    data = json.loads(path.read_text())
    assert set(data) == {"kind", "seed", "prefix_len", "decode_len",
                         "redundancy", "prompt", "vocab_size"}
    assert data["vocab_size"] == 32
    assert read_witness_manifest(path) == w
    # A manifest written before vocab sizes were recorded still reads.
    del data["vocab_size"]
    path.write_text(json.dumps(data))
    assert read_witness_manifest(path) == dataclasses.replace(w,
                                                              vocab_size=None)


@pytest.mark.parametrize("key, value", [
    ("seed", "3"), ("seed", True), ("vocab_size", "32"), ("decode_len", "64"),
    ("prefix_len", 24.5), ("redundancy", "x"), ("kind", 1),
    ("prompt", [0, "27"]), ("prompt", 5),
])
def test_read_witness_manifest_rejects_a_value_of_the_wrong_type(
        tmp_path, key, value):
    # These used to be accepted, or to end later in a TypeError or a vocab
    # size mismatch that named neither the manifest nor the key.
    w = make_witness("prompt-heavy-decode-active", 3, 24, 64, 0.7)
    path = write_witness_manifest(w, tmp_path / "w.json")
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}: {key!r} is {value!r}")):
        read_witness_manifest(path)


@given(st.sampled_from([1, 2, 3, 4, 7]), st.integers(1, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_layer_means_equal_ndarray_mean(num_layers, n, data):
    # The layer means are sum(axis=0) / L; ndarray.mean takes the same
    # add.reduce and one division, so the bits must agree.
    floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    key = data.draw(hnp.arrays(np.float64, (num_layers, 16), elements=floats))
    entry = KVEntry(key=key, value=key, position=0)
    assert entry.geometry_key().tobytes() == key.mean(axis=0).tobytes()

    weights = data.draw(hnp.arrays(np.float64, (num_layers, n + 1),
                                   elements=floats))
    cache = CacheState(budget=n)
    for i in range(n):
        append(cache, KVEntry(key=key, value=key, position=i))
    accumulate_mass(cache, StepOutput(distribution=np.ones(1),
                                      new_entry=entry,
                                      attention_weights=weights))
    expected = weights[:, :-1].mean(axis=0)
    assert [e.score_mass for e in cache.entries] == expected.tolist()

    params = init_model(data.draw(st.integers(0, 99)), 16, 16, num_layers)
    out = forward_step(params, cache, data.draw(st.integers(0, 15)))
    assert out.new_entry.score_mass == float(
        out.attention_weights[:, -1].mean())
