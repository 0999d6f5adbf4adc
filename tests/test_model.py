import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cask.cache import (
    DECODE,
    CacheState,
    KVEntry,
    append,
    drop,
)
from cask.model import (
    WITNESS_KINDS,
    NoCompressionPolicy,
    StepOutput,
    _softmax,
    accumulate_mass,
    decode,
    forward_step,
    generate_reference,
    init_model,
    make_witness,
    prefill,
    read_witness_manifest,
    write_witness_manifest,
)
from cask.policies import CaskConfig, CompressOutcome, cask_compress
from cask.replay import make_policy


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
    for models in ([(32, 8, 1)],                # model_dim mismatch
                   [(32, 16, 2)],               # layer-count mismatch
                   [(32, 16, 1), (32, 8, 1)]):  # ragged cache
        cache = CacheState(budget=4)
        for dims in models:
            out = forward_step(init_model(0, *dims), CacheState(budget=4), 1)
            append(cache, KVEntry(key=out.new_entry.key,
                                  value=out.new_entry.value,
                                  position=cache.total_appended))
        with pytest.raises(ValueError, match=r"shape \(1, 16\)"):
            forward_step(params, cache, 1)


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
            member_count=members))
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
    before = _entry_state(snap.entries)
    a, b = snap.fork(64), snap.fork(64)
    # Forks share the (never written) key/value arrays, not the entries.
    assert a.entries[0].key is snap.entries[0].key
    assert a.entries[0] is not snap.entries[0]
    a.entries[0].score_mass += 1.0
    a.entries[1].protected = True
    drop(a, {2})
    append(a, KVEntry(key=np.zeros((1, 16)), value=np.zeros((1, 16)),
                      position=6))
    a.compression_events.append(CompressOutcome(fired=True, evicted=1))
    assert _entry_state(snap.entries) == before
    assert _cache_state(b) == (before, 64, 6, 0, [], False, False)


@pytest.mark.parametrize("method", ["cask", "evict", "none"])
@pytest.mark.parametrize("forced", [False, True])
def test_decode_from_snapshot_matches_fresh_prefill(method, forced):
    params = init_model(0, num_layers=2)
    prompt = list(make_witness("prompt-heavy-decode-active", 3, 24, 1,
                               0.7).prompt)
    ref = generate_reference(params, prompt, 24)
    runs = []
    for snapshot in (None, ref.snapshot):
        policy = make_policy(method, 16)
        runs.append(decode(params, prompt, 24, policy,
                           forced=ref.tokens if forced else None,
                           snapshot=snapshot))
    (tokens_a, dists_a, sizes_a, cache_a), (tokens_b, dists_b, sizes_b,
                                             cache_b) = runs
    assert tokens_a == tokens_b
    assert dists_a.tobytes() == dists_b.tobytes()
    assert sizes_a.tolist() == sizes_b.tolist()
    assert _cache_state(cache_a) == _cache_state(cache_b)


def test_reference_run_carries_its_prefill(params):
    ref = generate_reference(params, [1, 2, 3], 5)
    fresh = prefill(params, [1, 2, 3])
    assert ref.snapshot.prompt == (1, 2, 3)
    assert _entry_state(ref.snapshot.entries) == _entry_state(fresh.entries)
    assert ref.snapshot.distribution.tobytes() == fresh.distribution.tobytes()
    assert ref.cache_sizes.tolist() == [3, 4, 5, 6, 7]


def test_decode_rejects_snapshot_of_another_prompt(params):
    snap = prefill(params, [1, 2, 3])
    with pytest.raises(ValueError, match="another prompt"):
        decode(params, [1, 2, 4], 4, NoCompressionPolicy(), snapshot=snap)
    with pytest.raises(ValueError, match="nonempty"):
        prefill(params, [])


def test_make_witness_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown witness kind"):
        make_witness("mystery", 0, 10, 5, 0.5)


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
                         "redundancy", "prompt"}
    assert read_witness_manifest(path) == w
