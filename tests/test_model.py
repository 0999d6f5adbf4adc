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
    PREFIX,
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
    _softmax_in_place,
    accumulate_mass,
    check_json_types,
    decode,
    forward_step,
    generate_reference,
    greedy_branch,
    init_model,
    make_witness,
    prefill,
    read_witness_manifest,
    run_prefill,
    write_witness_manifest,
)
from cask.policies import CaskConfig, CompressOutcome, cask_compress
from cask.replay import make_policy
from conftest import bad_integers


WEIGHTS = ("embedding", "wq", "wk", "wv", "wo", "unembed")


def test_init_model_deterministic():
    a = init_model(7, 32, 16, 1)
    b = init_model(7, 32, 16, 1)
    for name in WEIGHTS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("sizes", [(32, 16, 1), (24, 12, 3), (2, 4, 7)])
def test_model_params_sizes_equal_init_model_arguments(sizes):
    params = init_model(5, *sizes)
    assert (params.vocab_size, params.model_dim, params.num_layers) == sizes
    assert all(type(s) is int for s in (params.vocab_size, params.model_dim,
                                        params.num_layers))
    assert "seed" not in vars(params)


def test_init_model_seed_changes_parameters():
    a, b = init_model(7, 32, 16, 1), init_model(8, 32, 16, 1)
    for name in WEIGHTS:
        assert not np.array_equal(getattr(a, name), getattr(b, name))


def test_init_model_rejects_odd_dim():
    with pytest.raises(ValueError, match="even"):
        init_model(7, 32, 15, 1)


def test_init_model_rejects_tiny_vocab_and_dim():
    with pytest.raises(ValueError):
        init_model(7, 1, 16, 1)
    with pytest.raises(ValueError):
        init_model(7, 32, 2, 1)
    # Each size refuses NaN, a fraction and one below its minimum.  The
    # width's parity is checked first, so a NaN, fractional or odd width is
    # refused as odd, and an even one (2, or 16.0) meets the integer rule.
    for name, minimum in (("vocab_size", 2), ("num_layers", 1)):
        for value in bad_integers(minimum):
            sizes = {"vocab_size": 32, "num_layers": 1, name: value}
            with pytest.raises(ValueError,
                               match=f"{name} must be >= {minimum}"):
                init_model(7, model_dim=16, **sizes)
    for width in (*bad_integers(4), 2, 16.0):
        message = ("model_dim must be even" if width % 2
                   else "model_dim must be >= 4")
        with pytest.raises(ValueError, match=message):
            init_model(7, 32, width, 1)


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
        append(cache, out.staged)
    a = forward_step(params, cache, 5)
    b = forward_step(params, cache, 5)
    assert np.array_equal(a.distribution, b.distribution)
    assert np.array_equal(a.attention_weights, b.attention_weights)


def test_forward_step_rejects_out_of_vocab(params):
    with pytest.raises(ValueError, match="vocab"):
        forward_step(params, CacheState(budget=4), 99)


@pytest.mark.parametrize("token", [1.7, 2.0, np.float64(2.0), "3", None],
                         ids=repr)
def test_forward_step_refuses_a_token_that_is_not_an_integer(params, token):
    # These used to fail inside numpy's indexing with an IndexError (or a
    # TypeError from the range comparison).
    cache = CacheState(budget=4)
    append(cache, forward_step(params, cache, 1).staged)
    with pytest.raises(ValueError,
                       match=re.escape(f"token {token} out of vocab (V=")):
        forward_step(params, cache, token)
    assert cache.n == 1 and cache._staged is None
    assert np.array_equal(forward_step(params, cache, np.int64(2)).distribution,
                          forward_step(params, cache, 2).distribution)


def test_forward_step_rejects_dimension_mismatch(params):
    for dims in ((32, 8, 1),                    # model_dim mismatch
                 (32, 16, 2)):                  # layer-count mismatch
        cache = CacheState(budget=4)
        row = forward_step(init_model(0, *dims), CacheState(budget=4),
                           1).staged.entry()
        append(cache, KVEntry(key=row.key, value=row.value, position=0))
        with pytest.raises(ValueError, match=r"shape \(1, 16\)"):
            forward_step(params, cache, 1)


def test_a_step_of_another_width_leaves_the_staged_row(params):
    # The shape check runs before the free slot is handed out again, so the
    # row staged before the rejected step can still be committed.
    cache = CacheState(budget=4)
    append(cache, forward_step(params, cache, 1).staged)
    staged = forward_step(params, cache, 2).staged
    with pytest.raises(ValueError, match=r"shape \(1, 8\)"):
        forward_step(init_model(0, 32, 8, 1), cache, 3)
    append(cache, staged)
    assert cache.n == cache.total_appended == 2


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


def _reference_softmax(x):
    z = np.exp(x - x.max())
    z /= z.sum()
    return z


def _restack_forward_step(params, cache, token, origin=DECODE):
    """Reference forward pass that re-stacks the cache once per layer;
    returns the distribution, the token's entry and the attention weights."""
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
        w = _reference_softmax(logits)
        weights[l] = w
        h = h + (w @ values) @ params.wo[l]
    dist = _reference_softmax(h @ params.unembed)
    entry = KVEntry(key=new_keys, value=new_values,
                    position=cache.total_appended, origin=origin,
                    score_mass=float(weights[:, -1].mean()))
    return dist, entry, weights


def _row_state(entry):
    return (entry.key.shape, entry.key.tobytes(), entry.value.tobytes(),
            entry.position, entry.origin, entry.score_mass, entry.group_mass,
            entry.protected, entry.members)


@pytest.mark.parametrize("num_layers", range(1, 8))
@pytest.mark.parametrize("n", [0, 1, 9, 70])
def test_forward_step_matches_per_layer_restack(num_layers, n):
    # The first row (and about a third of the rest) is a fold
    # representative, so the step adds log(group_mass).
    _check_step_against_restack(num_layers, n, folded=True)


@pytest.mark.parametrize("num_layers", range(1, 8))
@pytest.mark.parametrize("n", [1, 9, 70])
def test_unfolded_forward_step_matches_per_layer_restack(num_layers, n):
    # Every group mass is 1, so the step skips log(group_mass).
    _check_step_against_restack(num_layers, n, folded=False)


@pytest.mark.parametrize("num_layers", range(1, 8))
@pytest.mark.parametrize("n", [9, 70])
def test_defolded_forward_step_matches_per_layer_restack(num_layers, n):
    # Every folded row has been dropped, so no member is recorded, every
    # live group mass is 1 again and the step skips log(group_mass).
    _check_step_against_restack(num_layers, n, folded=True, defold=True)


def _check_step_against_restack(num_layers, n, folded, defold=False):
    params = init_model(5, 32, 16, num_layers)
    rng = np.random.default_rng([num_layers, n, folded])
    cache = CacheState(budget=128)
    for i in range(n):
        if not folded or defold and i % 2:
            members = 1             # some rows outlive the folded ones
        elif i == 0:
            members = 2             # members > 1: a merged entry
        else:
            members = int(rng.integers(1, 4))
        append(cache, KVEntry(
            key=rng.standard_normal((num_layers, 16)),
            value=rng.standard_normal((num_layers, 16)),
            position=3 * i, score_mass=float(rng.random()),
            group_mass=1.0 if members == 1 else float(rng.uniform(0.1, 4.0)),
            members=tuple(range(3 * i, 3 * i + members))))
    # The step takes log(group_mass) exactly while members are recorded.
    assert bool(cache.members) == (folded and n > 0)
    if defold:
        drop(cache, cache.row_of(sorted(cache.members)))
        assert not cache.members and 0 < cache.n < n
        assert (cache._columns["group_mass"][:cache.n] == 1.0).all()
    live_n = cache.n
    for token, origin in ((0, DECODE), (17, PREFIX), (31, DECODE)):
        live = _entry_state(cache.entries)
        dist, entry, weights = _restack_forward_step(params, cache, token,
                                                     origin)
        # A step asked for no prediction returns no distribution, and the
        # same weights and staged row.
        for predict in (False, True):
            new = forward_step(params, cache, token, origin, predict=predict)
            if predict:
                assert new.distribution.tobytes() == dist.tobytes()
            else:
                assert new.distribution is None
            assert new.attention_weights.shape == weights.shape
            assert new.attention_weights.tobytes() == weights.tobytes()
            # Every column of the staged row, and nothing live, moved.
            assert _row_state(new.staged.entry()) == _row_state(entry)
            assert cache.n == live_n and _entry_state(cache.entries) == live
    # The live positions run to 3n - 3 (or past it, counting members), so
    # from n = 2 on the staged position n is out of order.
    if n < 2:
        append(cache, new.staged)
        assert _row_state(cache.entries[-1]) == _row_state(entry)
        assert cache.n == n + 1 and cache.total_appended == n + 1
    else:
        with pytest.raises(CacheError, match=f"non-monotone position {n} "):
            append(cache, new.staged)
        assert cache.n == live_n and _entry_state(cache.entries) == live


def _misuse_nothing_staged(params, cache):
    out = forward_step(params, cache, 3)
    append(cache, out.staged)
    return out.staged, None          # committed once already


def _misuse_another_cache(params, cache):
    other = prefill(params, [1, 2, 3, 4, 5, 6]).cache
    return forward_step(params, other, 3).staged, forward_step(
        params, cache, 3).staged


def _misuse_a_fork(params, cache):
    out = forward_step(params, cache, 3)
    twin = cache.fork()
    assert twin.n == cache.n
    with pytest.raises(CacheError, match="no row is staged"):
        append(twin, out.staged)
    return forward_step(params, twin, 4).staged, out.staged


def _misuse_stale(params, cache):
    first = forward_step(params, cache, 3)
    return first.staged, forward_step(params, cache, 4).staged


def _misuse_removed_in_between(params, cache):
    out = forward_step(params, cache, 3)
    drop(cache, [0])
    return out.staged, None


@pytest.mark.parametrize("misuse", [
    _misuse_nothing_staged, _misuse_another_cache, _misuse_a_fork,
    _misuse_stale, _misuse_removed_in_between])
def test_append_rejects_a_row_that_is_not_staged_here(params, misuse):
    # Each handle fails where it is committed and leaves the cache, and
    # the row staged in it, as they were.
    cache = prefill(params, [1, 2, 3, 4, 5, 6]).cache.fork(budget=32)
    bad, staged = misuse(params, cache)
    before = (_cache_state(cache), cache.n)
    with pytest.raises(CacheError, match="staged"):
        append(cache, bad)
    if bad.cache is cache:
        with pytest.raises(CacheError, match="no longer staged"):
            bad.entry()
    assert (_cache_state(cache), cache.n) == before
    check_invariants(cache)
    if staged is not None:
        row = staged.entry()
        append(cache, staged)
        assert _row_state(cache.entries[-1]) == _row_state(row)
        assert cache.n == before[1] + 1
        check_invariants(cache)


@pytest.mark.parametrize("num_layers", [1, 4])
@pytest.mark.parametrize("seed", range(20))
def test_step_projections_equal_the_separate_products(seed, num_layers):
    # Layer 0 reads memoized products, later layers one product against
    # wq, wk and wv side by side; either must give the bits of the three
    # separate h @ w products.  A BLAS whose kernels differ fails here.
    params = init_model(seed, num_layers=num_layers)
    d = params.model_dim
    for token in range(params.vocab_size):
        h = params.embedding[token]
        for got, w in zip(params.qkv0[token], (params.wq, params.wk,
                                               params.wv)):
            assert got.tobytes() == (h @ w[0]).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 0.0
    rng = np.random.default_rng(seed)
    for l in range(1, num_layers):
        for h in rng.standard_normal((64, d)):
            qkv = h @ params.wqkv[l]
            for i, w in enumerate((params.wq, params.wk, params.wv)):
                assert qkv[i * d:(i + 1) * d].tobytes() == (h @ w[l]).tobytes()


def test_prefill_and_decode_build_no_entry(params, monkeypatch):
    # The step reads the cache's buffers in place and stages each fed
    # token's row in the free slot, which append commits: prefill, decode,
    # forks and mass accumulation build no KVEntry.
    built = []
    post_init = KVEntry.__post_init__

    def counting(entry):
        built.append(entry.position)
        post_init(entry)

    monkeypatch.setattr(KVEntry, "__post_init__", counting)
    prompt = list(make_witness("prompt-heavy-decode-active", 2, 24, 64,
                               0.7).prompt)
    snapshot = prefill(params, prompt)
    for method, forced in (("none", None), ("evict", None),
                           ("evict", [1] * 64)):
        run = decode(params, snapshot, 64, make_policy(method, 16), forced)
        assert len(run.tokens) == 64
    out = forward_step(params, run.cache, 3)
    accumulate_mass(run.cache, out)
    append(run.cache, out.staged)
    run.cache.fork()
    snapshot.cache.fork(budget=4)
    assert built == []
    assert snapshot.cache.total_appended == len(prompt)
    assert run.cache.total_appended == len(prompt) + 65


@pytest.mark.parametrize("num_layers", [1, 2, 4])
@pytest.mark.parametrize("kind, prefix_len, redundancy", [
    ("prompt-heavy-decode-active", 24, 0.7),
    ("prompt-heavy-prefix-dominant", 48, 0.2)])
def test_prefill_equals_a_loop_that_predicts_every_token(num_layers, kind,
                                                         prefix_len,
                                                         redundancy):
    # Prefill predicts from the last prompt token alone; its cache and
    # distribution are the bytes of a loop whose every step predicts.
    params = init_model(0, num_layers=num_layers)
    prompt = list(make_witness(kind, 1, prefix_len, 8, redundancy).prompt)
    snapshot = prefill(params, prompt)
    cache = CacheState(budget=len(prompt))
    for tok in prompt:
        out = forward_step(params, cache, tok, PREFIX)
        accumulate_mass(cache, out)
        append(cache, out.staged)
    assert snapshot.distribution.tobytes() == out.distribution.tobytes()
    assert _cache_state(snapshot.cache) == _cache_state(cache)
    n = cache.n
    assert snapshot.cache.n == n == len(prompt)
    assert ({name: col[:n].tobytes()
             for name, col in snapshot.cache._columns.items()}
            == {name: col[:n].tobytes() for name, col in cache._columns.items()})
    assert (snapshot.cache._kv[:, :, :n].tobytes()
            == cache._kv[:, :, :n].tobytes())
    # run_prefill takes any iterable of tokens, a generator too.
    streamed = CacheState(budget=len(prompt))
    dist = run_prefill(params, streamed, (tok for tok in prompt))
    assert dist.tobytes() == out.distribution.tobytes()
    assert _cache_state(streamed) == _cache_state(cache)


@pytest.mark.parametrize("num_layers", [1, 2])
def test_prefill_takes_one_output_head(monkeypatch, num_layers):
    # Each step takes one softmax per layer over its n + 1 attention
    # weights; only the last prompt token's step also takes the head's,
    # over the V logits.  The prompt is shorter than V, so no weight row
    # has V entries.
    params = init_model(0, num_layers=num_layers)
    prompt = list(range(1, 21))
    sizes = []
    monkeypatch.setattr("cask.model._softmax_in_place",
                        lambda x: sizes.append(len(x)) or _softmax_in_place(x))
    snapshot = prefill(params, prompt)
    assert sizes == [n + 1 for n in range(len(prompt))
                     for _ in range(num_layers)] + [params.vocab_size]
    assert abs(snapshot.distribution.sum() - 1.0) < 1e-9


def test_noop_compression_keeps_distributions_identical(params):
    # a compressed cache whose representative set equals the full set
    prompt = [1, 4, 9, 2, 7, 5]
    full = CacheState(budget=64)
    for tok in prompt:
        out = forward_step(params, full, tok)
        accumulate_mass(full, out)
        append(full, out.staged)
    compressed = CacheState(budget=64)
    for tok in prompt:
        out = forward_step(params, compressed, tok)
        accumulate_mass(compressed, out)
        append(compressed, out.staged)
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
        append(cache, out.staged)
    assert all(e.score_mass >= 0 for e in cache.entries)


def test_generate_reference_rejects_zero_length(params):
    for length in bad_integers(1):
        with pytest.raises(ValueError, match="length must be >= 1"):
            generate_reference(params, [1, 2], length)


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
        append(cache, out.staged)
        seen.append(out.distribution)
    for t in range(6):
        assert np.array_equal(ref.distributions[t], seen[len(prompt) - 1 + t])


def test_generate_reference_oracle_scores_cover_all_positions(params):
    ref = generate_reference(params, [1, 2, 3], 5)
    assert ref.cache.position.tolist() == list(range(8))
    assert np.all(ref.cache.score_mass >= 0)


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
    a.is_decode[0] = True
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


@pytest.mark.parametrize("num_layers", [1, 2])
def test_unbudgeted_decode_on_its_trunk_is_the_trunk(monkeypatch, num_layers):
    # A sweep's none cell is decoded like every other cell.  With no budget
    # its cache holds every step, so it starts on a fork of the reference's
    # terminal cache and feeds no token.
    params = init_model(0, num_layers=num_layers)
    prompt = list(make_witness("prompt-heavy-decode-active", 3, 24, 1,
                               0.7).prompt)
    ref = generate_reference(params, prompt, 24, [28, 32])
    steps = []
    monkeypatch.setattr("cask.model.forward_step",
                        lambda *args, **kwargs: steps.append(args))
    policy = make_policy("none")
    run = decode(params, ref.snapshot, 24, policy, forced=ref.tokens,
                 trunk=ref)
    assert run.tokens == ref.tokens and run.fork is None
    assert run.distributions.tobytes() == ref.distributions.tobytes()
    assert run.cache_sizes.tobytes() == ref.cache_sizes.tobytes()
    assert run.cache is not ref.cache
    assert _cache_state(run.cache) == _cache_state(ref.cache)
    assert ({name: col[:run.cache.n].tobytes()
             for name, col in run.cache._columns.items()}
            == {name: col[:ref.cache.n].tobytes()
                for name, col in ref.cache._columns.items()})
    assert run.cache.members == ref.cache.members
    tokens, cache = greedy_branch(params, run, policy)
    assert tokens == ref.tokens and cache is run.cache
    assert steps == []


def test_decode_checks_every_forced_token_before_the_first_step(params,
                                                                monkeypatch):
    ref = generate_reference(params, [1, 2, 3], 48)
    forced = list(ref.tokens)
    forced[40] = params.vocab_size
    steps = []
    monkeypatch.setattr("cask.model.forward_step",
                        lambda *args, **kwargs: steps.append(args)
                        or forward_step(*args, **kwargs))
    with pytest.raises(ValueError, match=f"forced token {params.vocab_size} "
                                         f"at step 40 out of vocab"):
        decode(params, ref.snapshot, 48, make_policy("none"), forced=forced)
    # A fractional token is refused, not truncated, and a step count that
    # is not an integer >= 0 is refused before the tokens are read.
    for steps_in, forced_in, message in (
            (4, [1.7, 2.2, 3.9, 0.5], "forced token 1.7 at step 0 out of vocab"),
            (2, np.array([1.0, 2.0]), "forced token 1.0 at step 0 out of vocab"),
            (48, forced[:3] + [3.0] + forced[4:], "forced token 3.0 at step 3"),
            (48, forced[:5] + [-1] + forced[6:], "forced token -1 at step 5"),
            (48, forced[:7] + ["7"] + forced[8:], "forced token 7 at step 7"),
            (2.0, None, "steps must be >= 0, got 2.0"),
            (-1, forced, "steps must be >= 0, got -1"),
            (float("nan"), forced, "steps must be >= 0, got nan")):
        for policy in (make_policy("none"), make_policy("cask", 16),
                       make_policy("evict", 16)):
            with pytest.raises(ValueError, match=re.escape(message)):
                decode(params, ref.snapshot, steps_in, policy,
                       forced=forced_in)
    assert steps == []
    # A bad token past the step count is not fed, so it is not checked.
    assert decode(params, ref.snapshot, 40, make_policy("none"),
                  forced=forced).tokens == ref.tokens[:40]
    assert len(steps) == 40
    run = decode(params, ref.snapshot, 40, make_policy("none"),
                 forced=np.array(forced))
    assert run.tokens == ref.tokens[:40] and type(run.tokens[0]) is int


def test_decode_rejects_a_forced_sequence_shorter_than_steps(params,
                                                            monkeypatch):
    ref = generate_reference(params, [1, 2, 3], 5)
    # A longer sequence is fed up to the step count.
    assert decode(params, ref.snapshot, 3, make_policy("none"),
                  forced=ref.tokens).tokens == ref.tokens[:3]
    steps = []
    monkeypatch.setattr("cask.model.forward_step",
                        lambda *args, **kwargs: steps.append(args))
    with pytest.raises(ValueError, match="forced has 4 tokens for 5 steps"):
        decode(params, ref.snapshot, 5, make_policy("none"),
               forced=ref.tokens[:4])
    assert steps == []


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


def test_reference_run_carries_its_prefill(params, monkeypatch):
    ref = generate_reference(params, [1, 2, 3], 5)
    fresh = prefill(params, np.array([1, 2, 3]))
    assert fresh.prompt == (1, 2, 3) and type(fresh.prompt[0]) is int
    assert ref.snapshot.prompt == (1, 2, 3)
    assert _cache_state(ref.snapshot.cache) == _cache_state(fresh.cache)
    assert ref.snapshot.distribution.tobytes() == fresh.distribution.tobytes()
    assert ref.cache_sizes.tolist() == [3, 4, 5, 6, 7]
    with pytest.raises(ValueError, match="nonempty"):
        prefill(params, [])
    # Every prompt token is checked before the first step: a fractional
    # one is refused, not truncated.
    steps = []
    monkeypatch.setattr("cask.model.forward_step",
                        lambda *args, **kwargs: steps.append(args))
    for prompt, message in (([0, 1.7, 3.2], "prompt token 1.7 at step 1"),
                            ([1, 2, np.float64(3.0)], "prompt token 3.0 at"),
                            ([1, params.vocab_size],
                             f"prompt token {params.vocab_size} at step 1"),
                            ([1, 2, -1], "prompt token -1 at step 2")):
        with pytest.raises(ValueError, match=re.escape(message)):
            prefill(params, prompt)
    assert steps == []


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
    for name, minimum in (("vocab_size", 2), ("prefix_len", 0),
                          ("decode_len", 1)):
        for value in bad_integers(minimum):
            sizes = {"prefix_len": 10, "decode_len": 5, name: value}
            with pytest.raises(ValueError,
                               match=f"{name} must be >= {minimum}"):
                make_witness(kind, 0, redundancy=0.5, **sizes)


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


@pytest.mark.parametrize("hint, value, expected", [
    (int, 3, None), (int, True, "an integer"), (int, 3.0, "an integer"),
    (float, 3, None), (float, 2.5, None), (float, False, "a number"),
    (bool, False, None), (bool, 0, "a boolean"), (str, "x", None),
    (str, None, "a string"), (type(None), None, None), (type(None), 0, "null"),
    (int | None, None, None), (int | None, 1.5, "an integer or null"),
    (tuple[int, ...], [0, 5], None), (tuple[int, ...], [], None),
    (tuple[int, ...], [0, True], "a list of integers"),
    (tuple[int, ...], 5, "a list of integers"),
])
def test_check_json_types_compares_types_exactly(hint, value, expected):
    check = lambda: check_json_types("where", {"a": 1, "k": value},
                                     {"absent": int, "k": hint})
    if expected is None:
        check()
    else:
        with pytest.raises(ValueError, match=re.escape(
                f"where: 'k' is {value!r}, expected {expected}") + "$"):
            check()


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
                                      staged=None,
                                      attention_weights=weights))
    expected = weights[:, :-1].mean(axis=0)
    assert [e.score_mass for e in cache.entries] == expected.tolist()

    params = init_model(data.draw(st.integers(0, 99)), 16, 16, num_layers)
    out = forward_step(params, cache, data.draw(st.integers(0, 15)))
    assert out.staged.entry().score_mass == float(
        out.attention_weights[:, -1].mean())
