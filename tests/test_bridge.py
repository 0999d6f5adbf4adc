from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cask.bridge import (
    bridge_run,
    embed,
    lcs_length,
    sem_sim,
    seq_ratio,
    task_metric,
    _bigram_bucket,
)
from cask.model import generate_reference, make_witness
from cask.replay import make_policy
from conftest import bad_integers
from reference import bridge as reference_bridge

tokens = st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=12)


def lcs_oracle(a, b):
    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return rec(i - 1, j - 1) + 1
        return max(rec(i - 1, j), rec(i, j - 1))
    return rec(len(a), len(b))


# --- LCS / seq_ratio ---------------------------------------------------------

def test_lcs_hand_example():
    # "a b c d e" vs "a c e" as token ids
    assert lcs_length([1, 2, 3, 4, 5], [1, 3, 5]) == 3
    assert seq_ratio([1, 2, 3, 4, 5], [1, 3, 5]) == pytest.approx(0.6)


def test_seq_ratio_identical_is_one():
    assert seq_ratio([4, 4, 2, 9], [4, 4, 2, 9]) == 1.0


def test_seq_ratio_disjoint_alphabets_is_zero():
    assert seq_ratio([1, 2, 3], [4, 5, 6]) == 0.0


def test_seq_ratio_empty_warns_and_returns_zero():
    with pytest.warns(UserWarning):
        assert seq_ratio([], [1, 2]) == 0.0


@given(tokens, tokens)
def test_lcs_matches_memoized_oracle(a, b):
    assert lcs_length(tuple(a), tuple(b)) == lcs_oracle(tuple(a), tuple(b))


long_tokens = st.lists(st.integers(min_value=0, max_value=7), max_size=600)


@given(long_tokens, long_tokens, st.booleans(), st.sampled_from(
    ["plain", "equal", "disjoint"]))
@example([], [], False, "plain")
@example(list(range(64)), list(range(65)), True, "plain")
@example([1] * 600, [1] * 600, True, "equal")
@settings(max_examples=120, deadline=None)
def test_lcs_equals_the_reference_dynamic_program(a, b, as_numpy, shape):
    # Masks cross the 64-bit word boundary from len(b) = 65 on.
    if shape == "equal":
        b = list(a)
    elif shape == "disjoint":
        b = [t + 8 for t in b]
    expected = reference_bridge.lcs_length(a, b)
    if as_numpy:
        a = [np.int64(t) for t in a]
        b = [np.int32(t) for t in b]
    assert lcs_length(a, b) == expected


@given(tokens, tokens)
def test_seq_ratio_bounds_and_symmetry(a, b):
    r = seq_ratio(a, b)
    assert 0.0 <= r <= 1.0
    if len(a) == len(b):
        assert r == seq_ratio(b, a)


# --- sem_sim --------------------------------------------------------------------

def test_sem_sim_identical_is_one():
    seq = [3, 1, 4, 1, 5, 9, 2, 6]
    assert sem_sim(seq, seq) == pytest.approx(1.0, abs=1e-12)


def test_sem_sim_symmetric(rng):
    a = rng.integers(0, 16, size=20).tolist()
    b = rng.integers(0, 16, size=24).tolist()
    assert sem_sim(a, b) == sem_sim(b, a)


def test_sem_sim_range(rng):
    for _ in range(20):
        a = rng.integers(0, 8, size=10).tolist()
        b = rng.integers(0, 8, size=10).tolist()
        assert -1.0 <= sem_sim(a, b) <= 1.0 + 1e-12


def test_sem_sim_matches_count_vector_oracle(rng):
    # independent reconstruction: hashed bigram counts, cosine by hand
    a = rng.integers(0, 12, size=15).tolist()
    b = rng.integers(0, 12, size=18).tolist()
    def counts(seq):
        vec = {}
        for x, y in zip(seq, seq[1:]):
            k = _bigram_bucket(int(x), int(y))
            vec[k] = vec.get(k, 0) + 1
        return vec
    ca, cb = counts(a), counts(b)
    dot = sum(ca.get(k, 0) * cb.get(k, 0) for k in set(ca) | set(cb))
    na = sum(v * v for v in ca.values()) ** 0.5
    nb = sum(v * v for v in cb.values()) ** 0.5
    assert sem_sim(a, b) == pytest.approx(dot / (na * nb), abs=1e-12)


@pytest.mark.parametrize("length", [0, 1, 2, 3, 64, 513])
def test_embed_equals_the_reference_bit_for_bit(rng, length):
    for vocab in (2, 32, 2**31 - 1):
        tokens = rng.integers(0, vocab, size=length)
        for seq in (tokens.tolist(), tokens):
            assert (embed(seq).tobytes()
                    == reference_bridge.embed(seq).tobytes())


@pytest.mark.parametrize("candidate, reference",
                         [([], [1, 2]), ([1, 2], []), ([], [])])
def test_sem_sim_empty_warns_and_returns_zero(candidate, reference):
    with pytest.warns(UserWarning, match="empty sequence"):
        assert sem_sim(candidate, reference) == 0.0


def test_sem_sim_single_token_zero_embedding_warns():
    with pytest.warns(UserWarning):
        assert sem_sim([3], [1, 2, 3]) == 0.0


def test_embed_deterministic_and_normalized():
    seq = [1, 2, 3, 4, 1, 2]
    v1, v2 = embed(seq), embed(seq)
    assert np.array_equal(v1, v2)
    assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)


# --- task metric ------------------------------------------------------------------

def test_task_metric_exact_match_default():
    assert task_metric([1, 2, 3], [1, 2, 3]) == 100.0
    assert task_metric([1, 2, 3], [1, 2, 4]) == 0.0



# --- free run -----------------------------------------------------------------------

def test_free_run_no_compression_equals_reference(params):
    w = make_witness("short-prompt-reasoning", 8, 20, 10, 0.5)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    out = bridge_run(params, list(w.prompt), w.decode_len,
                     make_policy("none"))[0]
    assert out == ref.tokens


def test_free_run_deterministic(params):
    w = make_witness("short-prompt-reasoning", 8, 20, 10, 0.5)
    a = bridge_run(params, list(w.prompt), w.decode_len,
                   make_policy("cask", 16))[0]
    b = bridge_run(params, list(w.prompt), w.decode_len,
                   make_policy("cask", 16))[0]
    assert a == b


def test_free_run_unbounded_budget_equals_reference(params):
    w = make_witness("short-prompt-reasoning", 8, 20, 10, 0.5)
    ref = generate_reference(params, list(w.prompt), w.decode_len)
    total = len(w.prompt) + w.decode_len + 1
    out = bridge_run(params, list(w.prompt), w.decode_len,
                     make_policy("cask", total))[0]
    assert out == ref.tokens


@pytest.mark.parametrize("length", bad_integers(1))
def test_bridge_run_rejects_a_bad_length(params, length):
    with pytest.raises(ValueError, match="length must be >= 1"):
        bridge_run(params, [1, 2], length, make_policy("none"))


def test_bridge_run_reports_cache(params):
    w = make_witness("prompt-heavy-decode-active", 8, 24, 32, 0.8)
    tokens_out, cache = bridge_run(params, list(w.prompt), w.decode_len,
                                   make_policy("cask", 24))
    assert len(tokens_out) == 32
    assert len(cache.entries) <= 24
