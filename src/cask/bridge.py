"""Actual-output bridge: free-run generation plus output-level metrics.

The bridge reads output proximity along three separate axes (lexical
overlap, embedding cosine, exact match) instead of collapsing them into one
number.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .cache import CacheState, at_least
from .model import ModelParams, decode, prefill

EMBED_WIDTH = 256
EMBED_SEED = 17


def bridge_run(params: ModelParams, prompt, length: int, policy
               ) -> tuple[list[int], CacheState]:
    """Greedy decode where every emitted token passes through the policy;
    returns the emitted tokens and the terminal cache."""
    at_least("length", length, 1)
    run = decode(params, prefill(params, prompt), length, policy)
    return run.tokens, run.cache


def lcs_length(a: Sequence[int], b: Sequence[int]) -> int:
    """Longest common subsequence length by row-wise dynamic programming;
    equal sequences are their own longest common subsequence."""
    if not a or not b:
        return 0
    if a == b:
        return len(a)
    b_arr = np.asarray(b, dtype=np.int64)
    prev = np.zeros(len(b) + 1, dtype=np.int64)
    for x in a:
        cur = np.empty_like(prev)
        cur[0] = 0
        match = prev[:-1] + (b_arr == x)
        np.maximum(match, prev[1:], out=cur[1:])
        np.maximum.accumulate(cur, out=cur)
        prev = cur
    return int(prev[-1])


def seq_ratio(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """LCS(candidate, reference) / max(len(candidate), len(reference))."""
    if not candidate or not reference:
        warnings.warn("seq_ratio on an empty sequence is defined as 0")
        return 0.0
    return lcs_length(candidate, reference) / max(len(candidate), len(reference))


def _bigram_bucket(a: int, b: int) -> int:
    x = ((a + 1) * 2654435761 ^ (b + 1) * 40503 ^ EMBED_SEED * 97) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x % EMBED_WIDTH


def embed(tokens: Sequence[int]) -> np.ndarray:
    """L2-normalized hashed token-bigram count vector (deterministic)."""
    counts = np.zeros(EMBED_WIDTH)
    for a, b in zip(tokens, tokens[1:]):
        counts[_bigram_bucket(int(a), int(b))] += 1.0
    norm = np.linalg.norm(counts)
    return counts / norm if norm > 0 else counts


def sem_sim(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Cosine similarity of the deterministic bigram embeddings."""
    if not candidate or not reference:
        warnings.warn("sem_sim on an empty sequence is defined as 0")
        return 0.0
    u, v = embed(candidate), embed(reference)
    if not u.any() or not v.any():
        warnings.warn("sem_sim with a zero-vector embedding is defined as 0")
        return 0.0
    return float(u @ v)


def task_metric(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """Exact match: 100 when the candidate reproduces the reference token
    for token, else 0."""
    return 100.0 if list(candidate) == list(reference) else 0.0
