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
    """Longest common subsequence length, bit-parallel (Hyyrö 2004) over
    one int mask per symbol of ``b``; equal sequences are their own."""
    if not a or not b:
        return 0
    if a == b:
        return len(a)
    masks: dict[int, int] = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | 1 << j
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def seq_ratio(candidate: Sequence[int], reference: Sequence[int]) -> float:
    """LCS(candidate, reference) / max(len(candidate), len(reference))."""
    if not candidate or not reference:
        warnings.warn("seq_ratio on an empty sequence is defined as 0")
        return 0.0
    return lcs_length(candidate, reference) / max(len(candidate), len(reference))


def _bigram_bucket(a, b):
    """Bucket of bigram ``(a, b)``, for ints or int64 arrays element-wise:
    token ids below 2**31 keep every product inside 64 bits."""
    x = ((a + 1) * 2654435761 ^ (b + 1) * 40503 ^ EMBED_SEED * 97) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return x % EMBED_WIDTH


def embed(tokens: Sequence[int]) -> np.ndarray:
    """L2-normalized hashed token-bigram count vector (deterministic)."""
    ids = np.asarray(tokens, dtype=np.int64)
    counts = np.bincount(_bigram_bucket(ids[:-1], ids[1:]),
                         minlength=EMBED_WIDTH).astype(np.float64)
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
