"""Deterministic toy causal-attention LM, its one prefill + decode loop
(shared by the reference, replay and bridge runs) and synthetic witness
prompts.

A sweep prefills each witness once: the reference run and every
(method, budget) cell start from forks of that one :class:`PrefillSnapshot`,
since their caches and next-token distributions are identical until the
policy's ``after_prefill``.

Each cell is then one decode tree.  Its teacher-forced replay and its free
greedy (bridge) run feed the same tokens, and so hold the same cache, up to
the first step whose argmax differs from the forced token.  :func:`decode`
runs the forced branch and forks the cache just before that step's token is
fed; :func:`greedy_branch` finishes the greedy run on the fork.  A run that
never mismatches is its own greedy run.

The model is a seeded, single-layer-by-default attention stack over token
embeddings with no positional encoding, so identical tokens produce identical
keys and redundancy in the prompt shows up as exactly mergeable cache
entries.  A merged representative attends like a normal entry except that
its logit gains ``log(group_mass)``, letting consolidated mass keep a
mass-proportional share of the softmax.

The step reads the cache in place.  The cache keeps keys and values as
``(L, capacity, d)`` buffers (see :mod:`cask.cache`); :func:`forward_step`
writes the new token's rows into the free slot ``n`` and layer ``l`` attends
over ``keys[l, :n + 1]`` and ``values[l, :n + 1]``, with the log group
masses of the same rows.  :func:`accumulate_mass` adds the step's layer-mean
attention onto the ``score_mass`` column in one vector add.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .cache import DECODE, PREFIX, CacheState, KVEntry, append

WITNESS_KINDS = (
    "short-prompt-reasoning",
    "prompt-heavy-decode-active",
    "prompt-heavy-prefix-dominant",
)

METHOD_NONE = "none"

_MOTIF_LEN = {
    "short-prompt-reasoning": 4,
    "prompt-heavy-decode-active": 4,
    "prompt-heavy-prefix-dominant": 8,
}


@dataclass
class ModelParams:
    seed: int
    vocab_size: int
    model_dim: int
    num_layers: int
    embedding: np.ndarray          # (V, d)
    wq: np.ndarray                 # (L, d, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    unembed: np.ndarray            # (d, V)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for arr in (self.embedding, self.wq, self.wk, self.wv, self.wo, self.unembed):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def init_model(seed: int, vocab_size: int = 32, model_dim: int = 16,
               num_layers: int = 1) -> ModelParams:
    """Build deterministic parameters; equal inputs give equal parameters."""
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if model_dim % 2 != 0:
        raise ValueError("model_dim must be even")
    if model_dim < 4:
        raise ValueError("model_dim must be >= 4")
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    rng = np.random.default_rng(seed)
    d = model_dim
    scale = 1.0 / np.sqrt(d)
    return ModelParams(
        seed=seed,
        vocab_size=vocab_size,
        model_dim=d,
        num_layers=num_layers,
        embedding=rng.standard_normal((vocab_size, d)),
        wq=rng.standard_normal((num_layers, d, d)) * scale,
        wk=rng.standard_normal((num_layers, d, d)) * scale,
        wv=rng.standard_normal((num_layers, d, d)) * scale,
        wo=rng.standard_normal((num_layers, d, d)) * scale,
        unembed=rng.standard_normal((d, vocab_size)) * scale,
    )


@dataclass
class StepOutput:
    """One forward pass: next-token distribution, the token's cache entry
    (stacked per-layer rows), and per-layer attention weights over the
    entries present at call time plus the new position (last column)."""

    distribution: np.ndarray       # (V,)
    new_entry: KVEntry
    attention_weights: np.ndarray  # (L, n_cache + 1)


def _softmax(x: np.ndarray) -> np.ndarray:
    z = np.exp(x - x.max())
    return z / z.sum()


def forward_step(params: ModelParams, cache: CacheState, token: int,
                 origin: str = DECODE) -> StepOutput:
    """Forward pass over the live rows; the caller decides what to insert
    into the cache.

    The token's key and value rows are written into the cache's free slot
    ``n`` (:meth:`CacheState.slot`), so each layer attends over
    ``keys[l, :n + 1]``, one C-contiguous operand, without re-stacking the
    cache.  The live rows are only read, and ``n`` does not change.
    """
    if not 0 <= token < params.vocab_size:
        raise ValueError(f"token {token} out of vocab (V={params.vocab_size})")
    L, d = params.num_layers, params.model_dim
    n = cache.n
    if n and cache.row_shape != (L, d):
        raise ValueError(f"cache entries must have shape {(L, d)}, the "
                         f"model's (num_layers, model_dim), not "
                         f"{cache.row_shape}")
    keys, values, group_mass = cache.slot((L, d))
    log_mass = np.log(group_mass)
    h = params.embedding[token]
    weights = np.empty((L, n + 1))
    sqrt_d = np.sqrt(d)
    for l in range(L):
        q = h @ params.wq[l]
        keys[l, n] = h @ params.wk[l]
        values[l, n] = h @ params.wv[l]
        w = _softmax(keys[l] @ q / sqrt_d + log_mass)
        weights[l] = w
        h = h + (w @ values[l]) @ params.wo[l]
    dist = _softmax(h @ params.unembed)
    entry = KVEntry(key=keys[:, n].copy(), value=values[:, n].copy(),
                    position=cache.total_appended, origin=origin,
                    score_mass=float(weights[:, -1].sum() / L))
    return StepOutput(distribution=dist, new_entry=entry,
                      attention_weights=weights)


def accumulate_mass(cache: CacheState, output: StepOutput) -> None:
    """Add this step's attention mass (mean over layers) onto the live
    rows' score mass, in one vector add."""
    if cache.n:
        weights = output.attention_weights
        # The layer mean as ndarray.mean computes it, bit for bit.
        mass = cache.score_mass
        mass += weights[:, :-1].sum(axis=0) / len(weights)


class NoCompressionPolicy:
    """Full-KV pipeline: appends everything, never compresses."""

    method = METHOD_NONE
    budget: int | None = None

    def after_prefill(self, cache: CacheState) -> None:
        pass

    def force_append(self, cache: CacheState, entry: KVEntry) -> None:
        append(cache, entry)


def run_prefill(params: ModelParams, cache: CacheState, prompt) -> np.ndarray:
    """Feed the prompt, accumulate attention mass, and return the
    next-token distribution in hand."""
    dist = None
    for tok in prompt:
        out = forward_step(params, cache, int(tok), origin=PREFIX)
        accumulate_mass(cache, out)
        append(cache, out.new_entry)
        dist = out.distribution
    return dist


@dataclass
class PrefillSnapshot:
    """A prompt's full-KV cache and next-token distribution right after
    prefill, before any policy's ``after_prefill``.  :func:`decode` starts
    each run from a :meth:`CacheState.fork` of ``cache`` given the run's
    budget; ``cache`` itself is never written."""

    prompt: tuple[int, ...]
    cache: CacheState
    distribution: np.ndarray       # (V,)


def prefill(params: ModelParams, prompt) -> PrefillSnapshot:
    """Prefill ``prompt`` under full KV and keep the result for forking."""
    cache = CacheState(budget=max(1, len(prompt)))
    dist = run_prefill(params, cache, prompt)
    if dist is None:
        raise ValueError("prompt must be nonempty")
    return PrefillSnapshot(prompt=tuple(int(t) for t in prompt),
                           cache=cache, distribution=dist)


@dataclass
class DecodeRun:
    """A decode's prefill snapshot, its fed tokens, the ``(T, V)``
    distributions in hand before each token was fed, the live cache size at
    each step and the terminal cache.  ``fork`` is ``(t, cache)`` for a
    forced run whose argmax first differs from the forced token at step
    ``t``, ``cache`` being its state just before that token was fed; it is
    None for a run that never mismatched (or was not forced)."""

    snapshot: PrefillSnapshot
    tokens: list[int]
    distributions: np.ndarray      # (T, V)
    cache_sizes: np.ndarray        # (T,)
    cache: CacheState
    fork: tuple[int, CacheState] | None

    @property
    def oracle_scores(self) -> dict[int, float]:
        """Accumulated attention mass per position of the terminal cache;
        a full-KV run's are the oracle score source."""
        cache = self.cache
        return dict(zip(cache.position.tolist(), cache.score_mass.tolist()))


def _run_steps(params: ModelParams, policy, cache: CacheState,
               dist: np.ndarray, tokens: list[int], steps: int, forced=None):
    """Feed tokens into ``cache`` from step ``len(tokens)`` to step
    ``steps``, ``dist`` being the distribution in hand.  Each step records
    the distribution and the live cache size, then feeds ``forced[t]`` or
    else the greedy argmax (ties go to the lowest id) through the policy's
    append path.  Returns the ``(steps, V)`` distributions and ``(steps,)``
    sizes (rows before ``len(tokens)`` are left unset) and the
    ``DecodeRun.fork`` of a forced run."""
    dists = np.empty((steps, params.vocab_size))
    sizes = np.empty(steps, dtype=np.int64)
    fork = None
    for t in range(len(tokens), steps):
        dists[t] = dist
        sizes[t] = cache.n
        tok = int(np.argmax(dist))
        if forced is not None:
            if fork is None and tok != forced[t]:
                fork = (t, cache.fork())
            tok = forced[t]
        tokens.append(tok)
        out = forward_step(params, cache, tok, origin=DECODE)
        accumulate_mass(cache, out)
        policy.force_append(cache, out.new_entry)
        dist = out.distribution
    return dists, sizes, fork


def decode(params: ModelParams, snapshot: PrefillSnapshot, steps: int,
           policy, forced=None) -> DecodeRun:
    """Decode ``steps`` tokens after ``snapshot``'s prompt through ``policy``.

    The run starts from a fork of ``snapshot``, on which the policy's
    ``after_prefill`` runs first.  It feeds ``forced`` (teacher forcing) or
    else the greedy argmax; a forced run keeps the fork its greedy run
    continues from (:func:`greedy_branch`).
    """
    budget = policy.budget
    if budget is None:
        budget = len(snapshot.prompt) + steps + 1
    cache = snapshot.cache.fork(budget)
    policy.after_prefill(cache)
    tokens: list[int] = []
    dists, sizes, fork = _run_steps(params, policy, cache,
                                    snapshot.distribution, tokens, steps,
                                    forced)
    return DecodeRun(snapshot, tokens, dists, sizes, cache, fork)


def greedy_branch(params: ModelParams, run: DecodeRun,
                  policy) -> tuple[list[int], CacheState]:
    """The free greedy decode that ``run`` shares its steps with, as its
    tokens and terminal cache.

    That is ``run`` itself when it never mismatched.  Otherwise the greedy
    run fed ``run``'s tokens up to the fork and is finished on a copy of
    the fork, from the distribution ``run`` had in hand there, through
    ``policy`` (the one ``run`` used: policies hold no per-run state).
    ``run`` is left as it is.
    """
    if run.fork is None:
        return run.tokens, run.cache
    t, fork = run.fork
    tokens, cache = run.tokens[:t], fork.fork()
    _run_steps(params, policy, cache, run.distributions[t], tokens,
               len(run.tokens))
    return tokens, cache


def generate_reference(params: ModelParams, prompt: list[int],
                       length: int) -> DecodeRun:
    """Greedy argmax continuation under full KV; ties go to the lowest id.

    Its snapshot is the prefill that the sweep's cells fork, and its
    terminal cache is never written after this call.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return decode(params, prefill(params, prompt), length,
                  NoCompressionPolicy())


@dataclass
class Witness:
    kind: str
    seed: int
    prefix_len: int
    decode_len: int
    redundancy: float
    prompt: tuple[int, ...]
    # None only for a manifest written before vocab sizes were recorded.
    vocab_size: int | None = None

    @property
    def name(self) -> str:
        return f"{self.kind}-s{self.seed}"


def make_witness(kind: str, seed: int, prefix_len: int, decode_len: int,
                 redundancy: float, vocab_size: int = 32) -> Witness:
    """Synthetic prompt with controllable repeated-motif density.

    The prompt is one start token followed by ``prefix_len`` body tokens;
    a ``redundancy`` fraction of the body is covered by repeats of a single
    seeded motif, the rest is fresh random tokens.  Decode-active witnesses
    end on the motif so greedy decode tends to continue the loop.
    """
    if kind not in WITNESS_KINDS:
        raise ValueError(f"unknown witness kind {kind!r}")
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if prefix_len < 0:
        raise ValueError("prefix_len must be >= 0")
    if decode_len < 1:
        raise ValueError("decode_len must be >= 1")
    if not 0.0 <= redundancy <= 1.0:
        raise ValueError("redundancy must be in [0, 1]")
    rng = np.random.default_rng([seed, WITNESS_KINDS.index(kind)])
    motif_len = _MOTIF_LEN[kind]
    motif = rng.integers(1, vocab_size, size=motif_len).tolist()
    n_rep = int(redundancy * prefix_len) // motif_len
    fresh_count = prefix_len - n_rep * motif_len
    blocks: list[list[int]] = [list(motif) for _ in range(n_rep)]
    fresh = rng.integers(1, vocab_size, size=fresh_count).tolist()
    for i in range(0, fresh_count, motif_len):
        blocks.append(fresh[i:i + motif_len])
    order = rng.permutation(len(blocks)) if blocks else []
    body: list[int] = []
    for idx in order:
        body.extend(blocks[idx])
    if kind == "prompt-heavy-decode-active" and n_rep > 0:
        body.extend(motif)
        body = body[-prefix_len:] if prefix_len else []
    prompt = (0, *body[:prefix_len])
    return Witness(kind=kind, seed=seed, prefix_len=prefix_len,
                   decode_len=decode_len, redundancy=redundancy,
                   prompt=prompt, vocab_size=vocab_size)


def write_witness_manifest(witness: Witness, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(dataclasses.asdict(witness), indent=2) + "\n")
    return path


# The JSON types a manifest may give each Witness field, and how a message
# names them.  Types are compared exactly, so a bool is not an int.
_MANIFEST_TYPES = {
    "kind": ((str,), "a string"),
    "seed": ((int,), "an integer"),
    "prefix_len": ((int,), "an integer"),
    "decode_len": ((int,), "an integer"),
    "redundancy": ((int, float), "a number"),
    "prompt": ((list,), "a list of integers"),
    "vocab_size": ((int, type(None)), "an integer or null"),
}


def read_witness_manifest(path: str | Path) -> Witness:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict):
        raise ValueError(f"witness manifest {path}: expected a JSON object")
    missing = [f.name for f in fields(Witness)
               if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"witness manifest {path}: missing keys {missing}")
    values = {f.name: data[f.name] for f in fields(Witness) if f.name in data}
    for key, value in values.items():
        types, expected = _MANIFEST_TYPES[key]
        if type(value) not in types or (key == "prompt" and any(
                type(t) is not int for t in value)):
            raise ValueError(f"witness manifest {path}: {key!r} is "
                             f"{value!r}, expected {expected}")
    values["prompt"] = tuple(values["prompt"])
    return Witness(**values)
