"""Deterministic toy causal-attention LM, its one prefill + decode loop
(shared by the reference, replay and bridge runs) and synthetic witness
prompts.

A sweep prefills each witness once: the reference run and every
(method, budget) cell start from forks of that one :class:`PrefillSnapshot`,
since their caches and next-token distributions are identical until the
policy's ``after_prefill``.

Each cell is then one decode tree with two fork points.  A cell whose
``after_prefill`` removes no row holds the reference's cache until its
budget is first exceeded, and starts there (:func:`decode`'s ``trunk``).
Its teacher-forced replay and its free greedy (bridge) run feed the same
tokens, and so hold the same cache, up to the first step whose argmax
differs from the forced token.  :func:`decode` runs the forced branch and
forks the cache just before that step's token is fed; :func:`greedy_branch`
finishes the greedy run on the fork.  A run that never mismatches is its own
greedy run.

The model is a seeded, single-layer-by-default attention stack over token
embeddings with no positional encoding, so identical tokens produce identical
keys and redundancy in the prompt shows up as exactly mergeable cache
entries.  A merged representative attends like a normal entry except that
its logit gains ``log(group_mass)``, letting consolidated mass keep a
mass-proportional share of the softmax.

The step reads the cache's buffers in place and stages each token's row
in the free slot (:func:`forward_step`, :class:`cask.cache.StagedRow`);
the decode loop commits it, and only then does the policy compress.
:func:`accumulate_mass` adds the step's layer-mean attention onto the
``score_mass`` column in one vector add.

Layer 0's input is the token's embedding alone, so its query, key and value
are taken once per token by :class:`ModelParams`; later layers take all three
in one product against the side-by-side ``(d, 3d)`` weights, which gives
each the bits of its own ``h @ w`` (``tests/test_model.py`` checks this on
the BLAS in use).
"""

from __future__ import annotations

import dataclasses
import json
import math
import operator
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .cache import DECODE, PREFIX, CacheState, StagedRow, append, at_least

# Each witness kind and the length of its repeated motif.  The order is
# part of every prompt: a kind's index in WITNESS_KINDS seeds its rng.
_MOTIF_LEN = {
    "short-prompt-reasoning": 4,
    "prompt-heavy-decode-active": 4,
    "prompt-heavy-prefix-dominant": 8,
}
WITNESS_KINDS = tuple(_MOTIF_LEN)


@dataclass
class ModelParams:
    embedding: np.ndarray          # (V, d)
    wq: np.ndarray                 # (L, d, d)
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    unembed: np.ndarray            # (d, V)
    # Derived from the weights above, which are never written: each layer's
    # wq, wk and wv side by side, and layer 0's query, key and value of
    # every token (the products embedding[t] @ w[0], read-only).  The sizes
    # vocab_size (V), model_dim (d) and num_layers (L) are plain attributes
    # set here once, so the model step reads them without a call.
    wqkv: np.ndarray = field(init=False, repr=False)    # (L, d, 3d)
    qkv0: np.ndarray = field(init=False, repr=False)    # (V, 3, d)

    def __post_init__(self):
        self.vocab_size, self.model_dim = self.embedding.shape
        self.num_layers = len(self.wq)
        self.wqkv = np.concatenate([self.wq, self.wk, self.wv], axis=2)
        self.qkv0 = np.array([[h @ w[0] for w in (self.wq, self.wk, self.wv)]
                              for h in self.embedding])
        self.qkv0.setflags(write=False)


def init_model(seed: int, vocab_size: int = 32, model_dim: int = 16,
               num_layers: int = 1) -> ModelParams:
    """Build deterministic parameters; equal inputs give equal parameters."""
    at_least("vocab_size", vocab_size, 2)
    if model_dim % 2 != 0:
        raise ValueError("model_dim must be even")
    at_least("model_dim", model_dim, 4)
    at_least("num_layers", num_layers, 1)
    rng = np.random.default_rng(seed)
    d = model_dim
    scale = 1.0 / np.sqrt(d)
    return ModelParams(
        embedding=rng.standard_normal((vocab_size, d)),
        wq=rng.standard_normal((num_layers, d, d)) * scale,
        wk=rng.standard_normal((num_layers, d, d)) * scale,
        wv=rng.standard_normal((num_layers, d, d)) * scale,
        wo=rng.standard_normal((num_layers, d, d)) * scale,
        unembed=rng.standard_normal((d, vocab_size)) * scale,
    )


@dataclass
class StepOutput:
    """One forward pass: next-token distribution, the handle of the token's
    row staged in the cache, and per-layer attention weights over the
    entries present at call time plus the new position (last column)."""

    distribution: np.ndarray       # (V,)
    staged: StagedRow
    attention_weights: np.ndarray  # (L, n_cache + 1)


def _softmax_in_place(x: np.ndarray) -> np.ndarray:
    """Overwrite ``x`` with its softmax and return it: ``exp(x - x.max())``
    over its sum, taken with the ufuncs ``ndarray.max`` and ``sum`` call,
    so bit for bit the same values."""
    x -= np.maximum.reduce(x)
    np.exp(x, out=x)
    x /= np.add.reduce(x)
    return x


def forward_step(params: ModelParams, cache: CacheState, token: int,
                 origin: str = DECODE) -> StepOutput:
    """Forward pass over the live rows that stages the token's row in the
    cache; the caller decides whether to commit it.

    The token's key and value rows are written into the cache's free slot
    ``n`` (:meth:`CacheState.slot`), so each layer attends over
    ``keys[l, :n + 1]``, one C-contiguous operand, without re-stacking the
    cache.  Layer ``l``'s scores are written into row ``l`` of the returned
    weights and its softmax is taken there, so a step allocates no
    temporary per layer.

    ``log(group_mass)`` is added only while the cache holds a folded row
    (``cache.members`` is not empty).  A row covering only its own
    position has group mass 1 (:func:`cask.cache.append` and
    :func:`cask.cache.merge_replace` refuse any other), so without folded
    rows every log would be +0.0, and adding +0.0 can only turn a -0.0
    score into +0.0, which the softmax maps to the same bits.  At
    ``L = 1`` the layer mean of the staged column is the column itself.

    The row is then staged (:meth:`CacheState.stage`) with position
    ``total_appended``, ``origin``, its own layer-mean attention as score
    mass, group mass 1 and no protection.  The live rows are only read,
    and ``n`` does not change.
    """
    if not (hasattr(token, "__index__") and 0 <= token < params.vocab_size):
        raise ValueError(f"token {token} out of vocab (V={params.vocab_size})")
    L, d = params.num_layers, params.model_dim
    n = cache.n
    keys, values, group_mass = cache.slot((L, d))
    log_mass = np.log(group_mass) if cache.members else None
    h = params.embedding[token]
    # Indexed rows: unpacking the (3, d) array would iterate it.
    qkv = params.qkv0[token]
    q = qkv[0]
    keys[0, n] = qkv[1]
    values[0, n] = qkv[2]
    weights = np.empty((L, n + 1))
    sqrt_d = math.sqrt(d)
    for l in range(L):
        if l:
            qkv = h @ params.wqkv[l]
            q, keys[l, n], values[l, n] = qkv[:d], qkv[d:2 * d], qkv[2 * d:]
        w = weights[l]
        np.matmul(keys[l], q, out=w)
        w /= sqrt_d
        if log_mass is not None:
            w += log_mass
        _softmax_in_place(w)
        h = h + (w @ values[l]) @ params.wo[l]
    dist = _softmax_in_place(h @ params.unembed)
    # The layer mean of the staged column; one layer's is its weight.
    mass = weights[0, -1] if L == 1 else weights[:, -1].sum() / L
    staged = cache.stage(origin, float(mass))
    return StepOutput(distribution=dist, staged=staged,
                      attention_weights=weights)


def accumulate_mass(cache: CacheState, output: StepOutput) -> None:
    """Add this step's attention mass (mean over layers) onto the live
    rows' score mass, in one vector add."""
    if cache.n:
        weights = output.attention_weights
        mass = cache.score_mass
        if len(weights) == 1:
            mass += weights[0, :-1]
        else:
            # The layer mean as ndarray.mean computes it, bit for bit.
            mass += weights[:, :-1].sum(axis=0) / len(weights)


class NoCompressionPolicy:
    """Full-KV pipeline: never compresses.

    A policy compresses the cache at two points of a decode: once after
    prefill (``after_prefill``) and after each decode token's row is
    appended (``after_append``).  It never appends rows itself."""

    budget: int | None = None

    def after_prefill(self, cache: CacheState) -> None:
        pass

    def after_append(self, cache: CacheState) -> None:
        pass


def run_prefill(params: ModelParams, cache: CacheState, prompt) -> np.ndarray:
    """Feed the prompt, accumulate attention mass, and return the
    next-token distribution in hand."""
    dist = None
    for tok in prompt:
        out = forward_step(params, cache, tok, origin=PREFIX)
        accumulate_mass(cache, out)
        append(cache, out.staged)
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
    for t, tok in enumerate(prompt):
        if not (hasattr(tok, "__index__") and 0 <= tok < params.vocab_size):
            raise ValueError(f"prompt token {tok} at step {t} out of vocab")
    prompt = list(map(operator.index, prompt))
    cache = CacheState(budget=max(1, len(prompt)))
    dist = run_prefill(params, cache, prompt)
    if dist is None:
        raise ValueError("prompt must be nonempty")
    return PrefillSnapshot(tuple(prompt), cache, dist)


@dataclass
class DecodeRun:
    """A decode's prefill snapshot, its fed tokens, the ``(T, V)``
    distributions in hand before each token was fed, the live cache size at
    each step and the terminal cache.  ``fork`` is ``(t, cache)`` for a
    forced run whose argmax first differs from the forced token at step
    ``t``, ``cache`` being its state just before that token was fed; it is
    None for a run that never mismatched (or was not forced).  ``kept`` is
    a reference run's forks for later cells (:func:`generate_reference`)."""

    snapshot: PrefillSnapshot
    tokens: list[int]
    distributions: np.ndarray      # (T, V)
    cache_sizes: np.ndarray        # (T,)
    cache: CacheState
    fork: tuple[int, CacheState] | None
    kept: dict[int, CacheState] = field(default_factory=dict)

    @property
    def oracle_scores(self) -> dict[int, float]:
        """Accumulated attention mass per position of the terminal cache;
        a full-KV run's are the oracle score source."""
        cache = self.cache
        return dict(zip(cache.position.tolist(), cache.score_mass.tolist()))


def _run_steps(params: ModelParams, policy, cache: CacheState,
               dist: np.ndarray, tokens: list[int], steps: int, forced=None,
               keep=None):
    """Feed tokens into ``cache`` from step ``len(tokens)`` to step
    ``steps``, ``dist`` being the distribution in hand.  Each step ``t``
    forks the cache under budget ``keep[t]`` if ``keep`` has ``t``, records
    the distribution and the live cache size, then feeds ``forced[t]`` or
    else the greedy argmax (ties go to the lowest id), appends its row and
    lets the policy compress.  Returns the ``(steps, V)`` distributions and
    ``(steps,)`` sizes (rows before ``len(tokens)`` are left unset), the
    ``DecodeRun.fork`` of a forced run and the ``DecodeRun.kept`` forks."""
    dists = np.empty((steps, params.vocab_size))
    sizes = np.empty(steps, dtype=np.int64)
    fork = None
    keep = keep or {}
    kept = {}
    for t in range(len(tokens), steps):
        if t in keep:
            kept[t] = cache.fork(keep[t])
        dists[t] = dist
        sizes[t] = cache.n
        tok = int(dist.argmax())
        if forced is not None:
            if fork is None and tok != forced[t]:
                fork = (t, cache.fork())
            tok = forced[t]
        tokens.append(tok)
        out = forward_step(params, cache, tok, origin=DECODE)
        accumulate_mass(cache, out)
        append(cache, out.staged)
        policy.after_append(cache)
        dist = out.distribution
    return dists, sizes, fork, kept


def decode(params: ModelParams, snapshot: PrefillSnapshot, steps: int,
           policy, forced=None, trunk: DecodeRun | None = None) -> DecodeRun:
    """Decode ``steps`` tokens after ``snapshot``'s prompt through ``policy``.

    The run starts from a fork of ``snapshot``, on which the policy's
    ``after_prefill`` runs first.  It feeds ``forced`` (teacher forcing) or
    else the greedy argmax; a forced run keeps the fork its greedy run
    continues from (:func:`greedy_branch`).  ``forced`` needs a token for
    each step, each an integer in the vocabulary; those and ``steps`` are
    checked before the first step runs.  Tokens past ``steps`` are unread.

    ``trunk`` is the :func:`generate_reference` run of ``snapshot`` over
    ``steps`` tokens; ``forced``, if given, is its tokens.  If
    ``after_prefill`` removed no row, the run repeats the trunk's steps
    (a policy changes nothing within budget) up to step
    ``t = min(budget - len(prompt) + 1, steps)``.  Given the trunk's cache
    there, the run takes the trunk's steps before ``t`` and continues on a
    fork of that cache with its own ``prefix_budget_exhausted`` flag,
    calling ``after_append`` once for step ``t - 1``.
    """
    at_least("steps", steps, 0)
    if forced is not None and len(forced) < steps:
        raise ValueError(f"forced has {len(forced)} tokens for {steps} steps")
    for t, tok in enumerate(() if forced is None else forced[:steps]):
        if not (hasattr(tok, "__index__") and 0 <= tok < params.vocab_size):
            raise ValueError(f"forced token {tok} at step {t} out of vocab")
    if forced is not None:
        forced = list(map(operator.index, forced[:steps]))
    budget = policy.budget
    if budget is None:
        budget = len(snapshot.prompt) + steps + 1
    if trunk is not None and (trunk.snapshot is not snapshot or len(
            trunk.tokens) != steps or forced not in (None, trunk.tokens)):
        raise ValueError("trunk must be the reference run of this snapshot "
                         f"over {steps} steps, forced or not")
    cache = snapshot.cache.fork(budget)
    policy.after_prefill(cache)
    tokens: list[int] = []
    dist = snapshot.distribution
    t = min(budget - len(snapshot.prompt) + 1, steps)
    shared = None
    if trunk is not None and cache.n == len(snapshot.prompt) and t > 0:
        shared = trunk.cache if t == steps else trunk.kept.get(t)
    if shared is not None:
        flag = cache.prefix_budget_exhausted
        cache = shared.fork(budget)
        cache.prefix_budget_exhausted = flag
        policy.after_append(cache)
        tokens = trunk.tokens[:t]
        dist = trunk.distributions[t] if t < steps else dist
    dists, sizes, fork, _ = _run_steps(params, policy, cache, dist, tokens,
                                       steps, forced)
    if shared is not None:
        dists[:t], sizes[:t] = trunk.distributions[:t], trunk.cache_sizes[:t]
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
                       length: int, budgets=()) -> DecodeRun:
    """Greedy argmax continuation under full KV; ties go to the lowest id.

    Its snapshot is the prefill that the sweep's cells fork.  For each of
    ``budgets`` first exceeded by a step before the last, it keeps the cache
    at the top of the next step ``t``, forked under that budget, as
    ``kept[t]`` (:func:`decode`'s ``trunk``).  Its terminal cache and kept
    forks are never written after this call.
    """
    at_least("length", length, 1)
    snapshot = prefill(params, prompt)
    n = len(snapshot.prompt)
    keep = {b - n + 1: b for b in budgets if 0 < b - n + 1 < length}
    cache = snapshot.cache.fork(n + length + 1)
    tokens: list[int] = []
    dists, sizes, _, kept = _run_steps(params, NoCompressionPolicy(), cache,
                                       snapshot.distribution, tokens, length,
                                       keep=keep)
    return DecodeRun(snapshot, tokens, dists, sizes, cache, None, kept)


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
    at_least("vocab_size", vocab_size, 2)
    at_least("prefix_len", prefix_len, 0)
    at_least("decode_len", decode_len, 1)
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
