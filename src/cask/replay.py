"""Teacher-forced replay harness and the four primary fidelity metrics.

A replay prefils the prompt through the policy pipeline, then walks the
reference continuation token by token: at each step the candidate's
next-token distribution (produced before the reference token enters the
cache) is scored against the reference token, and the token is then forced
into the cache, after which the policy compresses it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cache import CacheState, at_least, terminal_saved_ratio
from .model import (  # noqa: F401  (run_prefill is part of the replay API)
    DecodeRun,
    ModelParams,
    NoCompressionPolicy,
    decode,
    prefill,
    run_prefill,
)
from .policies import CaskConfig, evict_baseline
from .twostage import StageConfig, stage1_prefix_evict, stage2_step

NLL_FLOOR = 1e-12

METHOD_CASK = "cask"
METHOD_EVICT = "evict"
METHOD_NONE = "none"


class EvictionPolicy:
    """Score-mass eviction baseline: trim to budget whenever it overflows."""

    def __init__(self, budget: int):
        at_least("budget", budget, 1)
        self.budget = budget

    def after_prefill(self, cache: CacheState) -> None:
        evict_baseline(cache, self.budget)

    after_append = after_prefill


class CaskPolicy:
    """Two-stage pipeline: stage-1 prefix eviction, stage-2 consolidation."""

    def __init__(self, budget: int, cask_config: CaskConfig | None = None,
                 stage_config: StageConfig | None = None):
        self.budget = budget
        self.cask_config = cask_config or CaskConfig()
        self.stage_config = stage_config or StageConfig(budget=budget)
        if self.stage_config.budget != budget:
            raise ValueError("stage_config.budget must match the policy budget")

    def after_prefill(self, cache: CacheState) -> None:
        stage1_prefix_evict(cache, self.stage_config)

    def after_append(self, cache: CacheState) -> None:
        stage2_step(cache, self.cask_config, self.stage_config)


# Every method by name, in order: its policy factory, called with the
# budget.  A policy whose budget is None never compresses (``decode``).
METHODS = {
    METHOD_CASK: CaskPolicy,
    METHOD_EVICT: EvictionPolicy,
    METHOD_NONE: lambda budget: NoCompressionPolicy(),
}


def make_policy(method: str, budget: int | None = None):
    """``method``'s policy at ``budget``; only ``none`` runs without one,
    and it too refuses a budget that is not an integer of at least 1."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    if budget is not None:
        at_least("budget", budget, 1)
    elif method != METHOD_NONE:
        raise ValueError(f"method {method!r} needs a budget")
    return METHODS[method](budget)


@dataclass
class ReplayRecord:
    """Per-step teacher-forced log plus the terminal cache, if any.  A
    record holds at least one step: an empty one is refused."""

    reference: np.ndarray        # (T,) forced tokens
    argmax: np.ndarray           # (T,) candidate argmax per step
    top5_flags: np.ndarray       # (T,) bool, reference inside candidate top-5
    log_probs: np.ndarray        # (T,) floored log p_t(reference)
    distributions: np.ndarray    # (T, V) candidate distributions
    cache: CacheState | None

    def __post_init__(self):
        if self.T < 1:
            raise ValueError("empty record")

    @property
    def T(self) -> int:
        return int(self.reference.size)

    @classmethod
    def from_distributions(cls, distributions: np.ndarray, reference,
                           cache: CacheState | None = None) -> "ReplayRecord":
        """Build a record from per-step candidate distributions.

        This is the single place the per-step stats (argmax, top-5 flag,
        floored log-probability) are derived from a distribution.  A
        reference token that is not an integer in ``[0, V)`` is refused,
        naming its step, as :func:`decode` refuses a forced one.
        """
        distributions = np.asarray(distributions, dtype=np.float64)
        T, V = distributions.shape
        if np.shape(reference) != (T,):
            raise ValueError("reference must have one token per step")
        for t, tok in enumerate(reference):
            if not (hasattr(tok, "__index__") and 0 <= tok < V):
                raise ValueError(f"reference token {tok} at step {t} out of "
                                 "vocab")
        reference = np.asarray(reference, dtype=np.int64)
        p = distributions[np.arange(T), reference]
        # Rank of the reference token, ties going to lower ids.
        rank = np.sum((distributions > p[:, None])
                      | ((distributions == p[:, None])
                         & (np.arange(V) < reference[:, None])), axis=1)
        return cls(
            reference=reference,
            argmax=np.argmax(distributions, axis=1),
            top5_flags=rank < min(5, V),
            log_probs=np.log(np.maximum(p, NLL_FLOOR)),
            distributions=distributions,
            cache=cache,
        )


@dataclass
class FidelitySummary:
    top1: float
    top5: float
    mean_nll: float
    first_mismatch: int | None
    saved_ratio: float
    T: int
    top1_matches: int
    top5_matches: int

    def __post_init__(self):
        if self.top1 > self.top5:
            raise ValueError("top1 cannot exceed top5")


def teacher_forced_replay(params: ModelParams, prompt, reference,
                          policy) -> ReplayRecord:
    """Prefill ``prompt`` and replay the nonempty reference continuation
    under a compression policy; :func:`decode` checks its tokens.  A run
    from an existing prefill snapshot is
    ``replay_record(decode(..., forced=reference))``."""
    if not len(reference):
        raise ValueError("reference must be nonempty")
    return replay_record(decode(params, prefill(params, prompt),
                                len(reference), policy, forced=reference))


def replay_record(run: DecodeRun) -> ReplayRecord:
    """The teacher-forced record of a decode run, scored against the tokens
    it was fed."""
    return ReplayRecord.from_distributions(run.distributions, run.tokens,
                                           cache=run.cache)


def top1_agreement(record: ReplayRecord) -> float:
    return float(np.mean(record.argmax == record.reference))


def top5_coverage(record: ReplayRecord) -> float:
    return float(np.mean(record.top5_flags))


def mean_nll(record: ReplayRecord) -> float:
    return float(-np.mean(record.log_probs))


def first_mismatch(record: ReplayRecord) -> int | None:
    """1-based index of the earliest argmax divergence; None when all match."""
    misses = np.nonzero(record.argmax != record.reference)[0]
    if misses.size == 0:
        return None
    return int(misses[0]) + 1


def summarize(record: ReplayRecord) -> FidelitySummary:
    if record.cache is None:
        raise ValueError("the record has no terminal cache, so no saved "
                         "ratio")
    return FidelitySummary(
        top1=top1_agreement(record),
        top5=top5_coverage(record),
        mean_nll=mean_nll(record),
        first_mismatch=first_mismatch(record),
        saved_ratio=terminal_saved_ratio(record.cache),
        T=record.T,
        top1_matches=int(np.sum(record.argmax == record.reference)),
        top5_matches=int(np.sum(record.top5_flags)),
    )
