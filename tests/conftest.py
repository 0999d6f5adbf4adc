import numpy as np
import pytest

from cask.cache import DECODE, CacheState, KVEntry, append, check_invariants
from cask.model import init_model


@pytest.fixture
def params():
    return init_model(seed=0, vocab_size=32, model_dim=16, num_layers=1)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_entry(position, key, value=None, origin=DECODE, score_mass=1.0,
               protected=False, group_mass=1.0):
    key = np.asarray(key, dtype=np.float64)
    if value is None:
        value = key.copy()
    return KVEntry(key=key, value=np.asarray(value, dtype=np.float64),
                   position=position, origin=origin, score_mass=score_mass,
                   group_mass=group_mass, protected=protected)


def bad_integers(minimum):
    """Values an integer setting of at least ``minimum`` must refuse."""
    return (float("nan"), 1.5, minimum - 1, True)


def keep_order(cache, rows):
    """``rows`` in keep priority: score mass descending, then recency
    (higher position).  Positions are unique, so the order is total.  The
    reference for every score-mass removal (``cask.policies.lowest``): the
    rows a removal takes are the tail of this order."""
    return rows[np.lexsort((-cache.position[rows], -cache.score_mass[rows]))]


def cache_bytes(cache):
    """Everything a policy could change in ``cache``, as comparable values;
    the core flags are read through ``protected``, which writes any owed
    core marking first."""
    n = cache.n
    columns = {name: col[:n].tobytes() for name, col in cache._columns.items()}
    return ({**columns, "protected": cache.protected.tobytes()},
            cache._kv[:, :, :n].tobytes(), dict(cache.members), cache.budget,
            cache.total_appended, cache.evicted_tokens,
            cache.prefix_budget_exhausted, cache.core_overflow,
            list(cache.compression_events))


def fill_cache(keys, budget=10_000, origin=DECODE, score_masses=None):
    """Cache with one entry per key, positions 0..n-1."""
    cache = CacheState(budget=budget)
    for i, key in enumerate(keys):
        mass = 1.0 if score_masses is None else score_masses[i]
        append(cache, make_entry(i, key, origin=origin, score_mass=mass))
    return cache


class CheckedPolicy:
    """A policy that checks the cache invariants after each of its steps."""

    def __init__(self, policy):
        self.policy = policy
        self.budget = policy.budget
        self.checks = 0
        self.max_members = 1

    def after_prefill(self, cache):
        self.policy.after_prefill(cache)
        check_invariants(cache)

    def after_append(self, cache):
        self.policy.after_append(cache)
        check_invariants(cache)
        self.checks += 1
        self.max_members = max(self.max_members,
                               *(e.member_count for e in cache.entries))
