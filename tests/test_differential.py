"""Whole sweeps through the package and through the frozen list-based copy
in ``tests/reference`` write the same bytes, on specs the golden digests
miss: L up to 4, budgets below the protected core, tied masses, other vocab
sizes and model widths."""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import numpy as np
from cask import cache as cask_cache
from cask import policies, report
from cask.model import WITNESS_KINDS, decode, generate_reference, init_model
from cask.replay import make_policy
from reference import cache as reference_cache
from reference import policies as reference_policies
from reference import report as reference_report


def sweep_bytes(module, out, kind, seed, prefix_len, decode_len, redundancy,
                budgets, model_seed, num_layers, vocab_size, model_dim,
                methods=("cask", "evict", "none")):
    """The ``rows.jsonl`` and ``manifest.json`` bytes ``module.run_sweep``
    writes into ``out`` for a one-witness spec."""
    spec = module.SweepSpec(
        witnesses=[module.WitnessSpec(kind, seed, prefix_len, decode_len,
                                      redundancy)],
        methods=list(methods), budgets=list(budgets), out_dir=out,
        seed=model_seed, vocab_size=vocab_size, model_dim=model_dim,
        num_layers=num_layers)
    with warnings.catch_warnings():
        # A one-token run has no bigram to embed; both sides warn alike.
        warnings.filterwarnings("ignore", "sem_sim with a zero-vector",
                                UserWarning)
        module.run_sweep(spec)
    return ((Path(out) / "rows.jsonl").read_bytes(),
            (Path(out) / "manifest.json").read_bytes())


@st.composite
def sweep_inputs(draw):
    prefix_len = draw(st.integers(0, 48))
    decode_len = draw(st.integers(1, 48))
    budgets = draw(st.lists(st.integers(1, prefix_len + decode_len),
                            min_size=1, max_size=3, unique=True))
    return dict(
        kind=draw(st.sampled_from(WITNESS_KINDS)),
        seed=draw(st.integers(0, 2**16)),
        prefix_len=prefix_len, decode_len=decode_len,
        redundancy=draw(st.sampled_from([0.0, 0.5, 0.7, 0.9, 1.0])
                        | st.floats(0.0, 1.0)),
        budgets=sorted(budgets),
        model_seed=draw(st.integers(0, 3)),
        num_layers=draw(st.integers(1, 4)),
        vocab_size=draw(st.sampled_from([8, 32])),
        model_dim=draw(st.sampled_from([8, 16])))


# Cells that fold groups of three and more (their means depend on the order
# of the adds) and a budget below the protected core, run every time
# whatever is drawn.
FOLD_HEAVY = dict(kind="prompt-heavy-decode-active", seed=3, prefix_len=16,
                  decode_len=48, redundancy=0.9, budgets=[5, 20, 32],
                  model_seed=0, num_layers=3, vocab_size=32, model_dim=16)


@given(sweep_inputs())
@example(FOLD_HEAVY)
@example(dict(FOLD_HEAVY, prefix_len=8, num_layers=1, budgets=[24, 40]))
@settings(max_examples=25, deadline=None)
def test_sweep_rows_equal_the_list_based_reference(inputs):
    with tempfile.TemporaryDirectory() as out:
        # One out_dir for both: the manifest records it.
        assert sweep_bytes(report, out, **inputs) \
            == sweep_bytes(reference_report, out, **inputs)


@pytest.mark.parametrize("kind", WITNESS_KINDS)
@pytest.mark.parametrize("num_layers", [1, 3])
@pytest.mark.parametrize("slack", [0, 9])
def test_evict_with_room_for_everything_equals_none(kind, num_layers, slack):
    prefix_len, decode_len = 16, 24
    with tempfile.TemporaryDirectory() as out:
        rows, _ = sweep_bytes(report, out, kind, 2, prefix_len, decode_len, 0.7,
                              [prefix_len + 1 + decode_len + slack], 0,
                              num_layers, 32, 16, methods=("evict", "none"))
    evict_rows, none_rows = [], []
    for row in map(json.loads, rows.splitlines()):
        assert row.pop("method") in ("evict", "none")
        (evict_rows if len(evict_rows) < 2 else none_rows).append(row)
    assert [r["kind"] for r in evict_rows] == ["replay", "bridge"]
    assert evict_rows == none_rows


def test_cask_budget_below_the_core_overflows():
    # The default core is 2 sinks + 8 recent decode entries, so a budget
    # below 10 cannot hold it once the decode outgrows the budget.
    params = init_model(0)
    for kind in WITNESS_KINDS:
        for seed in range(3):
            ref = generate_reference(params, list(
                report.WitnessSpec(kind, seed, 16, 16, 0.7)
                .materialize(32).prompt), 16)
            for budget in range(1, 10):
                run = decode(params, ref.snapshot, 16,
                             make_policy("cask", budget), forced=ref.tokens)
                assert run.cache.core_overflow, (kind, seed, budget)


@st.composite
def cache_rows(draw):
    """KVEntry fields for a cache: prefix entries, then decode entries, some
    of them fold representatives; keys repeat a small pool and masses tie."""
    shape = draw(st.sampled_from([(4,), (1, 4), (3, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pool = rng.standard_normal((3, *shape))
    n = draw(st.integers(1, 30))
    n_prefix = draw(st.integers(0, n))
    mass = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)
    rows, position = [], 0
    for i in range(n):
        width = draw(st.sampled_from([1, 1, 2, 3])) if i >= n_prefix else 1
        rows.append(dict(
            key=pool[draw(st.integers(0, 2))], value=rng.standard_normal(shape),
            position=position,
            origin=cask_cache.PREFIX if i < n_prefix else cask_cache.DECODE,
            score_mass=draw(mass), group_mass=float(width),
            members=tuple(range(position, position + width))))
        position += width + draw(st.integers(0, 2))
    return rows


def both_caches(rows):
    caches = []
    for module in (cask_cache, reference_cache):
        cache = module.CacheState(budget=10_000)
        for fields in rows:
            module.append(cache, module.KVEntry(**fields))
        caches.append(cache)
    return caches


CONFIGS = st.builds(
    dict, sink_count=st.integers(0, 3), recency_window=st.integers(0, 5),
    anchor_quantile=st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0, 1),
    merge_epsilon=st.sampled_from([0.0, 0.25, 1e9]))


@given(cache_rows(), CONFIGS, st.integers(1, 30))
@settings(max_examples=80, deadline=None)
def test_core_and_entries_equal_the_list_based_reference(rows, config,
                                                         budget):
    # detect_core flags and returns the same core, and after a compression
    # (folds and evictions) entry_at reads back the same entries, bit for
    # bit; a position no entry holds raises the same CacheError.
    cache, twin = both_caches(rows)
    cfg = policies.CaskConfig(**config)
    reference_cfg = reference_policies.CaskConfig(**config)
    assert policies.detect_core(cache, cfg) \
        == reference_policies.detect_core(twin, reference_cfg)
    assert cache.protected.tolist() == [e.protected for e in twin.entries]
    policies.cask_compress(cache, cfg, budget)
    reference_policies.cask_compress(twin, reference_cfg, budget)
    assert cache.position.tolist() == [e.position for e in twin.entries]
    for e in twin.entries:
        got = cache.entry_at(e.position)
        assert got.key.shape == e.key.shape
        assert got.key.tobytes() == e.key.tobytes()
        assert got.value.tobytes() == e.value.tobytes()
        assert (got.position, got.origin, got.score_mass, got.group_mass,
                got.protected, got.members) \
            == (e.position, e.origin, e.score_mass, e.group_mass,
                e.protected, e.members)
    for missing in (-1, rows[-1]["position"] + 50,
                    *(p + 1 for p in cache.position.tolist()[:3])):
        if missing in cache.position.tolist():
            continue
        with pytest.raises(cask_cache.CacheError) as got:
            cache.entry_at(missing)
        with pytest.raises(reference_cache.CacheError) as expected:
            twin.entry_at(missing)
        assert str(got.value) == str(expected.value)
