import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cask.cache import (
    DECODE,
    PREFIX,
    CacheState,
    KVEntry,
    append,
    covered_positions,
    drop,
    evict,
    ltr_sum,
    merge_replace,
)
from cask import policies
from cask.kernels import (
    band_decompose,
    band_frequencies,
    d_kappa,
    d_kappa_batch,
    kappa_magnitudes,
    truncated_geometric,
)
from cask.model import (
    accumulate_mass,
    forward_step,
    generate_reference,
    init_model,
    make_witness,
    prefill,
)
from cask.policies import (
    CaskConfig,
    CompressOutcome,
    MergeGroup,
    _kappa_magnitudes,
    _weighted_centroid,
    cask_compress,
    detect_core,
    evict_baseline,
    fold_group,
    form_merge_groups,
    linear_quantile,
    lowest,
    mass_diagnostics,
    perturbation_check,
)
from cask.twostage import StageConfig, stage1_prefix_evict
from conftest import (
    bad_integers,
    cache_bytes,
    fill_cache,
    keep_order,
    make_entry,
)
from reference import policies as reference_policies

PI = truncated_geometric(4)


def decode_cache(keys, score_masses=None, budget=10_000):
    return fill_cache(keys, budget=budget, origin=DECODE,
                      score_masses=score_masses)


# --- detect_core -----------------------------------------------------------

def test_detect_core_window_covers_all_decode():
    cache = decode_cache([[float(i), 0.0] for i in range(6)])
    cfg = CaskConfig(sink_count=0, recency_window=10, anchor_quantile=1.0)
    core = detect_core(cache, cfg)
    assert core == set(range(6))
    assert all(e.protected for e in cache.entries)


def test_detect_core_degenerate_config_is_empty():
    cache = decode_cache([[float(i), 0.0] for i in range(6)])
    cfg = CaskConfig(sink_count=0, recency_window=0, anchor_quantile=1.0)
    assert detect_core(cache, cfg) == set()


def test_detect_core_ignores_prefix_entries():
    cache = fill_cache([[1.0, 0.0]] * 4, origin=PREFIX)
    cfg = CaskConfig(sink_count=2, recency_window=2, anchor_quantile=0.5)
    assert detect_core(cache, cfg) == set()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 -0.5])
def test_detect_core_rejects_bad_score_mass(bad):
    # One NaN used to make the anchor threshold NaN, so the core silently
    # shrank to sinks + recency.
    masses = [1.0 + i for i in range(30)]
    masses[17] = bad
    cache = decode_cache([[float(i), 0.0] for i in range(30)],
                         score_masses=masses)
    cache.protected[0] = True
    with pytest.raises(ValueError, match="position 17 has score_mass"):
        detect_core(cache, CaskConfig())
    assert [e.protected for e in cache.entries] == [True] + [False] * 29


def test_detect_core_matches_brute_force(rng):
    cache = CacheState(budget=64)
    origins = [PREFIX] * 6 + [DECODE] * 14
    for i, origin in enumerate(origins):
        append(cache, make_entry(i, rng.standard_normal(4), origin=origin,
                                 score_mass=float(rng.uniform(0, 3))))
    cfg = CaskConfig(sink_count=2, recency_window=3, anchor_quantile=0.75)
    core = detect_core(cache, cfg)

    decode = [e for e in cache.entries if e.origin == DECODE]
    expected = {e.position for e in decode[:2]}
    expected |= {e.position for e in decode[-3:]}
    threshold = np.quantile([e.score_mass for e in decode], 0.75)
    expected |= {e.position for e in decode if e.score_mass > threshold}
    assert core == expected


@pytest.mark.parametrize("build, message", [
    (lambda: CaskConfig(anchor_quantile=1.5),
     "anchor_quantile must be in [0, 1], got 1.5"),
    (lambda: CaskConfig(merge_epsilon=-0.1),
     "merge_epsilon must be >= 0, got -0.1"),
    (lambda: StageConfig(budget=8, prefix_fraction=float("nan")),
     "prefix_fraction must be in (0, 1], got nan"),
    (lambda: make_witness("short-prompt-reasoning", 0, 8, 4, 2.0),
     "redundancy must be in [0, 1], got 2.0"),
], ids=["anchor_quantile", "merge_epsilon", "prefix_fraction", "redundancy"])
def test_range_refusals_name_the_value(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_detect_core_empty_cache_raises():
    with pytest.raises(ValueError):
        detect_core(CacheState(budget=4), CaskConfig())


# The integer fields and their minimums.
CASK_INTEGERS = {"sink_count": 0, "recency_window": 0, "temporal_window": 1,
                 "max_group_size": 2, "horizon": 0}


@pytest.mark.parametrize("field, value", [
    ("merge_epsilon", float("nan")), ("merge_epsilon", -0.1),
    ("anchor_quantile", float("nan")),
] + [(field, value) for field, minimum in CASK_INTEGERS.items()
     for value in bad_integers(minimum)])
def test_cask_config_rejects_bad_values(field, value):
    # A NaN merge_epsilon used to be accepted: every `distance <= nan` is
    # False, so consolidation silently became pure eviction.  A NaN or
    # fractional integer field used to fail mid-replay, if at all.
    message = (f"{field} must be >= {CASK_INTEGERS[field]}"
               if field in CASK_INTEGERS else field)
    with pytest.raises(ValueError, match=message):
        CaskConfig(**{field: value})


# --- form_merge_groups -------------------------------------------------------

def scratch_config(**kw):
    defaults = dict(sink_count=0, recency_window=0, anchor_quantile=1.0,
                    merge_epsilon=0.0, temporal_window=512, max_group_size=64)
    defaults.update(kw)
    return CaskConfig(**defaults)


def test_no_groups_with_zero_epsilon_on_distinct_keys(rng):
    keys = [rng.standard_normal(8) for _ in range(6)]
    cache = decode_cache(keys)
    detect_core(cache, scratch_config())
    assert form_merge_groups(cache, scratch_config()) == []


def test_everything_merges_with_huge_epsilon(rng):
    keys = [rng.standard_normal(8) for _ in range(7)]
    cache = decode_cache(keys)
    cfg = scratch_config(merge_epsilon=1e9)
    detect_core(cache, cfg)
    groups = form_merge_groups(cache, cfg)
    assert len(groups) == 1
    assert groups[0].positions == tuple(range(7))


def test_duplicates_group_and_unique_tokens_stay(rng):
    # brute-force oracle: with a near-zero epsilon, groups are the sets of
    # exactly-equal keys (connected components of the zero-distance graph);
    # epsilon must be positive because the running centroid of identical
    # keys drifts by an ulp once three or more members accumulate
    base = [rng.standard_normal(8) for _ in range(4)]
    layout = [0, 1, 0, 2, 0, 1, 3, 2]  # which base key each entry copies
    cache = decode_cache([base[i] for i in layout])
    cfg = scratch_config(merge_epsilon=1e-9)
    detect_core(cache, cfg)
    groups = form_merge_groups(cache, cfg)
    expected = {}
    for pos, i in enumerate(layout):
        expected.setdefault(i, []).append(pos)
    expected_groups = sorted(tuple(v) for v in expected.values() if len(v) > 1)
    assert sorted(g.positions for g in groups) == expected_groups


def test_groups_respect_temporal_window(rng):
    key = rng.standard_normal(8)
    cache = CacheState(budget=64)
    for pos in (0, 2, 40):
        append(cache, make_entry(pos, key, origin=DECODE))
    cfg = scratch_config(temporal_window=5)
    detect_core(cache, cfg)
    groups = form_merge_groups(cache, cfg)
    assert [g.positions for g in groups] == [(0, 2)]


def test_groups_respect_max_group_size(rng):
    key = rng.standard_normal(8)
    cache = decode_cache([key] * 6)
    cfg = scratch_config(max_group_size=3)
    detect_core(cache, cfg)
    groups = form_merge_groups(cache, cfg)
    assert [len(g) for g in groups] == [3, 3]


def test_groups_are_disjoint(rng):
    keys = [rng.standard_normal(8) * 0.1 for _ in range(10)]
    cache = decode_cache(keys)
    cfg = scratch_config(merge_epsilon=2.0, max_group_size=4)
    detect_core(cache, cfg)
    groups = form_merge_groups(cache, cfg)
    seen = [p for g in groups for p in g.positions]
    assert len(seen) == len(set(seen))


# --- batched grouping and core detection vs. their scalar versions -------------
# The references are detect_core and form_merge_groups as they were before the
# anchor threshold left np.quantile and merge distances were batched, over a
# list of the cache's entries.

def reference_detect_core(entries, config):
    """The core's positions, and the entries with their protected flags
    recomputed: set on the core, cleared everywhere else."""
    decode = [e for e in entries if e.origin == DECODE]
    masses = np.array([e.score_mass for e in decode])
    core = set()
    if decode:
        core = {e.position for e in decode[:config.sink_count]}
        if config.recency_window > 0:
            core.update(e.position for e in decode[-config.recency_window:])
        threshold = float(np.quantile(masses, config.anchor_quantile))
        core.update(e.position for e in decode if e.score_mass > threshold)
    return core, [dataclasses.replace(e, protected=e.position in core)
                  for e in entries]


def reference_form_merge_groups(entries, config):
    def centroid_of(keys, weights):
        total = ltr_sum(weights)
        if total == 0.0:
            return np.mean(keys, axis=0)
        acc = weights[0] * keys[0]
        for w, k in zip(weights[1:], keys[1:]):
            acc = acc + w * k
        return acc / total

    def spectrum(v):
        # The band pairing written out, independent of kernels.band_view.
        return v[0::2] + 1j * v[1::2]

    def scalar_d_kappa(a, b):
        mags = kappa_magnitudes(config.pi, band_frequencies(2 * a.size))
        return float(np.sum(mags * np.abs(a - b)))

    candidates = [e for e in entries
                  if e.origin == DECODE and not e.protected]
    spectra = {e.position: spectrum(e.geometry_key()) for e in candidates}
    assigned, groups = set(), []
    for i, seed in enumerate(candidates):
        if seed.position in assigned:
            continue
        members, keys, weights = [seed], [seed.geometry_key()], [seed.score_mass]
        for cand in candidates[i + 1:]:
            if cand.position in assigned:
                continue
            if cand.position - seed.position > config.temporal_window:
                break
            if len(members) >= config.max_group_size:
                break
            centroid = spectrum(centroid_of(keys, weights))
            if scalar_d_kappa(spectra[cand.position], centroid) \
                    <= config.merge_epsilon:
                members.append(cand)
                keys.append(cand.geometry_key())
                weights.append(cand.score_mass)
        if len(members) >= 2:
            assigned.update(m.position for m in members)
            groups.append(MergeGroup(
                positions=tuple(m.position for m in members),
                weights=tuple(weights), mass=ltr_sum(weights),
                keys=tuple(keys)))
    return groups


def random_merged_cache(rng, num_layers, n, width=8):
    """Prefix then decode entries; some decode entries are fold
    representatives that also cover the position after them.  Keys repeat a
    small pool, so exact duplicates and ties in score mass (zeros of both
    signs among them) are common."""
    pool = rng.standard_normal((4, num_layers, width))
    masses = (0.0, -0.0, 0.5, 1.0, 1.0, 2.0)
    cache = CacheState(budget=10_000)
    n_prefix = int(rng.integers(0, 4))
    position = 0
    for i in range(n):
        merged = i >= n_prefix and rng.random() < 0.3
        if rng.random() < 0.5:
            key = pool[rng.integers(4)]
        else:
            key = rng.standard_normal((num_layers, width))
        mass = float(rng.choice(masses)) if rng.random() < 0.5 \
            else float(rng.uniform(0, 3))
        members = (position, position + 1) if merged else (position,)
        append(cache, KVEntry(
            key=key, value=rng.standard_normal((num_layers, width)),
            position=position, origin=PREFIX if i < n_prefix else DECODE,
            score_mass=mass,
            group_mass=float(rng.uniform(1, 3)) if merged else 1.0,
            members=members))
        position += len(members)
    return cache


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() \
        == np.asarray(b, dtype=np.float64).tobytes()


@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       num_layers=st.sampled_from([1, 3, 4]),
       n=st.integers(min_value=1, max_value=48),
       width=st.sampled_from([4, 8, 64]),
       sink_count=st.integers(min_value=0, max_value=3),
       recency_window=st.integers(min_value=0, max_value=4),
       anchor_quantile=st.sampled_from([0.0, 0.5, 0.9, 1.0]),
       merge_epsilon=st.sampled_from([0.0, 1.0, 1e9]),
       temporal_window=st.sampled_from([1, 4, 512]),
       max_group_size=st.sampled_from([2, 3, 16]))
@settings(max_examples=150, deadline=None)
def test_core_and_groups_match_scalar_reference(
        seed, num_layers, n, width, sink_count, recency_window,
        anchor_quantile, merge_epsilon, temporal_window, max_group_size):
    cache = random_merged_cache(np.random.default_rng(seed), num_layers, n,
                                width)
    cfg = CaskConfig(sink_count=sink_count, recency_window=recency_window,
                     anchor_quantile=anchor_quantile,
                     merge_epsilon=merge_epsilon,
                     temporal_window=temporal_window,
                     max_group_size=max_group_size)
    core, twin = reference_detect_core(cache.entries, cfg)
    assert detect_core(cache, cfg) == core
    assert cache.protected.tolist() == [e.protected for e in twin]
    groups = form_merge_groups(cache, cfg)
    expected = reference_form_merge_groups(twin, cfg)
    assert [g.positions for g in groups] == [g.positions for g in expected]
    for g, ref in zip(groups, expected):
        assert same_bits(g.weights, ref.weights)
        assert same_bits(g.mass, ref.mass)
        assert g.keys == ()


@pytest.mark.parametrize("n, num_layers, width",
                         [(12, 1, 8), (40, 3, 4), (48, 4, 64), (100, 4, 16)])
def test_distance_table_entries_equal_scalar_d_kappa(monkeypatch, n,
                                                     num_layers, width):
    # form_merge_groups' seed-to-candidate table: every entry is d_kappa of
    # that candidate's spectrum and the seed's own centroid,
    # _weighted_centroid([k], [w]), bit for bit.  The table is the only
    # distance call with a 2-D result; its blocks cover every seed once,
    # and 100 candidates take more than one block.
    cache = random_merged_cache(np.random.default_rng(n), num_layers, n,
                                width)
    cfg = scratch_config(merge_epsilon=1.0, max_group_size=3)
    tables = []

    def recording(coefficients, reference, magnitudes):
        out = d_kappa_batch(coefficients, reference, magnitudes)
        if out.ndim == 2:
            tables.append((coefficients, reference, out))
        return out

    monkeypatch.setattr(policies, "d_kappa_batch", recording)
    groups = form_merge_groups(cache, cfg)
    monkeypatch.undo()
    decode = [e for e in cache.entries if e.origin == DECODE]
    spectra = [band_decompose(e.geometry_key()) for e in decode]
    seeds = [band_decompose(_weighted_centroid([e.geometry_key()],
                                               [e.score_mass]))
             for e in decode]
    assert [g.positions for g in groups] \
        == [g.positions for g in reference_form_merge_groups(decode, cfg)]
    start = 0
    for coefficients, reference, out in tables:
        stop = start + len(reference)
        assert same_bits(reference[:, 0].view(np.float64),
                         np.array(seeds[start:stop]).view(np.float64))
        assert same_bits(coefficients[0].view(np.float64),
                         np.array(spectra[start + 1:]).view(np.float64))
        want = [[d_kappa(a, seed, cfg.pi) for a in spectra[start + 1:]]
                for seed in seeds[start:stop]]
        assert same_bits(out, want)
        start = stop
    assert start == len(decode)
    if len(decode) > 64:
        assert len(tables) > 1
        assert max(out.size for *_, out in tables) < len(decode) ** 2 // 2


def measured_centroids(monkeypatch, keys, masses, epsilon):
    """form_merge_groups over one decode row per key, and each centroid it
    measures a pool against, with the member count it stands for; every
    key must join one group, so a call over the last r candidates measures
    the centroid of the first n - r."""
    n = len(keys)
    cache = CacheState(budget=10_000)
    for i in range(n):
        append(cache, make_entry(i, keys[i], score_mass=float(masses[i])))
    measured = []

    def recording(coefficients, reference, magnitudes):
        if reference.ndim == 1:
            measured.append((n - len(coefficients),
                             reference.view(np.float64).copy()))
        return d_kappa_batch(coefficients, reference, magnitudes)

    monkeypatch.setattr(policies, "d_kappa_batch", recording)
    cfg = scratch_config(merge_epsilon=epsilon, max_group_size=17)
    groups = form_merge_groups(cache, cfg)
    monkeypatch.undo()
    assert [g.positions for g in groups] == [tuple(range(n))]
    stacked = [e.geometry_key() for e in cache.entries]
    for m, centroid in measured:
        assert same_bits(centroid,
                         _weighted_centroid(stacked[:m], masses[:m].tolist()))
    # The group's mass is the running weight sum; folding reads no keys
    # from the group.
    for g in groups:
        assert g.weights == tuple(masses[list(g.positions)].tolist())
        assert g.mass == ltr_sum(g.weights)
        assert g.keys == ()
    return [m for m, _ in measured]


def random_masses(rng, n):
    """Masses over six orders of magnitude, with zeros common."""
    masses = rng.random(n) * 10.0 ** rng.integers(-3, 4, n)
    masses[rng.random(n) < 0.3] = 0.0
    return masses


@pytest.mark.parametrize("seed", range(12))
def test_running_centroid_equals_weighted_centroid(monkeypatch, seed):
    # form_merge_groups builds the centroid of the members so far only when
    # it measures a pool against one.  Every centroid it measures against
    # must be _weighted_centroid of the members so far, bit for bit, for
    # groups of 2 to 16 members; zero-mass members are common.  With
    # merge_epsilon infinite every admission is certified unless the last
    # measured centroid weighs 0; seed 0's group is all zero, which takes
    # the mean branch and certifies nothing, so it measures once per
    # admission.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 18))
    masses = random_masses(rng, n)
    if seed == 0:
        masses[:] = 0.0
    keys = rng.standard_normal((n, 2, 8))
    measured = measured_centroids(monkeypatch, keys, masses, np.inf)
    assert measured == sorted(set(measured))
    if seed == 0:
        assert measured == list(range(2, n))


@pytest.mark.parametrize("seed", range(6))
def test_infinite_epsilon_with_positive_masses_measures_no_centroid(
        monkeypatch, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 18))
    masses = rng.random(n) * 10.0 ** rng.integers(-3, 4, n) + 1e-3
    keys = rng.standard_normal((n, 2, 8))
    assert measured_centroids(monkeypatch, keys, masses, np.inf) == []


def key_at(rng, centroid, distance):
    """A key of width 8 at merge distance ``distance`` from ``centroid``,
    in a random direction."""
    step = rng.standard_normal(8)
    length = d_kappa_batch(band_decompose(step), np.zeros(4, dtype=complex),
                           _kappa_magnitudes(scratch_config(), 8))
    return centroid + distance / length * step


def straddling_keys(rng, masses, distance):
    """One geometry key per mass, each after the first at ``distance`` from
    the weighted centroid of those before it; both layers of a key are that
    geometry key, so the layer mean reproduces it exactly."""
    keys = [rng.standard_normal(8)]
    for m in range(1, len(masses)):
        keys.append(key_at(rng, _weighted_centroid(keys, masses[:m].tolist()),
                           distance))
    return np.stack([keys, keys], axis=1)


@pytest.mark.parametrize("seed", range(6))
def test_members_at_the_margin_measure_every_centroid(monkeypatch, seed):
    # Each member sits just inside merge_epsilon of the centroid of those
    # before it, so no bound can certify its admission from an older
    # centroid: every admission after the first measures.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 18))
    masses = random_masses(rng, n) + 1e-3
    keys = straddling_keys(rng, masses, 1.0 - 1e-13)
    assert measured_centroids(monkeypatch, keys, masses, 1.0) \
        == list(range(2, n))


# Member kinds for the margin cases: a copy of an earlier key, a key just
# inside or just outside merge_epsilon of the running centroid of the first
# group, or a key drawn afresh.
KINDS = ("copy", "inside", "outside", "fresh")


def margin_cache(rng, kinds, zero_masses, epsilon, size, scale=1.0):
    """A decode cache of 1-D keys built by ``kinds``; the running centroid
    is that of the first group as a one-by-one scan forms it, so "inside"
    and "outside" keys sit at ``epsilon * (1 -+ 1e-13)`` from the centroid
    the scan would measure them against.  The keys are then multiplied by
    ``scale``, a power of two, which leaves every ratio of distances
    exact."""
    mags = _kappa_magnitudes(scratch_config(), 8)
    masses = rng.random(len(kinds)) * 10.0 ** rng.integers(-3, 4, len(kinds))
    masses[np.asarray(zero_masses)] = 0.0
    keys = [rng.standard_normal(8)]
    members = [0]
    for m, kind in enumerate(kinds[1:], start=1):
        centroid = _weighted_centroid([keys[i] for i in members],
                                      masses[members].tolist())
        if kind == "copy":
            key = keys[int(rng.integers(m))].copy()
        elif kind == "fresh":
            key = rng.standard_normal(8)
        else:
            side = -1e-13 if kind == "inside" else 1e-13
            key = key_at(rng, centroid, epsilon * (1 + side))
        if len(members) < size and d_kappa_batch(
                band_decompose(key), band_decompose(centroid), mags) \
                <= epsilon:
            members.append(m)
        keys.append(key)
    return decode_cache([k * scale for k in keys],
                        score_masses=masses.tolist())


def test_certified_admission_equals_one_by_one_scan(monkeypatch):
    # Admissions certified by the seminorm bound must be the ones a
    # one-by-one scan makes, group by group and bit for bit, on exact
    # copies (epsilon 0 among them: a running centroid of copies drifts by
    # an ulp), zero masses, and members within 1e-13 of merge_epsilon,
    # where only a measurement can decide.  Some examples must fall back
    # to one.  Keys scaled past _HEAVIEST leave the rounding margin NaN,
    # which certifies nothing: every drifted decision is measured.
    fallbacks = []

    def recording(coefficients, reference, magnitudes):
        if reference.ndim == 1:
            fallbacks[-1] += 1
        return d_kappa_batch(coefficients, reference, magnitudes)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           kinds=st.lists(st.sampled_from(KINDS), min_size=2, max_size=24),
           zeros=st.lists(st.booleans(), min_size=24, max_size=24),
           epsilon=st.sampled_from([0.0, 1e-9, 0.5, 2.0]),
           size=st.sampled_from([3, 16]),
           scale=st.sampled_from([1.0, 2.0 ** 401]))
    @settings(max_examples=200, deadline=None)
    def check(seed, kinds, zeros, epsilon, size, scale):
        cache = margin_cache(np.random.default_rng(seed), kinds,
                             zeros[:len(kinds)], epsilon, size, scale)
        cfg = scratch_config(merge_epsilon=epsilon * scale,
                             max_group_size=size)
        fallbacks.append(0)
        groups = form_merge_groups(cache, cfg)
        expected = reference_form_merge_groups(cache.entries, cfg)
        assert [g.positions for g in groups] \
            == [g.positions for g in expected]
        for g, ref in zip(groups, expected):
            assert same_bits(g.weights, ref.weights)
            assert same_bits(g.mass, ref.mass)
            assert g.keys == ()

    monkeypatch.setattr(policies, "d_kappa_batch", recording)
    check()
    assert sum(f > 0 for f in fallbacks) >= 10


def test_groups_of_copies_take_one_distance_call(monkeypatch, rng):
    # Every admission into a group of exact copies is certified against
    # the seed's row of the distance table, and every other key is passed
    # over by the same bound: one call measures the whole scan.
    base = rng.standard_normal((3, 8))
    layout = [0, 1, 0, 2, 0, 1, 0, 2, 1, 0, 1, 2, 0]
    masses = (rng.random(len(layout)) * 10.0).tolist()
    cache = decode_cache([base[i] for i in layout], score_masses=masses)
    calls = []
    monkeypatch.setattr(
        policies, "d_kappa_batch",
        lambda *args: calls.append(args) or d_kappa_batch(*args))
    groups = form_merge_groups(cache, scratch_config(merge_epsilon=1e-9))
    assert sorted(g.positions for g in groups) == sorted(
        tuple(p for p, i in enumerate(layout) if i == b) for b in range(3))
    assert len(calls) == 1


@pytest.mark.parametrize("d", [4, 8, 16, 64])
def test_memoized_kappa_magnitudes_are_exact_and_read_only(d):
    mags = _kappa_magnitudes(CaskConfig(), d)
    assert mags is _kappa_magnitudes(CaskConfig(), d)
    expected = kappa_magnitudes(CaskConfig().pi, band_frequencies(d))
    assert mags.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        mags[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        mags *= 2.0
    assert mags.tobytes() == expected.tobytes()
    other = _kappa_magnitudes(CaskConfig(horizon=1), d)
    assert other.tobytes() == kappa_magnitudes(
        truncated_geometric(1), band_frequencies(d)).tobytes()


def with_examples(test):
    """Every q in {0, 0.5, 0.9, 1} on one value and on a tie-heavy list."""
    for q in (0.0, 0.5, 0.9, 1.0):
        for values in ([2.5], [4.0, 1.0, 1.0, 4.0, 1.0]):
            test = example(values=values, q=q)(test)
    return test


@given(values=st.lists(st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                                 st.floats(min_value=0.0, max_value=1e6)),
                       min_size=1, max_size=40),
       q=st.one_of(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
                   st.floats(min_value=0.0, max_value=1.0)))
@with_examples
def test_linear_quantile_equals_numpy(values, q):
    # == rather than bits: numpy may return -0.0 where this returns 0.0.
    assert linear_quantile(sorted(values), q) == np.quantile(values, q)


# --- fold_group ---------------------------------------------------------------

def test_fold_identical_members_keeps_key():
    key = np.array([0.3, -1.2, 0.5, 2.0])
    entries = [make_entry(0, key), make_entry(1, key)]
    group = MergeGroup(positions=(0, 1), weights=(1.0, 1.0), mass=2.0,
                       keys=(key, key))
    rep = fold_group(group, entries)
    assert np.array_equal(rep.key, key)
    assert rep.group_mass == 2.0
    assert rep.member_count == 2
    assert rep.members == (0, 1)


def test_fold_two_members_analytic():
    e0 = make_entry(0, [1.0, 0.0])
    e1 = make_entry(1, [0.0, 1.0])
    group = MergeGroup(positions=(0, 1), weights=(1.0, 1.0), mass=2.0)
    rep = fold_group(group, [e0, e1])
    assert np.array_equal(rep.key, np.array([0.5, 0.5]))
    assert rep.group_mass == 2.0
    assert rep.position == 0


def test_fold_matches_independent_weighted_mean(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        keys = rng.standard_normal((n, 8))
        weights = rng.uniform(0.1, 3.0, size=n)
        entries = [make_entry(i, keys[i], value=rng.standard_normal(8))
                   for i in range(n)]
        mass = 0.0
        for w in weights:
            mass += float(w)
        group = MergeGroup(positions=tuple(range(n)), weights=tuple(weights),
                           mass=mass)
        rep = fold_group(group, entries)
        expected_key = np.einsum("i,ij->j", weights, keys) / weights.sum()
        expected_val = np.einsum("i,ij->j", weights,
                                 np.stack([e.value for e in entries])) / weights.sum()
        assert np.allclose(rep.key, expected_key, atol=1e-12)
        assert np.allclose(rep.value, expected_val, atol=1e-12)


def test_fold_rejects_a_singleton_group():
    # form_merge_groups never yields one, and merge_replace refuses it too.
    group = MergeGroup(positions=(3,), weights=(0.7,), mass=0.7)
    with pytest.raises(ValueError, match="singleton group"):
        fold_group(group, [make_entry(3, [1.0, 0.0], score_mass=0.7)])


@pytest.mark.parametrize("weights, mass, message", [
    ((1.0,), 1.0, "positions and weights must align"),
    ((1.5, -0.5), 1.0, "weights must be non-negative"),
    # 0.1 + 0.2 left to right is 0.30000000000000004, not 0.3.
    ((0.1, 0.2), 0.3, "mass must equal the left-to-right weight sum"),
], ids=["unaligned", "negative", "re-summed"])
def test_merge_group_refuses_inconsistent_weights(weights, mass, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MergeGroup(positions=(0, 1), weights=weights, mass=mass)


def test_fold_rejects_a_group_and_entries_that_do_not_align():
    group = MergeGroup(positions=(0, 1, 2), weights=(1.0, 1.0, 1.0),
                       mass=3.0)
    entries = [make_entry(0, [1.0, 0.0]), make_entry(1, [0.0, 1.0])]
    with pytest.raises(ValueError, match="^group and entries must align$"):
        fold_group(group, entries)


def test_fold_rejects_all_zero_weights():
    entries = [make_entry(0, [1.0, 0.0]), make_entry(1, [0.0, 1.0])]
    group = MergeGroup(positions=(0, 1), weights=(0.0, 0.0), mass=0.0)
    with pytest.raises(ValueError, match="all-zero"):
        fold_group(group, entries)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_fold_mass_conservation_exact(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    weights = tuple(float(w) for w in rng.uniform(0.0, 5.0, size=n))
    mass = 0.0
    for w in weights:
        mass += w
    if mass == 0.0:
        return
    entries = [make_entry(i, rng.standard_normal(6)) for i in range(n)]
    group = MergeGroup(positions=tuple(range(n)), weights=weights, mass=mass)
    rep = fold_group(group, entries)
    assert rep.group_mass == mass  # exact, left-to-right summation


def fold_reference(group, entries):
    """The hand-rolled accumulation fold_group used before it took its means
    from _weighted_centroid: w0 * x0, left-to-right adds, one divide by the
    left-to-right weight sum.  Returns key, value, mass and members."""
    mass = 0.0
    for w in group.weights:
        mass += float(w)
    key_acc = group.weights[0] * entries[0].key
    val_acc = group.weights[0] * entries[0].value
    for w, e in zip(group.weights[1:], entries[1:]):
        key_acc = key_acc + w * e.key
        val_acc = val_acc + w * e.value
    members = []
    for e in entries:
        members.extend(e.members)
    return key_acc / mass, val_acc / mass, mass, tuple(sorted(members))


FOLD_WEIGHT = (st.sampled_from([5e-324, 1e-300, 1e-12, 0.25, 1.0])
               | st.floats(0.0, 5.0))


@st.composite
def fold_inputs(draw):
    """A group of 2-6 entries at L in {1, 3}, some already merged (members
    beyond their own position), with tied, tiny or mixed weights."""
    num_layers = draw(st.sampled_from([1, 3]))
    n = draw(st.integers(2, 6))
    rows = hnp.arrays(np.float64, (num_layers, 4),
                      elements=st.floats(-10.0, 10.0))
    weights = draw(st.lists(FOLD_WEIGHT, min_size=n, max_size=n)
                   | FOLD_WEIGHT.map(lambda w: [w] * n))
    entries = []
    for i in range(n):
        count = draw(st.integers(1, 3))
        entries.append(KVEntry(
            key=draw(rows), value=draw(rows), position=10 * i,
            score_mass=weights[i], group_mass=1.0 + count,
            members=tuple(10 * i + j for j in range(count))))
    group = MergeGroup(positions=tuple(e.position for e in entries),
                       weights=tuple(weights), mass=ltr_sum(weights))
    return group, entries


@given(fold_inputs())
@settings(max_examples=150, deadline=None)
def test_fold_matches_hand_rolled_accumulation_bit_for_bit(inputs):
    group, entries = inputs
    assume(group.mass > 0.0)
    key, value, mass, members = fold_reference(group, entries)
    rep = fold_group(group, entries)
    assert rep.key.tobytes() == key.tobytes()
    assert rep.value.tobytes() == value.tobytes()
    assert rep.group_mass == rep.score_mass == mass
    assert rep.members == members
    assert rep.member_count == sum(e.member_count for e in entries)


# --- cask_compress -------------------------------------------------------------

def run_cache(rng, n_prefix=4, n_decode=16, duplicates=True):
    cache = CacheState(budget=10_000)
    pos = 0
    for _ in range(n_prefix):
        append(cache, make_entry(pos, rng.standard_normal(8), origin=PREFIX,
                                 score_mass=float(rng.uniform(0.1, 2.0))))
        pos += 1
    base = rng.standard_normal((4, 8))
    for _ in range(n_decode):
        key = base[int(rng.integers(0, 4))] if duplicates else rng.standard_normal(8)
        append(cache, make_entry(pos, key, origin=DECODE,
                                 score_mass=float(rng.uniform(0.1, 2.0))))
        pos += 1
    return cache


def test_compress_under_budget_is_untouched(rng):
    cache = run_cache(rng)
    before = [e.position for e in cache.entries]
    outcome = cask_compress(cache, CaskConfig(), budget=100)
    assert not outcome.fired
    assert [e.position for e in cache.entries] == before
    assert cache.compression_events == []


def test_compress_fully_redundant_scratch_leaves_core_plus_one(rng):
    key = rng.standard_normal(8)
    cache = decode_cache([key] * 20)
    cfg = CaskConfig(sink_count=2, recency_window=3, anchor_quantile=1.0,
                     merge_epsilon=1e-9, temporal_window=512, max_group_size=64)
    outcome = cask_compress(cache, cfg, budget=10)
    # core = 2 sinks + 3 recency; all 15 scratch entries fold into one
    assert outcome.groups_folded == 1
    assert len(cache.entries) == 6


def test_compress_core_overflow_is_signaled_not_raised(rng):
    cache = decode_cache([rng.standard_normal(8) for _ in range(12)])
    cfg = CaskConfig(sink_count=4, recency_window=6, anchor_quantile=1.0)
    before = len(cache.entries)
    outcome = cask_compress(cache, cfg, budget=3)
    assert not outcome.fired
    assert cache.core_overflow
    assert len(cache.entries) == before


def test_compress_respects_budget_and_core(rng):
    for seed in range(20):
        local = np.random.default_rng(seed)
        cache = run_cache(local, n_prefix=3, n_decode=20)
        cfg = CaskConfig(sink_count=1, recency_window=4, anchor_quantile=0.8,
                         merge_epsilon=0.0, temporal_window=512)
        core = detect_core(cache, cfg)
        budget = 12
        cask_compress(cache, cfg, budget)
        live = {e.position for e in cache.entries}
        assert len(cache.entries) <= budget
        assert core <= live  # protected entries survive individually
        assert core <= covered_positions(cache)


def test_compress_is_idempotent(rng):
    cache = run_cache(rng, n_decode=24)
    cfg = CaskConfig(recency_window=4, merge_epsilon=0.0, temporal_window=512)
    cask_compress(cache, cfg, budget=14)
    snapshot = [(e.position, e.group_mass, e.member_count, e.protected)
                for e in cache.entries]
    events = len(cache.compression_events)
    outcome = cask_compress(cache, cfg, budget=14)
    assert not outcome.fired
    assert snapshot == [(e.position, e.group_mass, e.member_count, e.protected)
                        for e in cache.entries]
    assert len(cache.compression_events) == events


def test_compress_records_single_event(rng):
    cache = run_cache(rng, n_decode=24)
    outcome = cask_compress(cache, CaskConfig(merge_epsilon=0.0), budget=14)
    assert outcome.fired
    assert cache.compression_events == [outcome]


@pytest.mark.parametrize("origin", [PREFIX, DECODE])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_compress_checks_every_mass_once_before_writing(origin, bad):
    # cask_compress checks all rows once and then marks the core without
    # re-checking: a bad mass on a prefix or a decode row is named, the
    # first of two, and the cache (already compressed once) is untouched.
    cfg = CaskConfig(sink_count=1, recency_window=3, merge_epsilon=1e9)
    cache = CacheState(budget=10_000)
    for i in range(24):
        append(cache, make_entry(i, [float(i % 3), 1.0], origin=DECODE,
                                 score_mass=1.0 + i % 5))
    assert cask_compress(cache, cfg, 12).groups_folded
    for i in range(24, 40):
        append(cache, make_entry(
            i, [float(i % 3), 1.0],
            origin=origin if i in (30, 33) else DECODE,
            score_mass=bad if i in (30, 33) else 1.0 + i % 5))
    before = (cache.n, cache.protected.tobytes(), cache.score_mass.tobytes(),
              dict(cache.members), list(cache.compression_events))
    with pytest.raises(ValueError, match=r"^entry at position 30 has "
                                         r"score_mass"):
        cask_compress(cache, cfg, 12)
    assert (cache.n, cache.protected.tobytes(), cache.score_mass.tobytes(),
            dict(cache.members), list(cache.compression_events)) == before


@pytest.mark.parametrize("seed", range(10))
def test_terminal_flags_equal_a_fresh_detect_core(seed):
    # The terminal marking skips detect_core's check; the flags it leaves
    # are the ones a checked detect_core sets on the final state.
    rng = np.random.default_rng(seed)
    cache = run_cache(rng, n_decode=int(rng.integers(16, 40)))
    cfg = CaskConfig(sink_count=int(rng.integers(0, 3)),
                     recency_window=int(rng.integers(0, 6)),
                     anchor_quantile=float(rng.choice([0.5, 0.9, 1.0])),
                     merge_epsilon=0.5)
    budget = len(detect_core(cache, cfg)) + int(rng.integers(1, 4))
    assert cask_compress(cache, cfg, budget).groups_folded and cache.members
    terminal = cache.protected.copy()
    core = detect_core(cache, cfg)
    assert (cache.protected == terminal).all()
    assert set(cache.position[terminal].tolist()) == core


@pytest.mark.parametrize("budget", bad_integers(1))
def test_compress_rejects_a_bad_budget(budget):
    # A NaN budget used to fold 46 members of this 89-row cache and leave
    # it at 47 rows; 0, -1 and 1.5 read as core overflow.
    params = init_model(0, 32, 16, 1)
    witness = make_witness("prompt-heavy-decode-active", 0, 24, 64, 0.7)
    cache = generate_reference(params, list(witness.prompt), 64).cache
    before = cache_bytes(cache)
    with pytest.raises(ValueError, match="^budget must be >= 1"):
        cask_compress(cache, CaskConfig(), budget)
    assert cache_bytes(cache) == before


def _prefilled():
    """The model and a P24 witness's prefilled cache under budget 100."""
    params = init_model(0, 32, 16, 1)
    witness = make_witness("prompt-heavy-decode-active", 0, 24, 64, 0.7)
    return params, prefill(params, witness.prompt).cache.fork(100)


def _decode_steps(params, cache, steps, compress_every=None, read_every=None):
    """Feed tokens ``7 t mod 32`` for ``t`` in ``steps`` through the model
    step, compressing to 30 rows on every ``compress_every``-th step and
    reading the core flags on every ``read_every``-th; returns the reads."""
    reads = []
    for t in steps:
        out = forward_step(params, cache, 7 * t % 32, origin=DECODE)
        accumulate_mass(cache, out)
        append(cache, out.staged)
        if compress_every and t % compress_every == 0:
            cask_compress(cache, CaskConfig(), 30)
        if read_every and t % read_every == 0:
            reads.append(cache.protected.tobytes())
    return reads


# sha256 of the core flags read every third step below, as a consolidation
# that marks its terminal core at once leaves them.
DEFERRED_CORE_DIGEST = (
    "d9085bf5d9cfcd1c88f58c1d2334f3eb09306e579f4d6be026b45d1e90c7df72")


def test_core_flags_read_steps_after_a_consolidation_are_its_own():
    # Steps without a consolidation append decode rows and move every
    # mass; the flags read then are still those of the last consolidation's
    # final state (new rows unprotected), not a marking of the live rows.
    params, cache = _prefilled()
    reads = _decode_steps(params, cache, range(1, 41), 5, 3)
    assert len(cache.compression_events) == 7
    digest = hashlib.sha256(b"".join(reads)).hexdigest()
    assert digest == DEFERRED_CORE_DIGEST


def _due_and_marked():
    """Two equal caches two decode steps after a fired consolidation: the
    first owes that consolidation's terminal core marking, the second had
    it written at once.  The consolidation's first marking, which the first
    cache's column still holds, differs from its terminal one."""
    params, cache = _prefilled()
    _decode_steps(params, cache, range(1, 26), 5)
    marked = cache.fork()
    detect_core(marked, CaskConfig())
    for twin in (cache, marked):
        _decode_steps(params, twin, (26, 27))
    assert cache._core_due is not None
    stale = cache._columns["protected"][:cache.n]
    assert (stale != marked.protected).any()
    return cache, marked


def _merge_two_scratch_rows(cache, rows):
    group = [cache.entries[r] for r in rows]
    weights = tuple(e.score_mass for e in group)
    rep = fold_group(MergeGroup(tuple(e.position for e in group), weights,
                                ltr_sum(weights)), group)
    merge_replace(cache, [e.position for e in group], rep)
    return cache


@pytest.mark.parametrize("act", [
    lambda cache, rows: cache.fork(),
    lambda cache, rows: cache,
    lambda cache, rows: drop(cache, rows[:1]) and cache,
    lambda cache, rows: evict(cache, cache.position[rows[:1]]),
    lambda cache, rows: _merge_two_scratch_rows(cache, rows[:2]),
    lambda cache, rows: append(cache, make_entry(
        cache.total_appended, np.ones(cache.row_shape), protected=True)),
], ids=["fork", "read", "drop", "evict", "merge_replace", "append"])
def test_a_due_core_marking_is_written_before_it_is_read_or_moved(act):
    due, marked = _due_and_marked()
    scratch = (marked.is_decode & ~marked.protected).nonzero()[0]
    assert scratch.size >= 2
    due, marked = act(due, scratch), act(marked, scratch)
    assert due.protected.tobytes() == marked.protected.tobytes()
    assert cache_bytes(due) == cache_bytes(marked)


@pytest.mark.parametrize("read", [
    lambda cache: [e.protected for e in cache.entries],
    lambda cache: [cache.entry_at(p).protected
                   for p in cache.position.tolist()],
], ids=["entries", "entry_at"])
def test_rows_read_back_carry_a_due_core_marking(read):
    due, marked = _due_and_marked()
    assert read(due) == read(marked)
    assert cache_bytes(due) == cache_bytes(marked)


def test_an_evict_only_consolidation_marks_the_core_once(monkeypatch):
    # The terminal core is marked when read; the next consolidation's own
    # marking replaces it unread.
    params, cache = _prefilled()
    _decode_steps(params, cache, range(1, 11), 1)
    calls = []
    counted = policies._protect
    monkeypatch.setattr(policies, "_protect",
                        lambda *args: calls.append(args) or counted(*args))
    _decode_steps(params, cache, [11], 1)
    assert cache.compression_events[-1] == CompressOutcome(evicted=1)
    assert len(cache.compression_events) == 6 and len(calls) == 1
    cache.protected
    assert len(calls) == 2


# --- evict_baseline --------------------------------------------------------------

def test_evict_baseline_under_budget_unchanged(rng):
    cache = decode_cache([rng.standard_normal(4) for _ in range(5)])
    evict_baseline(cache, 8)
    assert len(cache.entries) == 5


def test_evict_baseline_uniform_scores_keeps_most_recent():
    cache = decode_cache([[1.0, 0.0]] * 10, score_masses=[1.0] * 10)
    evict_baseline(cache, 4)
    assert [e.position for e in cache.entries] == [6, 7, 8, 9]


def test_evict_baseline_ignores_protected(rng):
    cache = CacheState(budget=64)
    append(cache, make_entry(0, [1.0, 0.0], score_mass=0.01, protected=True))
    append(cache, make_entry(1, [1.0, 0.0], score_mass=5.0))
    append(cache, make_entry(2, [1.0, 0.0], score_mass=4.0))
    evict_baseline(cache, 2)
    assert [e.position for e in cache.entries] == [1, 2]


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_evict_baseline_matches_sort_truncate_oracle(seed, budget):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    scores = [float(s) for s in rng.uniform(0, 3, size=n)]
    cache = decode_cache([rng.standard_normal(4) for _ in range(n)],
                         score_masses=scores)
    expected = sorted(range(n), key=lambda i: (-scores[i], -i))[:budget]
    evict_baseline(cache, budget)
    assert [e.position for e in cache.entries] == sorted(expected)


@pytest.mark.parametrize("budget", bad_integers(1))
def test_evict_baseline_rejects_a_bad_budget(budget):
    # A NaN budget used to pass: `cache.n > nan` is False, so nothing left.
    cache = fill_cache([[float(i), 0.0] for i in range(5)])
    with pytest.raises(ValueError, match="budget must be >= 1"):
        evict_baseline(cache, budget)
    assert cache.position.tolist() == list(range(5))


@pytest.mark.parametrize("budget", [4, 40])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 -0.5])
def test_evict_baseline_rejects_bad_score_mass(bad, budget):
    # The keep order is undefined once a mass is NaN.
    masses = [1.0 + i for i in range(30)]
    masses[17] = bad
    cache = fill_cache([[float(i), 0.0] for i in range(30)],
                       origin=PREFIX, score_masses=masses)
    with pytest.raises(ValueError, match="position 17 has score_mass"):
        evict_baseline(cache, budget)
    assert cache.position.tolist() == list(range(30))


@pytest.mark.parametrize("rank", [
    lambda cache: cask_compress(cache, CaskConfig(), 20),
    lambda cache: stage1_prefix_evict(cache, StageConfig(budget=8)),
], ids=["cask_compress", "stage1_prefix_evict"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 -0.5, -3.0])
def test_prefix_ranking_rejects_bad_score_mass(bad, rank):
    # Both rank prefix rows for eviction; a bad mass on one raises before
    # anything is folded or evicted.
    cache = CacheState(budget=10_000)
    for i in range(32):
        append(cache, make_entry(
            i, [float(i), 1.0, -float(i), 0.5],
            origin=PREFIX if i < 12 else DECODE,
            score_mass=bad if i == 5 else 1.0 + i % 7))
    masses = cache.score_mass.tobytes()
    with pytest.raises(ValueError, match="position 5 has score_mass"):
        rank(cache)
    assert cache.position.tolist() == list(range(32))
    assert cache.score_mass.tobytes() == masses
    assert not cache.protected.any()
    assert (cache.evicted_tokens, cache.members,
            cache.compression_events) == (0, {}, [])


MASS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) \
    | st.floats(-10.0, 10.0, allow_nan=False)


@given(masses=st.lists(MASS, min_size=1, max_size=40),
       gaps=st.lists(st.integers(1, 3), min_size=40, max_size=40),
       data=st.data())
@settings(max_examples=100)
def test_keep_order_equals_sorted_on_finite_masses(masses, gaps, data):
    # np.lexsort on (-position, -score_mass) against the sort it replaced,
    # with ties and signed zeros (equal under both).
    positions = np.cumsum(gaps[:len(masses)]).tolist()
    cache = CacheState(budget=10_000)
    for p, m in zip(positions, masses):
        append(cache, make_entry(p, [1.0, 0.0], score_mass=m))
    rows = np.array(sorted(data.draw(st.sets(
        st.integers(0, len(masses) - 1)))), dtype=np.intp)
    chosen = [cache.entries[i] for i in rows]
    expected = sorted(chosen, key=lambda e: (-e.score_mass, -e.position))
    assert cache.position[keep_order(cache, rows)].tolist() \
        == [e.position for e in expected]


@given(masses=st.lists(MASS, max_size=40), data=st.data())
@settings(max_examples=200)
def test_lowest_equals_sorted(masses, data):
    # The count lowest by (mass, index): ties and signed zeros (equal) go
    # to the lower index, one row by argmin, none for a count <= 0.
    count = data.draw(st.integers(-1, len(masses)))
    expected = sorted(range(len(masses)),
                      key=lambda i: (masses[i], i))[:max(count, 0)]
    assert lowest(np.array(masses, dtype=np.float64), count).tolist() \
        == expected


TIED_MASS = st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0.0, 3.0)


@given(masses=st.lists(TIED_MASS, min_size=1, max_size=30),
       gaps=st.lists(st.integers(1, 3), min_size=30, max_size=30),
       data=st.data())
@settings(max_examples=100)
def test_evict_baseline_drops_the_tail_of_keep_order(masses, gaps, data):
    # One row over budget goes by argmin, more by a sort; either way the
    # rows that leave are the tail of keep_order, ties and signed zeros too.
    n = len(masses)
    budget = data.draw(st.sampled_from([max(1, n - 1), *range(1, n + 1)]))
    positions = np.cumsum(gaps[:n]).tolist()
    cache = CacheState(budget=10_000)
    for p, m in zip(positions, masses):
        append(cache, make_entry(p, [1.0, 0.0], score_mass=m))
    gone = cache.position[keep_order(cache, np.arange(n))[budget:]].tolist()
    evict_baseline(cache, budget)
    assert cache.position.tolist() == sorted(set(positions) - set(gone))
    assert cache.evicted_tokens == len(gone)


@given(masses=st.lists(TIED_MASS, min_size=1, max_size=30),
       decode=st.lists(st.booleans(), min_size=30, max_size=30),
       data=st.data())
@settings(max_examples=100)
def test_stage1_drops_the_tail_of_keep_order(masses, decode, data):
    # The prefix trim's twin of the baseline test: the prefix rows that
    # leave are the tail of keep_order over the prefix rows, whether one
    # row (argmin) or several (the sort) go; decode rows stay.
    n = len(masses)
    decode = [False, *decode[1:n]]
    cache = CacheState(budget=10_000)
    for i, m in enumerate(masses):
        append(cache, make_entry(i, [1.0, 0.0],
                                 origin=DECODE if decode[i] else PREFIX,
                                 score_mass=m))
    prefix = (~cache.is_decode).nonzero()[0]
    keep = data.draw(st.sampled_from([max(1, prefix.size - 1),
                                      *range(1, prefix.size + 1)]))
    config = StageConfig(budget=keep, prefix_fraction=1.0,
                         min_decode_slack=0, min_prefix_keep=0)
    gone = cache.position[keep_order(cache, prefix)[keep:]].tolist()
    stage1_prefix_evict(cache, config)
    assert cache.position.tolist() == sorted(set(range(n)) - set(gone))
    assert cache.evicted_tokens == len(gone)


@given(masses=st.lists(TIED_MASS, min_size=4, max_size=30),
       decode=st.lists(st.booleans(), min_size=30, max_size=30),
       over=st.integers(1, 3))
@settings(max_examples=100)
def test_cask_compress_evicts_the_tail_of_keep_order(masses, decode, over):
    # No two keys are alike and merge_epsilon is 0, so nothing folds and
    # cask_compress only evicts: the unprotected tail of keep_order, never
    # a protected row.
    n = len(masses)
    config = CaskConfig(sink_count=1, recency_window=2, anchor_quantile=0.75,
                        merge_epsilon=0.0)
    cache = CacheState(budget=10_000)
    for i, m in enumerate(masses):
        append(cache, make_entry(i, [float(i), 1.0, -0.5 * i, 0.25],
                                 origin=DECODE if decode[i] else PREFIX,
                                 score_mass=m))
    expected = cache.fork()
    core = detect_core(expected, config)
    budget = n - over
    assume(budget >= len(core))
    unprotected = (~expected.protected).nonzero()[0]
    keep = budget - (n - unprotected.size)
    gone = expected.position[keep_order(expected, unprotected)[keep:]]
    outcome = cask_compress(cache, config, budget)
    assert (outcome.groups_folded, outcome.evicted) == (0, over)
    assert set(gone.tolist()).isdisjoint(core)
    assert cache.position.tolist() == sorted(set(range(n)) - set(gone.tolist()))


# --- mass diagnostics ----------------------------------------------------------

def reference_cache(scores):
    """A full-KV terminal cache: one entry per position of ``scores``
    carrying its score mass."""
    cache = CacheState(budget=10_000)
    for p in sorted(scores):
        append(cache, make_entry(p, [1.0, 0.0], score_mass=scores[p]))
    return cache


def held_cache(core, covered):
    """A compressed cache holding the positions ``covered`` live, with those
    in ``core`` protected."""
    cache = CacheState(budget=10_000)
    for p in sorted(covered):
        append(cache, make_entry(p, [1.0, 0.0], protected=p in core))
    return cache


def fold_pair(cache, row):
    """Fold the entry at ``row + 1`` (score mass 1) into the one at ``row``."""
    pair = cache.entries[row:row + 2]
    group = MergeGroup(positions=tuple(e.position for e in pair),
                       weights=(1.0, 1.0), mass=2.0,
                       keys=tuple(e.key for e in pair))
    merge_replace(cache, group.positions, fold_group(group, pair))


def test_rho_rep_is_one_when_rep_covers_topk():
    ref = reference_cache({i: float(10 - i) for i in range(6)})
    diag = mass_diagnostics(held_cache(set(), set(range(6))), ref, k=3)
    assert diag.rho_rep == 1.0
    assert diag.rho_core == 0.0


def test_rho_hand_enumerated_eight_entries():
    ref = reference_cache({0: 5.0, 1: 4.0, 2: 3.0, 3: 2.0, 4: 1.0, 5: 0.5,
                           6: 0.25, 7: 0.1})
    diag = mass_diagnostics(held_cache({0, 3}, {0, 1, 3, 5}), ref, k=4)
    # top-4 = {0,1,2,3} with mass 14; core holds 5+2=7; rep holds 5+4+2=11
    assert diag.rho_core == pytest.approx(7 / 14)
    assert diag.rho_rep == pytest.approx(11 / 14)


def test_rho_counts_folded_members_as_covered():
    ref = reference_cache({0: 3.0, 1: 2.0, 2: 1.0})
    # Position 1 is folded into the live entry at 0.
    cache = held_cache(set(), {0, 1})
    fold_pair(cache, 0)
    assert cache.position.tolist() == [0]
    diag = mass_diagnostics(cache, ref, k=3)
    assert diag.rho_rep == pytest.approx(5 / 6)


def test_k_beyond_population_clamps():
    ref = reference_cache({0: 3.0, 1: 2.0, 2: 1.0})
    cache = held_cache({0}, {0, 1})
    assert mass_diagnostics(cache, ref, k=10) \
        == mass_diagnostics(cache, ref, k=3)


def test_a_top_k_without_mass_holds_no_share():
    # The shares would be 0/0; the suite otherwise reaches this case only
    # when hypothesis happens to draw it.
    ref = reference_cache({0: 0.0, 1: 0.0, 2: 0.0})
    diag = mass_diagnostics(held_cache({0}, {0, 1}), ref, k=2)
    assert (diag.rho_core, diag.rho_rep) == (0.0, 0.0)


def test_k_must_be_positive():
    ref = reference_cache({0: 1.0})
    for k in bad_integers(1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            mass_diagnostics(held_cache(set(), set()), ref, k=k)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 -0.5])
def test_mass_diagnostics_rejects_a_bad_oracle_score(bad):
    ref = reference_cache({0: 1.0, 1: bad, 2: 0.5})
    with pytest.raises(ValueError,
                       match=r"entry at position 1 has score_mass "):
        mass_diagnostics(held_cache(set(), {0}), ref, k=2)


def test_mass_diagnostics_names_the_first_bad_score_in_position_order():
    ref = reference_cache({5: 1.0, 3: float("nan"), 1: -1.0, 0: 2.0})
    with pytest.raises(ValueError,
                       match=r"entry at position 1 has score_mass -1.0"):
        mass_diagnostics(held_cache(set(), {0}), ref, k=2)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100)
def test_mass_diagnostics_equals_the_reference(seed):
    # Few distinct scores, zeros among them, so ties are common: position
    # descending breaks them.  k runs past the population, where it clamps.
    # Some covered positions are folded members, not live rows.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    values = rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform(0, 2)], size=n)
    positions = rng.permutation(3 * n)[:n].tolist()
    ref = reference_cache(dict(zip(positions, values.tolist())))
    core = {p for p in positions if rng.random() < 0.3}
    cache = held_cache(core, core | {p for p in positions
                                     if rng.random() < 0.5})
    free = (~cache.protected).nonzero()[0]
    adjacent = free[1:][np.diff(free) == 1]
    if adjacent.size:
        fold_pair(cache, int(adjacent[0]) - 1)
    scores = dict(zip(ref.position.tolist(), ref.score_mass.tolist()))
    theirs_core = set(cache.position[cache.protected].tolist())
    for k in (1, max(n // 2, 1), n + 1, n + 7):
        ours = mass_diagnostics(cache, ref, k)
        theirs = reference_policies.mass_diagnostics(
            theirs_core, covered_positions(cache), scores, k)
        assert (ours.rho_core, ours.rho_rep) == (theirs.rho_core,
                                                 theirs.rho_rep)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60)
def test_rho_core_never_exceeds_rho_rep(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 15))
    ref = reference_cache({i: float(rng.uniform(0, 2)) for i in range(n)})
    core = {i for i in range(n) if rng.random() < 0.3}
    cache = held_cache(core, core | {i for i in range(n)
                                     if rng.random() < 0.5})
    diag = mass_diagnostics(cache, ref, k=int(rng.integers(1, n + 1)))
    assert diag.rho_core <= diag.rho_rep + 1e-12


# --- perturbation check -----------------------------------------------------------

def test_perturbation_identical_members_zero_lhs(rng):
    key = rng.standard_normal(8)
    entries = [make_entry(0, key), make_entry(1, key)]
    group = MergeGroup(positions=(0, 1), weights=(1.0, 1.0), mass=2.0,
                       keys=(key, key))
    rep = fold_group(group, entries)
    report = perturbation_check(group, rep, rng.standard_normal((16, 8)), PI)
    assert np.all(report.pairs[:, 0] == 0.0)
    assert report.fraction_bounded == 1.0


def test_perturbation_bound_holds_on_random_groups(rng):
    hits = []
    for _ in range(200):
        n = int(rng.integers(2, 6))
        keys = [rng.standard_normal(8) for _ in range(n)]
        weights = tuple(float(w) for w in rng.uniform(0.1, 2.0, size=n))
        mass = 0.0
        for w in weights:
            mass += w
        group = MergeGroup(positions=tuple(range(n)), weights=weights,
                           mass=mass, keys=tuple(keys))
        rep = fold_group(group, [make_entry(i, k) for i, k in enumerate(keys)])
        report = perturbation_check(group, rep, rng.standard_normal((5, 8)), PI)
        hits.append(report.fraction_bounded)
    assert np.mean(hits) >= 0.99


def test_perturbation_needs_the_group_keys(rng):
    # form_merge_groups builds no keys; the check measures nothing without.
    key = rng.standard_normal(8)
    group = MergeGroup(positions=(0, 1), weights=(1.0, 1.0), mass=2.0)
    rep = fold_group(group, [make_entry(0, key), make_entry(1, key)])
    with pytest.raises(ValueError, match="^group carries no keys$"):
        perturbation_check(group, rep, rng.standard_normal((4, 8)), PI)


def test_perturbation_empty_queries_rejected(rng):
    key = rng.standard_normal(8)
    group = MergeGroup(positions=(0, 1), weights=(1.0, 1.0), mass=2.0,
                       keys=(key, key))
    rep = fold_group(group, [make_entry(0, key), make_entry(1, key)])
    with pytest.raises(ValueError):
        perturbation_check(group, rep, np.empty((0, 8)), PI)
