import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from cask.cache import (
    DECODE,
    PREFIX,
    CacheError,
    CacheState,
    KVEntry,
    append,
    at_least,
    check_invariants,
    covered_positions,
    drop,
    evict,
    merge_replace,
    terminal_saved_ratio,
)
from cask.policies import (
    CaskConfig,
    cask_compress,
    evict_baseline,
    fold_group,
    form_merge_groups,
)
from conftest import bad_integers, cache_bytes, fill_cache, make_entry


@pytest.mark.parametrize("budget", bad_integers(1))
def test_cache_budget_is_an_integer_of_at_least_one(budget):
    # A fork under a NaN budget used to be accepted, and a decode on it
    # never evicted.
    with pytest.raises(ValueError, match="budget must be >= 1"):
        CacheState(budget)
    with pytest.raises(ValueError, match="budget must be >= 1"):
        CacheState(budget=10).fork(budget)


def test_at_least_takes_what_operator_index_takes():
    for value in (3, np.int64(3), np.uint8(4)):
        at_least("count", value, 3)
    for value in (2, 3.0, np.float64(4.0), "3", None):
        message = f"^count must be >= 3, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=message):
            at_least("count", value, 3)


def test_append_counts():
    cache = CacheState(budget=8)
    append(cache, make_entry(0, [1.0, 0.0]))
    assert len(cache.entries) == 1
    assert cache.total_appended == 1


def test_append_rejects_non_monotone_position():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CacheError):
        append(cache, make_entry(1, [2.0, 2.0]))


@pytest.mark.parametrize("key, value, message", [
    (np.zeros(4), np.zeros(3), r"key shape \(4,\) and value shape \(3,\)"),
    (np.zeros((2, 4)), np.zeros((1, 4)),
     r"key shape \(2, 4\) and value shape \(1, 4\)"),
    (np.zeros((1, 2, 4)), np.zeros((1, 2, 4)), r"neither \(L, d\) nor"),
])
def test_append_rejects_a_malformed_entry(key, value, message):
    # Such an entry used to be accepted; the next forward_step then failed.
    # Now it cannot be built, so no cache ever sees it.
    with pytest.raises(CacheError, match=message):
        KVEntry(key=key, value=value, position=5)


@pytest.mark.parametrize("group_mass", [float("nan"), float("inf"), 0.0,
                                        -1.0])
def test_entry_rejects_a_group_mass_not_finite_and_positive(group_mass):
    # A folded row of NaN or infinite group mass used to be appended and
    # pass check_invariants; the next forward_step returned an all-NaN
    # distribution.
    with pytest.raises(CacheError, match=r"position 0 has group_mass .*; "
                                         r"expected finite > 0"):
        KVEntry(key=np.zeros(4), value=np.zeros(4), position=0,
                group_mass=group_mass, members=(0, 1))


def test_an_unknown_origin_is_refused():
    # Neither an entry nor a staged row may claim a third origin.
    with pytest.raises(CacheError, match="^unknown origin 'middle'$"):
        KVEntry(key=np.zeros(4), value=np.zeros(4), position=0,
                origin="middle")
    cache = fill_cache([[1.0, 0.0]])
    cache.slot(cache.row_shape)
    with pytest.raises(CacheError, match="^unknown origin 'middle'$"):
        cache.stage("middle", 0.5)


def _staged_row(cache):
    keys, values, _ = cache.slot(cache.row_shape)
    keys[:, -1] = 7.0
    values[:, -1] = 8.0
    return cache.stage(DECODE, 0.5)


@pytest.mark.parametrize("read_back", [
    lambda cache: cache.entries[1],
    lambda cache: cache.entry_at(1),
    lambda cache: _staged_row(cache).entry(),
], ids=["entries", "entry_at", "staged"])
def test_rows_read_back_are_read_only(read_back):
    # A write to a row read back from the cache would go nowhere, so it
    # raises instead, and the cache keeps its rows.
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    before = _rows_state(cache)
    row = read_back(cache)
    for field in dataclasses.fields(row):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field.name, getattr(row, field.name))
    for array in (row.key, row.value):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 3.0
        with pytest.raises(ValueError, match="read-only"):
            array += 1.0
    assert _rows_state(cache) == before


def _members_cache():
    """Five rows of score mass 1; the row at 0 is folded over 0 and 1."""
    cache = fill_cache([[float(i), 0.0] for i in range(6)])
    merge_replace(cache, [0, 1], rep_for(cache.entries[:2]))
    return cache


@pytest.mark.parametrize("write", [
    lambda cache: append(cache, make_entry(6, [1.0, 1.0], group_mass=2.0)),
    lambda cache: merge_replace(cache, [0, 2], KVEntry(
        key=[1.0, 0.0], value=[1.0, 0.0], position=0, score_mass=3.0,
        group_mass=3.0)),
], ids=["append", "merge_replace"])
def test_a_row_covering_itself_alone_has_group_mass_one(write):
    # Only folded rows carry mass, so a cache without members needs no
    # log(group_mass); the refusal comes before anything is written.
    cache = _members_cache()
    staged = _staged_row(cache)
    before = (_rows_state(cache), dict(cache.members))
    with pytest.raises(CacheError, match="group mass [0-9.]+ but covers "
                                         "only its own position"):
        write(cache)
    assert (_rows_state(cache), dict(cache.members)) == before
    append(cache, staged)
    check_invariants(cache)


def test_total_appended_survives_compression():
    cache = fill_cache([[float(i), 0.0] for i in range(10)])
    evict(cache, {3, 4, 5})
    assert cache.total_appended == 10
    assert len(cache.entries) == 7


def test_only_the_model_imports_the_row_commit():
    # Rows enter the cache in model.run_prefill and the decode loop alone;
    # policies and stages only compress.
    importers = set()
    for path in (Path(__file__).resolve().parents[1] / "src" / "cask").glob(
            "*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and {
                    alias.name for alias in node.names} & {"append",
                                                          "StagedRow"}:
                importers.add(path.name)
    assert "model.py" in importers
    assert importers <= {"cache.py", "model.py"}


def test_evict_empty_set_is_noop():
    cache = fill_cache([[1.0, 0.0]])
    evict(cache, set())
    assert len(cache.entries) == 1
    assert cache.compression_events == []


def test_evict_protected_raises():
    cache = CacheState(budget=4)
    append(cache, make_entry(0, [1.0, 0.0], protected=True))
    with pytest.raises(CacheError, match="protected"):
        evict(cache, {0})


def test_evict_records_no_event():
    # Only a fired decode consolidation is a compression event.
    cache = fill_cache([[float(i), 0.0] for i in range(5)])
    evict(cache, {1, 2})
    assert [e.position for e in cache.entries] == [0, 3, 4]
    assert cache.evicted_tokens == 2
    assert cache.compression_events == []


@pytest.mark.parametrize("positions, missing", [
    ([0], 0), ([3], 3), ([9], 9), ([8], 8), ([2, 5, 6], 5), ([7, 4], 7),
    ([2.5], 2.5),
], ids=["before-first", "between", "past-last", "folded-member",
        "among-present", "first-of-two", "fractional"])
def test_evict_refuses_an_absent_position(positions, missing):
    # The refusal comes before any row is removed, even the present ones.
    cache = CacheState(budget=8)
    for p in (2, 4, 6, 8):
        append(cache, make_entry(p, [float(p), 1.0]))
    merge_replace(cache, [6, 8], rep_for(cache.entries[2:]))
    evict(cache, [4])
    before = (cache.n, cache.position.tolist(), dict(cache.members),
              cache.evicted_tokens)
    with pytest.raises(CacheError, match=f"^no entry at position {missing}$"):
        evict(cache, positions)
    assert (cache.n, cache.position.tolist(), dict(cache.members),
            cache.evicted_tokens) == before == (2, [2, 6], {6: (6, 8)}, 1)
    check_invariants(cache)


def test_evict_on_an_empty_cache_refuses_every_position():
    cache = CacheState(budget=8)
    evict(cache, [])
    with pytest.raises(CacheError, match="^no entry at position 0$"):
        evict(cache, [0])
    assert (cache.n, cache.members, cache.evicted_tokens) == (0, {}, 0)


@pytest.mark.parametrize("num_layers", [1, 3])
@pytest.mark.parametrize("rows", [[0], [3], [7], [5], [1, 5]],
                         ids=["first", "middle", "last", "folded", "two"])
def test_drop_equals_a_list_model(num_layers, rows):
    # One row leaves by a shift of the rows after it, several by a mask;
    # both leave what deleting the rows from a list of the entries leaves.
    rng = np.random.default_rng(num_layers)
    model, position = [], 0
    for i in range(8):
        members = (position, position + 1, position + 3) if i == 5 \
            else (position,)
        model.append(KVEntry(
            key=rng.standard_normal((num_layers, 4)),
            value=rng.standard_normal((num_layers, 4)), position=position,
            origin=PREFIX if i < 2 else DECODE, score_mass=float(i) / 4,
            group_mass=3.0 if i == 5 else 1.0, protected=i % 3 == 0,
            members=members))
        position = members[-1] + 1
    cache = CacheState(budget=10_000)
    for entry in model:
        append(cache, entry)
    evicted = sum(len(model[r].members) for r in rows)
    model = [e for r, e in enumerate(model) if r not in rows]
    assert drop(cache, np.array(rows)) == len(rows)
    assert cache.n == len(model)
    assert cache.evicted_tokens == evicted
    assert cache.members == {e.position: e.members for e in model
                             if len(e.members) > 1}
    for got, want in zip(cache.entries, model, strict=True):
        assert got.key.tobytes() == want.key.tobytes()
        assert got.value.tobytes() == want.value.tobytes()
        assert (got.position, got.origin, got.score_mass, got.group_mass,
                got.protected, got.members) \
            == (want.position, want.origin, want.score_mass, want.group_mass,
                want.protected, want.members)


def rep_for(entries, weights=None):
    weights = weights if weights is not None else [e.score_mass for e in entries]
    mass = 0.0
    for w in weights:
        mass += w
    key = sum(w * e.key for w, e in zip(weights, entries)) / mass
    return KVEntry(key=key, value=key.copy(), position=entries[0].position,
                   origin=DECODE, score_mass=mass, group_mass=mass,
                   members=tuple(p for e in entries for p in e.members))


def test_merge_replace_reduces_count():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    rep = rep_for(cache.entries[:2])
    merge_replace(cache, [0, 1], rep)
    assert len(cache.entries) == 2
    assert cache.entries[0].position == 0
    assert cache.entries[0].member_count == 2


@pytest.mark.parametrize("remove, members, evicted", [
    (lambda cache: drop(cache, cache.row_of([2])), {}, 2),
    (lambda cache: merge_replace(cache, [1, 2], rep_for(cache.entries[1:3])),
     {1: (1, 2, 3)}, 0),
], ids=["drop", "merge_replace"])
def test_a_removed_row_takes_its_members_along(remove, members, evicted):
    # The row at 2 is folded over 2 and 3; dropping it evicts both, and
    # merging it into the row at 1 passes both to the representative.
    cache = fill_cache([[float(i), 0.0] for i in range(6)])
    merge_replace(cache, [2, 3], rep_for(cache.entries[2:4]))
    assert cache.members == {2: (2, 3)}
    before = cache.evicted_tokens
    remove(cache)
    assert 2 not in cache.members and cache.members == members
    assert cache.evicted_tokens - before == evicted
    check_invariants(cache)


def _folded_cache(num_layers):
    """Six rows, one prefix row and one folded over two positions, with
    protected flags and distinct score masses."""
    rng = np.random.default_rng(num_layers)
    shape = (num_layers, 4) if num_layers > 1 else (4,)
    cache = CacheState(budget=10_000)
    for i in range(7):
        append(cache, KVEntry(
            key=rng.standard_normal(shape), value=rng.standard_normal(shape),
            position=i, origin=PREFIX if i == 0 else DECODE,
            score_mass=0.25 * i, protected=i in (1, 5)))
    merge_replace(cache, [3, 4], rep_for(cache.entries[3:5]))
    return cache


@pytest.mark.parametrize("row", [5, 2, 3], ids=["last", "middle", "folded"])
def test_dropping_one_row_leaves_what_a_fresh_cache_holds(row):
    # The last row leaves by counting it out, moving no byte of any buffer;
    # any other by a shift.  Either way the cache holds what a cache that
    # only ever held the kept rows holds.
    cache = _folded_cache(2)
    entries = cache.entries
    buffers = (cache._kv.tobytes(),
               [col.tobytes() for col in cache._columns.values()])
    assert drop(cache, np.array([row])) == 1
    check_invariants(cache)
    fresh = CacheState(budget=10_000)
    for r, entry in enumerate(entries):
        if r != row:
            append(fresh, entry)
    assert cache_bytes(cache)[:3] == cache_bytes(fresh)[:3]
    assert cache.evicted_tokens == len(entries[row].members)
    if row == len(entries) - 1:
        assert (cache._kv.tobytes(),
                [col.tobytes() for col in cache._columns.values()]) == buffers


@pytest.mark.parametrize("num_layers", [1, 3])
def test_trusted_copies_equal_validated_ones(num_layers):
    # _entries builds its copies without KVEntry's checks; each must equal,
    # field by field and byte for byte, the entry the validating
    # constructor builds from the same row, live or staged, and its key
    # and value must be read-only.
    cache = _folded_cache(num_layers)
    staged = _staged_row(cache)
    copies = [(r, e) for r, e in enumerate(cache.entries)]
    copies.append((cache.n, staged.entry()))
    columns = cache._columns
    for row, got in copies:
        p = int(columns["position"][row])
        want = KVEntry(
            key=cache._kv[0, :, row].reshape(cache.row_shape).copy(),
            value=cache._kv[1, :, row].reshape(cache.row_shape).copy(),
            position=p,
            origin=DECODE if columns["is_decode"][row] else PREFIX,
            score_mass=float(columns["score_mass"][row]),
            group_mass=float(columns["group_mass"][row]),
            protected=bool(columns["protected"][row]),
            members=cache.members.get(p, ()) if row < cache.n else ())
        for field in dataclasses.fields(KVEntry):
            a, b = getattr(got, field.name), getattr(want, field.name)
            assert type(a) is type(b), field.name
            if isinstance(a, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) \
                    == (b.dtype, b.shape, b.tobytes()), field.name
                assert not a.flags.writeable
            else:
                assert a == b, field.name
    assert copies[-1][1].members == (cache.total_appended,)


def test_merge_replace_mass_mismatch():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    rep = rep_for(cache.entries)
    rep = dataclasses.replace(rep, group_mass=rep.group_mass + 0.5)
    with pytest.raises(CacheError, match="mass mismatch"):
        merge_replace(cache, [0, 1], rep)


def test_merge_replace_rejects_singleton():
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(CacheError, match="singleton"):
        merge_replace(cache, [0], cache.entries[0])


@pytest.mark.parametrize("change, message", [
    (dict(position=1), "representative must sit at the earliest member "
                       "position"),
    (dict(key=np.zeros(3), value=np.zeros(3)),
     r"entry shape \(3,\) does not match the cache's \(2,\)"),
], ids=["position", "shape"])
def test_merge_replace_refuses_a_misplaced_or_misshapen_representative(
        change, message):
    cache = fill_cache([[1.0, 0.0], [0.0, 1.0]])
    before = _rows_state(cache)
    rep = dataclasses.replace(rep_for(cache.entries), **change)
    with pytest.raises(CacheError, match=f"^{message}$"):
        merge_replace(cache, [0, 1], rep)
    assert _rows_state(cache) == before


def test_merge_replace_rejects_protected_member():
    cache = CacheState(budget=8)
    append(cache, make_entry(0, [1.0, 0.0], protected=True))
    append(cache, make_entry(1, [0.0, 1.0]))
    rep = rep_for(cache.entries)
    with pytest.raises(CacheError, match="protected"):
        merge_replace(cache, [0, 1], rep)


@pytest.mark.parametrize("group, missing", [
    ([0, 2, 4], 0), ([2, 3, 4], 3), ([4, 6, 9], 9), ([3, 5, 6], 3),
    ([6, 4, 1], 1),
], ids=["before-first", "between", "past-last", "first-of-two", "unsorted"])
def test_merge_replace_refuses_a_missing_position(group, missing):
    # One binary search finds every member's row; a position between two
    # rows, before the first or past the last is named as before.
    cache = CacheState(budget=8)
    for p in (2, 4, 6):
        append(cache, make_entry(p, [float(p), 1.0]))
    rep = rep_for(cache.entries[:2])
    message = f"no entry at position {missing}"
    with pytest.raises(CacheError, match=f"^{message}$"):
        merge_replace(cache, group, rep)
    assert cache.position.tolist() == [2, 4, 6] and cache.members == {}
    with pytest.raises(CacheError, match=f"^{message}$"):
        cache.entry_at(missing)
    assert cache.row_of([6, 2, 4]).tolist() == [2, 0, 1]


def test_row_of_an_empty_cache():
    cache = CacheState(budget=8)
    assert cache.row_of([]).tolist() == []
    with pytest.raises(CacheError, match="^no entry at position 0$"):
        cache.row_of([0])


def test_merge_all_scratch_with_four_protected():
    # 10 entries, 4 protected: merging the 6 unprotected leaves 5
    cache = CacheState(budget=16)
    for i in range(10):
        append(cache, make_entry(i, [float(i), 1.0], protected=i < 4))
    scratch = cache.entries[4:]
    merge_replace(cache, [e.position for e in scratch], rep_for(scratch))
    assert len(cache.entries) == 5


def test_saved_ratio_identity_case():
    cache = fill_cache([[1.0, 0.0]] * 1)
    assert terminal_saved_ratio(cache) == 0.0


def test_saved_ratio_formula():
    cache = CacheState(budget=300)
    for i in range(256):
        append(cache, make_entry(i, [1.0, 0.0]))
    evict(cache, set(range(64, 256)))
    assert len(cache.entries) == 64
    assert terminal_saved_ratio(cache) == 0.75


def test_saved_ratio_empty_history():
    with pytest.raises(CacheError):
        terminal_saved_ratio(CacheState(budget=4))


def test_covered_positions_includes_folded_members():
    cache = fill_cache([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    merge_replace(cache, [0, 1], rep_for(cache.entries[:2]))
    assert covered_positions(cache) == {0, 1, 2}


def test_merge_replace_keeps_positions_strictly_increasing():
    cache = fill_cache([[float(i), 1.0] for i in range(8)])
    group = [cache.entries[i] for i in (2, 4, 5)]
    merge_replace(cache, [2, 4, 5], rep_for(group))
    positions = [e.position for e in cache.entries]
    assert positions == sorted(positions)
    assert positions == [0, 1, 2, 3, 6, 7]


@given(st.lists(st.sampled_from(["append", "evict", "merge"]),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_conservation_of_history(ops, seed):
    # total_appended == live member_count sum + evicted token count
    rng = np.random.default_rng(seed)
    cache = CacheState(budget=10_000)
    next_pos = 0
    for op in ops:
        if op == "append" or len(cache.entries) < 3:
            append(cache, make_entry(next_pos, rng.standard_normal(4),
                                     score_mass=float(rng.uniform(0.1, 2.0))))
            next_pos += 1
        elif op == "evict":
            victim = rng.choice([e.position for e in cache.entries])
            evict(cache, {int(victim)})
        else:
            k = int(rng.integers(2, min(4, len(cache.entries)) + 1))
            idx = rng.choice(len(cache.entries), size=k, replace=False)
            group = sorted((cache.entries[i] for i in idx),
                           key=lambda e: e.position)
            merge_replace(cache, [e.position for e in group], rep_for(group))
    live = sum(e.member_count for e in cache.entries)
    assert cache.total_appended == live + cache.evicted_tokens


# --- check_invariants ---------------------------------------------------------

def test_check_invariants_accepts_folds_and_evictions():
    cache = fill_cache([[float(i), 0.0] for i in range(5)], budget=3)
    rep = KVEntry(key=[0.5, 0.0], value=[0.5, 0.0], position=0,
                  score_mass=2.0, group_mass=2.0, members=(0, 1))
    assert not cache.members
    merge_replace(cache, [0, 1], rep)
    # The recorded members say a group mass other than 1 is live, and the
    # model step adds log(group_mass); forks keep them.
    assert cache.members == cache.fork().members == {0: (0, 1)}
    evict(cache, [4])
    check_invariants(cache)
    cache.budget = 2
    cache.core_overflow = True
    check_invariants(cache)


@pytest.mark.parametrize("breakage, message", [
    ("order", "position 1 follows 2"),
    ("count", "live members"),
    ("overlap", "covers \\[1\\], already covered"),
    ("members-start", "members \\(3,\\); they must start at 2"),
    ("members-order", "members \\(0, 0\\); they must start at 0 and "
                      "strictly increase"),
    ("budget", "exceed budget 2 without core overflow"),
    ("rows", "buffers disagree with 1000 live rows"),
    ("stray-members", "members are recorded for position 7, which holds "
                      "no live entry"),
    # A row covering only its own position must be unweighted.
    ("unweighted", "entry at position 1 has group mass other than 1 but "
                   "covers only its own position"),
    # Masses written into the columns of a folded row: a group mass must be
    # finite and > 0, a score mass finite and >= 0.
    *[(f"group_mass={bad}", f"entry at position 0 has group mass {bad} and "
                            f"score mass 2.0; expected finite")
      for bad in (float("nan"), float("inf"), 0.0, -1.0)],
    *[(f"score_mass={bad}", f"entry at position 0 has group mass 2.0 and "
                            f"score mass {bad}; expected finite")
      for bad in (float("nan"), float("inf"), -1.0)],
])
def test_check_invariants_names_the_broken_invariant(breakage, message):
    cache = fill_cache([[float(i), 0.0] for i in range(3)], budget=3)
    if breakage == "order":
        cache.position[1:] = cache.position[[2, 1]]
    elif breakage == "count":
        cache.evicted_tokens += 1
    elif breakage == "overlap":
        cache.members[0] = (0, 1)
        cache.evicted_tokens -= 1
    elif breakage == "members-start":
        cache.members[2] = (3,)
    elif breakage == "members-order":
        cache.members[0] = (0, 0)
        cache.evicted_tokens -= 1
    elif breakage == "rows":
        cache.n = 1000              # more live rows than the buffers hold
    elif breakage == "stray-members":
        cache.members[7] = (7, 8)
    elif breakage == "unweighted":
        cache._columns["group_mass"][1] = 2.0
    elif "=" in breakage:
        column, bad = breakage.split("=")
        merge_replace(cache, [0, 1],
                      KVEntry(key=[0.5, 0.0], value=[0.5, 0.0], position=0,
                              score_mass=2.0, group_mass=2.0, members=(0, 1)))
        check_invariants(cache)
        cache._columns[column][0] = float(bad)
    else:
        cache.budget = 2
    with pytest.raises(CacheError, match=message):
        check_invariants(cache)


@pytest.mark.parametrize("members, message", [
    # Malformed members at entry 0, an overlap at the later entry 3.
    ({0: (1, 2), 2: (2, 3)},
     "entry at position 0 has members \\(1, 2\\); they must start at 0"),
    # Entry 2's members are malformed and cover 1 and 2, already covered.
    ({0: (0, 2), 2: (2, 1)},
     "entry at position 2 has members \\(2, 1\\); they must start at 2"),
    # An overlap at entry 1 comes before the malformed members of entry 3.
    ({0: (0, 1), 3: (4,)}, "entry at position 1 covers \\[1\\], already "
                           "covered"),
])
def test_check_invariants_names_the_first_of_two_broken_entries(members,
                                                                message):
    # In position order the first broken entry is named; at one entry the
    # members check comes before the overlap check.
    cache = fill_cache([[float(i), 0.0] for i in range(5)], budget=5)
    cache.members.update(members)
    cache.evicted_tokens -= sum(len(m) - 1 for m in members.values())
    with pytest.raises(CacheError, match=f"^{message}"):
        check_invariants(cache)


# --- model-based: every cache mutation, in any order -------------------------

# Three L=2 keys, so exact repeats (and hence folds) are common.
KEY_POOL = np.random.default_rng(7).standard_normal((3, 2, 8))
MACHINE_CONFIG = CaskConfig(sink_count=1, recency_window=2)


def _row(e):
    return (e.position, e.origin, e.score_mass, e.group_mass, e.protected,
            e.members, e.key.tobytes(), e.value.tobytes())


def _rows_state(cache):
    return ([_row(e) for e in cache.entries], cache.n, cache.total_appended,
            cache.evicted_tokens)


class CacheMachine(RuleBasedStateMachine):
    """Appends, and rows staged as a model step stages them and committed
    later, interleaved with consolidation, baseline eviction, protected
    eviction and single folds.  The structural invariants hold after every
    step, only a fired consolidation adds a compression event, and a staged
    row commits only while nothing has moved ``n`` or appended since, with
    the bytes it was staged with."""

    @initialize(budget=st.integers(min_value=6, max_value=16))
    def start(self, budget):
        self.cache = CacheState(budget=budget)
        self.fired = 0
        self.staged = None

    @precondition(lambda self: len(self.cache) < self.cache.budget
                  or self.cache.core_overflow)
    @rule(tokens=st.lists(st.tuples(
        st.integers(min_value=0, max_value=len(KEY_POOL) - 1),
        st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 3.0),
        st.sampled_from([DECODE, DECODE, PREFIX])), min_size=1, max_size=6))
    def append(self, tokens):
        # Up to the budget, or past it once the core has overflowed.
        room = len(tokens) if self.cache.core_overflow \
            else self.cache.budget - len(self.cache)
        for key, mass, origin in tokens[:room]:
            append(self.cache, KVEntry(
                key=KEY_POOL[key], value=KEY_POOL[key] + 1.0,
                position=self.cache.total_appended, origin=origin,
                score_mass=mass))

    @precondition(lambda self: len(self.cache) < self.cache.budget
                  or self.cache.core_overflow)
    @rule(key=st.integers(min_value=0, max_value=len(KEY_POOL) - 1),
          mass=st.floats(0.0, 3.0), origin=st.sampled_from([DECODE, PREFIX]))
    def stage(self, key, mass, origin):
        keys, values, _ = self.cache.slot(KEY_POOL[key].shape)
        keys[:, -1] = KEY_POOL[key]
        values[:, -1] = KEY_POOL[key] + 1.0
        self.staged = self.cache.stage(origin, mass)
        self.staged_row = self.staged.entry()
        self.staged_at = (len(self.cache), self.cache.total_appended)

    @precondition(lambda self: self.staged is not None)
    @rule()
    def commit(self):
        staged, self.staged = self.staged, None
        before = _rows_state(self.cache)
        moved = (len(self.cache), self.cache.total_appended) != self.staged_at
        try:
            append(self.cache, staged)
        except CacheError:
            assert _rows_state(self.cache) == before
            return
        assert not moved
        assert _row(self.cache.entries[-1]) == _row(self.staged_row)

    @rule(shrink=st.integers(min_value=0, max_value=6))
    def compress(self, shrink):
        events = len(self.cache.compression_events)
        outcome = cask_compress(self.cache, MACHINE_CONFIG,
                                max(1, len(self.cache) - shrink))
        assert len(self.cache.compression_events) == events + outcome.fired
        if outcome.fired:
            assert self.cache.compression_events[-1] is outcome
            self.fired += 1
        # Forks share the recorded outcomes, so none can be written.
        for field in dataclasses.fields(outcome):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(outcome, field.name, 0)

    @rule(shrink=st.integers(min_value=0, max_value=6))
    def evict_to(self, shrink):
        evict_baseline(self.cache, max(1, len(self.cache) - shrink))

    @rule(data=st.data())
    def evict_unprotected(self, data):
        picks = data.draw(st.lists(st.booleans(), min_size=len(self.cache),
                                   max_size=len(self.cache)))
        evict(self.cache, [e.position for e, pick
                           in zip(self.cache.entries, picks)
                           if pick and not e.protected])

    @rule(index=st.integers(min_value=0, max_value=7))
    def fold(self, index):
        groups = [g for g in form_merge_groups(self.cache, MACHINE_CONFIG)
                  if g.mass > 0.0]
        if groups:
            group = groups[index % len(groups)]
            rep = fold_group(group, [self.cache.entry_at(p)
                                     for p in group.positions])
            merge_replace(self.cache, group.positions, rep)

    @invariant()
    def structure_holds(self):
        check_invariants(self.cache)
        assert len(self.cache.compression_events) == self.fired
        assert all(o.fired for o in self.cache.compression_events)


CacheMachine.TestCase.settings = settings(max_examples=60,
                                          stateful_step_count=40,
                                          deadline=None)
TestCacheMachine = CacheMachine.TestCase
