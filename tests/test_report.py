import dataclasses
import hashlib
import itertools
import json
import re
import types
import typing

import pytest

from cask import model, policies, replay, report
from cask.bridge import bridge_run
from cask.cache import terminal_saved_ratio
from cask.cli import main
from cask.report import (
    ROW_FIELDS,
    CrossingFinding,
    SweepSpec,
    WitnessSpec,
    detect_crossings,
    emit_tables,
    load_rows,
    run_sweep,
)
from cask.replay import (
    FidelitySummary,
    make_policy,
    replay_record,
    teacher_forced_replay,
)

# sha256 of rows.jsonl from the canonical frontier sweep
# (scripts/frontier_sweep.py defaults).
FRONTIER_DIGEST = "163530bdc1ed3e281f730c64f63a4d34c34f7255a5151ea6b54911194b2d0927"
# sha256 of rows.jsonl from prefix_dominant_spec (L=2), taken from
# independent per-cell runs before cells shared their witness's prefill.
PREFIX_DOMINANT_DIGEST = (
    "82beddee44f5a640dca7e72f294fcdd4c2dd3562953a0464075ddb06058b6f6b")
# sha256 of rows.jsonl from the fold-heavy sweep (L=2, cask only), taken
# before merge grouping batched its distances and cached band spectra.
FOLD_HEAVY_DIGEST = (
    "021d09a7449610b8069c5c2210e56f896b3ace1811050e3b1278b7bdcc35a0cc")
# sha256 of manifest.json for the canonical frontier spec at out_dir
# out/frontier, taken while SweepSpec still carried the policy knobs.
FRONTIER_MANIFEST_DIGEST = (
    "5c1ddb810ff498e2fdf8030cf3bd2eb56b52f2973b4cee6706ec07a0b8c467e5")
# sha256 of the crossings.json that `cask report` (top-1) writes for the
# canonical frontier rows, taken while crossings were serialized by hand.
FRONTIER_CROSSINGS_DIGEST = (
    "7f5355f9c51aa539b1da43ae7a123d6f6878a481dc51e65071c5f40fc923665e")

WSPEC = WitnessSpec(kind="prompt-heavy-decode-active", seed=1,
                    prefix_len=16, decode_len=16, redundancy=0.7)


def small_spec(out_dir, methods=("cask", "evict"), budgets=(12, 20)):
    return SweepSpec(witnesses=[WSPEC], methods=list(methods),
                     budgets=list(budgets), out_dir=str(out_dir), seed=0)


def replay_row(witness="w", method="cask", budget=16, top1=0.9, top5=0.95,
               nll=1.0, T=20, fm=None):
    row = {k: None for k in ROW_FIELDS}
    row.update({
        "kind": "replay", "witness": witness, "regime_label": "boundary",
        "method": method, "budget": budget, "top1": top1, "top5": top5,
        "mean_nll": nll, "first_mismatch": fm, "saved_ratio": 0.5,
        "decode_events": 0, "prefix_budget_exhausted": False,
        "merge_inactive": True, "rho_core": 0.1, "rho_rep": 0.9,
        "T": T, "top1_matches": round(top1 * T),
        "top5_matches": round(top5 * T), "seed": 0,
    })
    return row


# --- sweep spec validation -----------------------------------------------------

def test_spec_rejects_non_increasing_budgets(tmp_path):
    with pytest.raises(ValueError, match="strictly increasing"):
        small_spec(tmp_path, budgets=(20, 12))


@pytest.mark.parametrize("budgets", [(0, 8), (-1,), (0,), (float("nan"),),
                                     (1.5, 8), (True, 2)])
def test_spec_rejects_budgets_below_one(tmp_path, budgets):
    with pytest.raises(ValueError, match="budgets must be >= 1"):
        small_spec(tmp_path, budgets=budgets)


def test_spec_rejects_unknown_method(tmp_path):
    with pytest.raises(ValueError, match="unknown method"):
        small_spec(tmp_path, methods=("cask", "magic"))


@pytest.mark.parametrize("change, message", [
    # Rows key on the witness name, kind and seed alone: the same-budget
    # tables would pair two geometries' rows under one name.
    ({"witnesses": [WSPEC, dataclasses.replace(WSPEC, prefix_len=32)]},
     "witness ('prompt-heavy-decode-active', 1) listed twice"),
    # A witness listed twice would count its tokens twice in the audits.
    ({"witnesses": [WSPEC, WSPEC]},
     "witness ('prompt-heavy-decode-active', 1) listed twice"),
    ({"methods": ["cask", "evict", "cask"]}, "method 'cask' listed twice"),
])
def test_spec_rejects_a_witness_or_method_listed_twice(tmp_path, change,
                                                        message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dataclasses.replace(small_spec(tmp_path), **change)
    # Another seed or another kind is another witness.
    other = [WSPEC, dataclasses.replace(WSPEC, seed=2),
             dataclasses.replace(WSPEC, kind="short-prompt-reasoning")]
    dataclasses.replace(small_spec(tmp_path), witnesses=other)


def test_spec_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        SweepSpec(witnesses=[], methods=["cask"], budgets=[8],
                  out_dir=str(tmp_path))


@pytest.mark.parametrize("change, message", [
    ({"model_dim": 3}, "model_dim must be even"),
    ({"num_layers": 0}, "num_layers must be >= 1"),
    ({"witnesses": [dataclasses.replace(WSPEC, kind="essay")]},
     "unknown witness kind"),
    # A bad later witness must not leave the first witness's rows behind.
    ({"witnesses": [WSPEC, dataclasses.replace(WSPEC, seed=2, decode_len=0)]},
     "decode_len must be >= 1"),
])
def test_sweep_writes_nothing_for_a_spec_it_cannot_run(tmp_path, change,
                                                        message):
    out = tmp_path / "out"
    spec = dataclasses.replace(small_spec(out), **change)
    with pytest.raises(ValueError, match=message):
        run_sweep(spec)
    assert not out.exists() or not any(out.iterdir())


# --- run_sweep -------------------------------------------------------------------

def test_sweep_cardinality(tmp_path):
    rows = run_sweep(small_spec(tmp_path))
    replay = [r for r in rows if r["kind"] == "replay"]
    bridge = [r for r in rows if r["kind"] == "bridge"]
    assert len(replay) == 4  # 1 witness x 2 methods x 2 budgets
    assert len(bridge) == 4
    assert all(set(r) == set(ROW_FIELDS) for r in rows)


def test_sweep_rows_match_stream(tmp_path):
    rows = run_sweep(small_spec(tmp_path))
    assert load_rows(tmp_path / "rows.jsonl") == rows


def test_sweep_rerun_is_byte_identical(tmp_path):
    run_sweep(small_spec(tmp_path))
    files = ["rows.jsonl", "manifest.json"]
    first = {f: (tmp_path / f).read_bytes() for f in files}
    run_sweep(small_spec(tmp_path))
    for f in files:
        assert (tmp_path / f).read_bytes() == first[f]


def frontier_spec(out_dir):
    return SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
                   for s in range(10)],
        methods=["cask", "evict", "none"], budgets=[24, 32, 48],
        out_dir=str(out_dir), seed=0)


def test_frontier_sweep_rows_match_golden_digest(tmp_path):
    run_sweep(frontier_spec(tmp_path))
    rows = (tmp_path / "rows.jsonl").read_bytes()
    assert hashlib.sha256(rows).hexdigest() == FRONTIER_DIGEST


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "681a64aab0ff44029828a2066348be631ee5cf114f9728b647b644ef902e4a2c"),
    ("markdown",
     "c463f7b7d7786b5a98db2ac653eb62101d6bafd7ba90f9b44f97a6271aa0ef85"),
    ("json", "c809b8f153a7f3f94bb58ff3dbf563621637e29c6304590cce33d51deba0357d"),
])
def test_frontier_tables_match_golden_digest(tmp_path, fmt, digest):
    # sha256 over the five tables' bytes in report._TABLES order, emitted
    # from the canonical frontier rows as read back from rows.jsonl; taken
    # while drop and merge_replace still removed members by hand.
    run_sweep(frontier_spec(tmp_path / "sweep"))
    rows = load_rows(tmp_path / "sweep" / "rows.jsonl")
    paths = emit_tables(rows, fmt, tmp_path / fmt)
    assert [p.stem for p in paths] == list(report._TABLES)
    tables = b"".join(p.read_bytes() for p in paths)
    assert hashlib.sha256(tables).hexdigest() == digest


def test_frontier_manifest_matches_golden_digest():
    # The bytes run_sweep writes to manifest.json, without running the sweep.
    manifest = json.dumps(frontier_spec("out/frontier").to_manifest(),
                          indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(manifest.encode()).hexdigest()
    assert digest == FRONTIER_MANIFEST_DIGEST


def test_frontier_crossings_match_golden_digest(tmp_path):
    run_sweep(frontier_spec(tmp_path / "sweep"))
    assert main(["report", "--rows", str(tmp_path / "sweep" / "rows.jsonl"),
                 "--out", str(tmp_path / "report")]) == 0
    crossings = (tmp_path / "report" / "crossings.json").read_bytes()
    assert hashlib.sha256(crossings).hexdigest() == FRONTIER_CROSSINGS_DIGEST


def prefix_dominant_spec(out_dir, num_layers=2):
    return SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-prefix-dominant", s, 48, 10, 0.2)
                   for s in range(2)],
        methods=["cask", "evict", "none"], budgets=[16, 40],
        out_dir=str(out_dir), seed=0, num_layers=num_layers)


def test_prefix_dominant_sweep_rows_match_golden_digest(tmp_path):
    rows = run_sweep(prefix_dominant_spec(tmp_path))
    assert any(r["regime_label"] == "prefix-dominant" for r in rows)
    digest = hashlib.sha256((tmp_path / "rows.jsonl").read_bytes())
    assert digest.hexdigest() == PREFIX_DOMINANT_DIGEST


def test_fold_heavy_sweep_rows_match_golden_digest(tmp_path, monkeypatch):
    # L=2 makes merge geometry average keys over layers, which the L=1
    # frontier pin never reaches.
    folds = []
    merge_replace = policies.merge_replace
    monkeypatch.setattr(policies, "merge_replace",
                        lambda *a, **k: folds.append(1) or merge_replace(*a, **k))
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 32, 96, 0.8)
                   for s in range(2)],
        methods=["cask"], budgets=[32, 64], out_dir=str(tmp_path), seed=0,
        num_layers=2)
    run_sweep(spec)
    assert folds
    digest = hashlib.sha256((tmp_path / "rows.jsonl").read_bytes())
    assert digest.hexdigest() == FOLD_HEAVY_DIGEST


class DecisionLog:
    """A policy that logs, after each of its steps, the cache's live
    positions and every folded row's members.  It reads no core flag, so it
    writes no owed core marking."""

    def __init__(self, policy, log):
        self.policy, self.budget, self.log = policy, policy.budget, log

    def after_prefill(self, cache):
        self.policy.after_prefill(cache)
        self._record(cache)

    def after_append(self, cache):
        self.policy.after_append(cache)
        self._record(cache)

    def _record(self, cache):
        self.log.append((cache.position.tolist(),
                         sorted(cache.members.items())))


# sha256 of the DecisionLog of every cell below: its forced run on the
# reference, then its greedy branch.  The row digests pin outcomes; this
# pins which rows each step keeps and which it folds together.  Taken while
# a merge group's first admission still took a path of its own.
DECISION_DIGEST = (
    "c52ba96fb42eb6e1ab4b378bd358f8fb637eb39dabdb8b84c14173b28ce8838f")


def test_step_decisions_match_golden_digest():
    # The frontier's cask and evict cells, then the first two consolidate
    # witnesses (P32/T256, r = 0.8) under cask.
    cells = [
        ([WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
          for s in range(10)], ("cask", "evict"), (24, 32, 48)),
        ([WitnessSpec("prompt-heavy-decode-active", s, 32, 256, 0.8)
          for s in range(2)], ("cask",), (32, 64)),
    ]
    params = model.init_model(0, 32, 16, 1)
    log = []
    for specs, methods, budgets in cells:
        for spec in specs:
            witness = spec.materialize(32)
            ref = model.generate_reference(params, list(witness.prompt),
                                           witness.decode_len, budgets)
            for method, budget in itertools.product(methods, budgets):
                policy = DecisionLog(make_policy(method, budget), log)
                run = model.decode(params, ref.snapshot, witness.decode_len,
                                   policy, forced=ref.tokens, trunk=ref)
                model.greedy_branch(params, run, policy)
    assert any(members for _, members in log)
    assert hashlib.sha256(repr(log).encode()).hexdigest() == DECISION_DIGEST


def _record_runs(monkeypatch, share: bool, history: int) -> list:
    """Log (method, snapshot) per cell decode.

    With ``share=False`` every decode prefills a snapshot of its own instead
    of forking the reference's and runs every step itself instead of
    starting on the reference's cache; ``none`` cells run under a budget of
    ``history`` that none of their runs fills, so they take every step too:
    the per-cell computation the shared sweep must reproduce.
    """
    log = []
    decode, make_policy = report.decode, report.make_policy

    def named(method, budget):
        policy = make_policy(method, budget)
        if not share and policy.budget is None:
            policy.budget = history
        return types.SimpleNamespace(
            method=method, budget=policy.budget,
            after_prefill=policy.after_prefill,
            after_append=policy.after_append)

    def logged(params, snapshot, steps, policy, forced, trunk):
        if not share:
            snapshot, trunk = model.prefill(params, snapshot.prompt), None
        log.append((policy.method, snapshot))
        return decode(params, snapshot, steps, policy, forced=forced,
                      trunk=trunk)

    monkeypatch.setattr(report, "make_policy", named)
    monkeypatch.setattr(report, "decode", logged)
    return log


@pytest.mark.parametrize("num_layers", [1, 3])
def test_shared_prefill_rows_equal_independent_runs(tmp_path, monkeypatch,
                                                    num_layers):
    spec = prefix_dominant_spec(tmp_path / "shared", num_layers)
    spec.witnesses.insert(0, WSPEC)
    prefills = []
    run_prefill = model.run_prefill
    monkeypatch.setattr(model, "run_prefill",
                        lambda *a: prefills.append(1) or run_prefill(*a))
    history = max(w.prefix_len + w.decode_len for w in spec.witnesses) + 2
    with monkeypatch.context() as m:
        shared_log = _record_runs(m, share=True, history=history)
        shared = run_sweep(spec)
    assert len(prefills) == len(spec.witnesses)
    assert {method for method, _ in shared_log} == {"cask", "evict", "none"}
    assert len({id(snap) for _, snap in shared_log}) == len(spec.witnesses)
    assert any(r["decode_events"] > 0 for r in shared)
    assert any(r["regime_label"] == "prefix-dominant" for r in shared)

    spec.out_dir = str(tmp_path / "independent")
    with monkeypatch.context() as m:
        independent_log = _record_runs(m, share=False, history=history)
        independent = run_sweep(spec)
    assert len({id(snap) for _, snap in independent_log}) \
        == len(independent_log)
    assert 2 * len(independent_log) == len(independent)
    assert shared == independent
    assert ((tmp_path / "shared" / "rows.jsonl").read_bytes()
            == (tmp_path / "independent" / "rows.jsonl").read_bytes())


def _independent_cell(seed, params, witness, ref, method, budget):
    """A sweep cell as two runs of its own: a teacher-forced replay and a
    bridge run, each prefilling the prompt (``none`` cells included)."""
    prompt = list(witness.prompt)
    record = teacher_forced_replay(params, prompt, ref.tokens,
                                   make_policy(method, budget))
    tokens, cache = bridge_run(params, prompt, witness.decode_len,
                               make_policy(method, budget))
    cell = {"witness": witness.name, "method": method, "budget": budget,
            "seed": seed}
    return [report.replay_row(cell, ref, record),
            report.bridge_row(cell, ref, tokens, cache)]


@pytest.mark.parametrize("num_layers", [1, 2])
def test_decode_tree_rows_equal_independent_runs(tmp_path, monkeypatch,
                                                 num_layers):
    # Decode-active seed 1 never mismatches at L=1 (at L=2, at budget 32);
    # seed 2 mismatches at step 2, the earliest a sweep row can (step 1
    # scores the prefill's own distribution, whose argmax is the reference
    # token).  Budget 4 is below cask's protected core.
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 16, 24, 0.7)
                   for s in (1, 2)]
        + [WitnessSpec("prompt-heavy-prefix-dominant", 1, 48, 12, 0.2)],
        methods=["cask", "evict", "none"], budgets=[4, 16, 32],
        out_dir=str(tmp_path / "tree"), seed=0, num_layers=num_layers)
    tree = run_sweep(spec)
    mismatches = {r["first_mismatch"] for r in tree
                  if r["kind"] == "replay" and r["method"] != "none"}
    assert {None, 2} <= mismatches
    assert any(r["decode_events"] > 0 for r in tree)

    spec.out_dir = str(tmp_path / "independent")
    monkeypatch.setattr(report, "_run_cell", _independent_cell)
    independent = run_sweep(spec)
    assert tree == independent
    assert ((tmp_path / "tree" / "rows.jsonl").read_bytes()
            == (tmp_path / "independent" / "rows.jsonl").read_bytes())


@pytest.mark.parametrize("num_layers", [1, 2])
def test_cells_started_on_the_reference_equal_independent_runs(
        tmp_path, monkeypatch, num_layers):
    # P = 25 prompt tokens, T = 64.  At budget 36 stage 1 trims nothing
    # (cap floor(0.75 * 36) = 27 >= 25) but flags prefix_budget_exhausted
    # (slack 11 < 16), so the flag must carry onto the reference's cache.
    # Budget 88 = P + T - 1 is first exceeded by the last step and 100
    # never: both start on the reference's terminal cache.
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
                   for s in range(3)],
        methods=["cask", "evict"], budgets=[24, 36, 88, 100],
        out_dir=str(tmp_path / "shared"), seed=0, num_layers=num_layers)
    steps = []
    forward_step = model.forward_step
    monkeypatch.setattr(model, "forward_step",
                        lambda *a, **k: steps.append(1) or forward_step(*a, **k))
    shared = run_sweep(spec)
    shared_steps = len(steps)
    flagged = [r for r in shared if r["budget"] == 36 and r["method"] == "cask"]
    assert len(flagged) == 6
    assert all(r["prefix_budget_exhausted"] for r in flagged)

    # The same cells, each replaying every step from the prefill.
    decode = report.decode
    monkeypatch.setattr(report, "decode", lambda *a, trunk, **k: decode(*a, **k))
    spec.out_dir = str(tmp_path / "unshared")
    steps.clear()
    assert run_sweep(spec) == shared
    unshared_steps = len(steps)
    params = model.init_model(spec.seed, num_layers=num_layers)
    skipped = 0
    for wspec in spec.witnesses:
        prompt = wspec.materialize(spec.vocab_size).prompt
        for method, budget in itertools.product(spec.methods, spec.budgets):
            cache = model.prefill(params, prompt).cache.fork(budget)
            make_policy(method, budget).after_prefill(cache)
            if cache.n == len(prompt):
                skipped += min(budget - len(prompt) + 1, wspec.decode_len)
    assert skipped == 3 * (2 * (12 + 64 + 64))
    assert unshared_steps - shared_steps == skipped

    spec.out_dir = str(tmp_path / "independent")
    monkeypatch.setattr(report, "_run_cell", _independent_cell)
    assert run_sweep(spec) == shared


@pytest.mark.parametrize("method, budget", [
    ("cask", 12), ("cask", 20), ("evict", 12), ("evict", 20), ("none", 20)])
def test_rows_are_written_from_their_records(monkeypatch, method, budget):
    # replay_row copies every FidelitySummary and MassDiagnostics field, so
    # a new field there would add a row key unless ROW_FIELDS names it.
    for record in (FidelitySummary, policies.MassDiagnostics):
        assert {f.name for f in dataclasses.fields(record)} <= set(ROW_FIELDS)
    params = model.init_model(0, 32, 16, 1)
    witness = WSPEC.materialize(32)
    ref = model.generate_reference(params, list(witness.prompt),
                                   witness.decode_len, [budget])
    policy = make_policy(method, budget)
    run = model.decode(params, ref.snapshot, witness.decode_len, policy,
                       forced=ref.tokens, trunk=ref)
    tokens, terminal = model.greedy_branch(params, run, policy)
    ratios = []
    for module in (replay, report):
        monkeypatch.setattr(module, "terminal_saved_ratio",
                            lambda c: ratios.append(c)
                            or terminal_saved_ratio(c))
    cell = {"witness": witness.name, "method": method, "budget": budget,
            "seed": 0}
    rows = [report.replay_row(cell, ref, replay_record(run)),
            report.bridge_row(cell, ref, tokens, terminal)]
    assert [id(c) for c in ratios] == [id(run.cache), id(terminal)]
    for row, kind, c in zip(rows, ("replay", "bridge"), ratios):
        assert tuple(row) == ROW_FIELDS
        assert row["kind"] == kind
        assert row["saved_ratio"] == terminal_saved_ratio(c)


def test_row_kinds_annotate_every_row_field_with_a_named_type():
    # load_rows checks a row against its kind's map and nulls elsewhere, so
    # a field in neither map could never be written.  Every member type of
    # every annotation the JSON checker reads must have a message name, or a
    # malformed file would end in a KeyError rather than the refusal.
    kinds = report._ROW_TYPES
    assert set().union(*kinds.values()) == set(ROW_FIELDS)
    for written in kinds.values():
        assert set(written) <= set(ROW_FIELDS)
    for annotations in [*map(typing.get_type_hints, (
            model.Witness, FidelitySummary, policies.MassDiagnostics)),
            *kinds.values()]:
        for key, hint in annotations.items():
            with pytest.raises(ValueError, match=re.escape(
                    f"where: {key!r} is {{}}, expected ")):
                model.check_json_types("where", {key: {}}, {key: hint})


def test_a_method_added_to_the_table_runs_through_the_sweep(tmp_path,
                                                          monkeypatch):
    # METHODS is the one list of methods: a name added there is a method
    # of SweepSpec and run_sweep, here eviction under a second name.
    monkeypatch.setitem(replay.METHODS, "evict-again", replay.EvictionPolicy)
    rows = run_sweep(small_spec(tmp_path, methods=("evict", "evict-again")))
    evict = [r for r in rows if r["method"] == "evict"]
    again = [r for r in rows if r["method"] == "evict-again"]
    assert len(again) == len(evict) == 4
    assert [{**r, "method": "evict"} for r in again] == evict


def test_sweep_none_rows_are_identity(tmp_path):
    rows = run_sweep(small_spec(tmp_path, methods=("none",), budgets=(12,)))
    replay = [r for r in rows if r["kind"] == "replay"][0]
    assert replay["top1"] == 1.0
    assert replay["saved_ratio"] == 0.0
    assert replay["first_mismatch"] is None
    bridge = [r for r in rows if r["kind"] == "bridge"][0]
    assert bridge["seq_ratio"] == 1.0
    assert bridge["task_metric"] == 100.0


def test_sweep_manifest_lists_spec_fields(tmp_path):
    spec = small_spec(tmp_path)
    run_sweep(spec)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["budgets"] == [12, 20]
    assert manifest["methods"] == ["cask", "evict"]
    assert manifest["witnesses"][0]["kind"] == WSPEC.kind
    assert {"vocab_size", "model_dim", "num_layers", "cask",
            "prefix_fraction"} <= set(manifest)


# --- crossings --------------------------------------------------------------------

def test_no_crossings_on_identical_rows():
    rows = [replay_row(method=m, budget=b, top1=0.8)
            for m in ("cask", "evict") for b in (256, 384)]
    assert detect_crossings(rows, "top1") == []


def test_hand_built_crossing_has_margin():
    rows = [replay_row(method="cask", budget=256, top1=0.9),
            replay_row(method="evict", budget=384, top1=0.8)]
    findings = detect_crossings(rows, "top1")
    assert len(findings) == 1
    f = findings[0]
    assert (f.lower_budget, f.higher_budget) == (256, 384)
    assert f.margin == pytest.approx(0.1)


def test_crossing_nll_direction():
    rows = [replay_row(method="cask", budget=256, nll=0.5),
            replay_row(method="evict", budget=384, nll=0.9)]
    findings = detect_crossings(rows, "mean_nll")
    assert len(findings) == 1
    assert findings[0].margin == pytest.approx(0.4)


def test_crossings_match_exhaustive_oracle(rng):
    budgets = [128, 256, 384]
    rows = []
    vals = {}
    for m in ("cask", "evict"):
        for b in budgets:
            v = float(rng.uniform(0, 1))
            vals[(m, b)] = v
            rows.append(replay_row(method=m, budget=b, top1=v))
    expected = sorted(
        (bl, bh)
        for bl, bh in itertools.product(budgets, budgets)
        if bl < bh and vals[("cask", bl)] > vals[("evict", bh)]
    )
    got = sorted((f.lower_budget, f.higher_budget)
                 for f in detect_crossings(rows, "top1"))
    assert got == expected


def test_crossing_requires_positive_margin():
    with pytest.raises(ValueError):
        CrossingFinding(witness="w", lower_method="cask", lower_budget=128,
                        higher_method="evict", higher_budget=256,
                        metric="top1", margin=0.0)


def test_crossing_requires_budgets_in_order():
    with pytest.raises(ValueError,
                       match="^lower budget must be below higher budget$"):
        CrossingFinding(witness="w", lower_method="cask", lower_budget=256,
                        higher_method="evict", higher_budget=256,
                        metric="top1", margin=0.1)


def test_detect_crossings_refuses_an_unknown_metric():
    rows = [replay_row(method="cask", budget=256, top1=0.9)]
    with pytest.raises(ValueError,
                       match="^unsupported crossing metric 'seq_ratio'$"):
        detect_crossings(rows, "seq_ratio")


def test_detect_crossings_ignores_bridge_rows():
    row = replay_row(method="cask", budget=128, top1=0.99)
    bridge = dict(row, kind="bridge")
    evict = replay_row(method="evict", budget=256, top1=0.5)
    assert len(detect_crossings([row, bridge, evict], "top1")) == 1


# --- table emission -----------------------------------------------------------------

def test_emit_single_row_csv(tmp_path):
    rows = [replay_row(top1=0.884, top5=0.992, nll=0.3589)]
    paths = emit_tables(rows, "csv", tmp_path)
    fidelity = next(p for p in paths if p.name == "fidelity.csv")
    lines = fidelity.read_text().strip().split("\n")
    assert len(lines) == 2  # header + one row
    assert lines[0].startswith("witness,")
    assert "88.4" in lines[1] and "0.359" in lines[1]


def test_emit_formats(tmp_path):
    rows = [replay_row()]
    for fmt, ext in (("csv", "csv"), ("markdown", "md"), ("json", "json")):
        paths = emit_tables(rows, fmt, tmp_path / fmt)
        assert {p.suffix for p in paths} == {f".{ext}"}
        assert len(paths) == 5


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        emit_tables([replay_row()], "xml", tmp_path)


def test_emit_rejects_empty_rows(tmp_path):
    with pytest.raises(ValueError):
        emit_tables([], "csv", tmp_path)


def test_weighted_aggregate_equal_lengths_is_plain_mean(tmp_path):
    rows = [replay_row(witness="a", top1=0.8, T=20),
            replay_row(witness="b", top1=0.6, T=20)]
    for r in rows:
        r["top1_matches"] = round(r["top1"] * r["T"])
    paths = emit_tables(rows, "json", tmp_path)
    agg = json.loads(next(p for p in paths
                          if p.name == "weighted_aggregate.json").read_text())
    assert agg[0]["weighted_top1_pct"] == "70.0"


def test_audit_counts_consistent_with_rates(tmp_path):
    rows = run_sweep(small_spec(tmp_path))
    paths = emit_tables(rows, "json", tmp_path)
    audit = json.loads(next(p for p in paths
                            if p.name == "audit_weighted_counts.json").read_text())
    agg = json.loads(next(p for p in paths
                          if p.name == "weighted_aggregate.json").read_text())
    for a, w in zip(audit, agg):
        rate = 100.0 * int(a["top1_matches"]) / int(a["total_replay_tokens"])
        assert abs(rate - float(w["weighted_top1_pct"])) <= 0.05 + 1e-9


def test_same_budget_table_pairs_methods(tmp_path):
    rows = run_sweep(small_spec(tmp_path))
    paths = emit_tables(rows, "json", tmp_path)
    table = json.loads(next(p for p in paths
                            if p.name == "same_budget.json").read_text())
    assert len(table) == 2  # one row per budget
    assert {"evict_top1_pct", "cask_top1_pct", "delta_top1_pp",
            "decode_events"} <= set(table[0])
