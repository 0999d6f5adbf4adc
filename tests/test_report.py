import hashlib
import itertools
import json

import pytest

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

# sha256 of rows.jsonl from the canonical frontier sweep
# (scripts/frontier_sweep.py defaults).
FRONTIER_DIGEST = "163530bdc1ed3e281f730c64f63a4d34c34f7255a5151ea6b54911194b2d0927"

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


def test_spec_rejects_unknown_method(tmp_path):
    with pytest.raises(ValueError, match="unknown method"):
        small_spec(tmp_path, methods=("cask", "magic"))


def test_spec_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        SweepSpec(witnesses=[], methods=["cask"], budgets=[8],
                  out_dir=str(tmp_path))


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


def test_frontier_sweep_rows_match_golden_digest(tmp_path):
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
                   for s in range(10)],
        methods=["cask", "evict", "none"], budgets=[24, 32, 48],
        out_dir=str(tmp_path), seed=0)
    run_sweep(spec)
    rows = (tmp_path / "rows.jsonl").read_bytes()
    assert hashlib.sha256(rows).hexdigest() == FRONTIER_DIGEST


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
