import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cask
from cask.cli import main
from cask.report import ROW_FIELDS, load_rows


def gen_witness(tmp_path, name="w.json", kind="prompt-heavy-decode-active",
                seed=1, prefix=16, decode=12, redundancy=0.7):
    path = tmp_path / name
    rc = main(["gen-witness", "--kind", kind, "--seed", str(seed),
               "--prefix-len", str(prefix), "--decode-len", str(decode),
               "--redundancy", str(redundancy), "--out", str(path)])
    assert rc == 0
    return path


def test_gen_witness_writes_manifest(tmp_path):
    path = gen_witness(tmp_path)
    data = json.loads(path.read_text())
    assert data["kind"] == "prompt-heavy-decode-active"
    assert len(data["prompt"]) == 17


def test_replay_command_prints_row(tmp_path, capsys):
    path = gen_witness(tmp_path)
    capsys.readouterr()
    rc = main(["replay", "--witness", str(path), "--method", "cask",
               "--budget", "16"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out)
    assert row["method"] == "cask"
    assert 0.0 <= row["top1"] <= 1.0


def test_replay_and_bridge_print_the_sweep_rows(tmp_path, capsys):
    path = gen_witness(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--witness", str(path), "--method", "cask",
               "--method", "evict", "--method", "none", "--budget-grid", "16",
               "--out", str(out)])
    assert rc == 0
    swept = {(r["kind"], r["method"]): r for r in load_rows(out / "rows.jsonl")}
    capsys.readouterr()
    for kind in ("replay", "bridge"):
        for method in ("cask", "evict", "none"):
            rc = main([kind, "--witness", str(path), "--method", method,
                       "--budget", "16"])
            assert rc == 0
            assert json.loads(capsys.readouterr().out) == swept[(kind, method)]


def test_bridge_command_prints_row(tmp_path, capsys):
    path = gen_witness(tmp_path)
    capsys.readouterr()
    rc = main(["bridge", "--witness", str(path), "--method", "evict",
               "--budget", "16"])
    assert rc == 0
    row = json.loads(capsys.readouterr().out)
    assert {"seq_ratio", "sem_sim", "task_metric"} <= set(row)


def test_sweep_and_report_roundtrip(tmp_path, capsys):
    w = gen_witness(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--witness", str(w), "--method", "cask",
               "--method", "evict", "--budget-grid", "12,20",
               "--seed", "0", "--out", str(out)])
    assert rc == 0
    rows = load_rows(out / "rows.jsonl")
    assert len(rows) == 8
    assert all(set(r) == set(ROW_FIELDS) for r in rows)

    report_dir = tmp_path / "report"
    rc = main(["report", "--rows", str(out / "rows.jsonl"),
               "--format", "markdown", "--out", str(report_dir)])
    assert rc == 0
    names = {p.name for p in report_dir.iterdir()}
    assert {"fidelity.md", "weighted_aggregate.md", "same_budget.md",
            "audit_weighted_counts.md", "audit_same_budget_counts.md",
            "crossings.json"} <= names


def test_sweep_rejects_manifest_with_another_prompt(tmp_path):
    wide = tmp_path / "wide.json"
    assert main(["gen-witness", "--kind", "prompt-heavy-decode-active",
                 "--seed", "1", "--prefix-len", "16", "--decode-len", "12",
                 "--redundancy", "0.7", "--vocab-size", "64",
                 "--out", str(wide)]) == 0
    # The same manifest written before vocab sizes were recorded.
    legacy = tmp_path / "legacy.json"
    data = json.loads(wide.read_text())
    del data["vocab_size"]
    legacy.write_text(json.dumps(data))
    edited = gen_witness(tmp_path, name="edited.json")
    data = json.loads(edited.read_text())
    data["prompt"][1] = data["prompt"][1] % 31 + 1
    edited.write_text(json.dumps(data))
    for path, detail in (
            (wide, "made at vocab size 64, not at --vocab-size 32"),
            (legacy, "prompt differs"), (edited, "prompt differs")):
        for cmd in (["sweep", "--budget-grid", "16", "--out",
                     str(tmp_path / "out")],
                    ["replay", "--budget", "16"]):
            with pytest.raises(ValueError, match=re.escape(str(path)) + ".*"
                               + re.escape(detail)):
                main(cmd + ["--witness", str(path), "--method", "cask"])
    assert not (tmp_path / "out" / "rows.jsonl").exists()
    assert main(["sweep", "--witness", str(wide), "--method", "cask",
                 "--budget-grid", "16", "--vocab-size", "64",
                 "--out", str(tmp_path / "out")]) == 0


def test_cli_rejects_bad_method(tmp_path):
    path = gen_witness(tmp_path)
    with pytest.raises(SystemExit):
        main(["replay", "--witness", str(path), "--method", "zap",
              "--budget", "16"])


def test_replay_rejects_malformed_manifest(tmp_path):
    path = gen_witness(tmp_path)
    data = json.loads(path.read_text())
    del data["prompt"]
    for content, detail in ((json.dumps(data), r"missing keys \['prompt'\]"),
                            ("[1, 2]", "JSON object")):
        path.write_text(content)
        with pytest.raises(ValueError,
                           match=re.escape(str(path)) + ".*" + detail):
            main(["replay", "--witness", str(path), "--method", "cask",
                  "--budget", "16"])


@pytest.mark.parametrize("grid, detail", [
    ("0,8", "budget 0 must be >= 1"),
    ("-4", "budget -4 must be >= 1"),
    ("32,abc", "budget 'abc' is not an integer"),
    ("32,16", "must be strictly increasing"),
])
def test_sweep_rejects_bad_budget_grid_before_writing(tmp_path, capsys, grid,
                                                      detail):
    # A zero budget used to fail mid-sweep, after manifest.json and an empty
    # rows.jsonl were written; a non-integer ended in a bare int() traceback.
    path = gen_witness(tmp_path)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--witness", str(path), "--method", "cask",
              "--budget-grid", grid, "--out", str(out)])
    assert exc.value.code == 2
    assert detail in capsys.readouterr().err
    assert not out.exists()


def test_replay_rejects_zero_budget(tmp_path, capsys):
    path = gen_witness(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--witness", str(path), "--method", "cask",
              "--budget", "0"])
    assert exc.value.code == 2
    assert "budget 0 must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("script, flag, value, detail", [
    ("frontier_sweep.py", "--budget-grid", "32,abc",
     "budget 'abc' is not an integer"),
    ("regime_probe.py", "--budgets", "0,8", "budget 0 must be >= 1"),
    ("frontier_sweep.py", "--seeds", "0", "seed count 0 must be >= 1"),
    ("frontier_sweep.py", "--seeds", "two",
     "seed count 'two' is not an integer"),
    ("regime_probe.py", "--prefix-fraction", "0",
     "prefix fraction 0.0 must be in (0, 1]"),
    ("regime_probe.py", "--prefix-fraction", "1.5",
     "prefix fraction 1.5 must be in (0, 1]"),
    ("regime_probe.py", "--prefix-fraction", "nan",
     "prefix fraction nan must be in (0, 1]"),
])
def test_scripts_reject_bad_budgets_as_usage_errors(tmp_path, script, flag,
                                                    value, detail):
    # Both scripts used to split the grid by hand: a non-integer ended in an
    # int() traceback and a zero budget died in CacheState.  A zero seed
    # count died in SweepSpec, a zero prefix fraction in StageConfig after
    # the table header was printed.
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(cask.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / script), flag, value],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "usage:" in proc.stderr
    assert detail in proc.stderr
    assert list(tmp_path.iterdir()) == []
