import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cask
from cask import model
from cask.cli import build_parser, main
from cask.replay import METHODS
from cask.report import ROW_FIELDS, load_rows

# sha256 of the manifest of the README's `cask gen-witness --seed 3 ...`,
# taken while the manifest's keys were still listed by hand.
README_WITNESS_DIGEST = (
    "970132bc21fe8439b5061becc55ec7f022600c5026df54ceb814f675c1db0f32")


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


def test_readme_witness_manifest_matches_golden_digest(tmp_path):
    path = gen_witness(tmp_path, seed=3, prefix=24, decode=64)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_WITNESS_DIGEST


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


@pytest.mark.parametrize("method", ["cask", "evict"])
def test_replay_and_bridge_start_where_the_sweep_cell_does(
        tmp_path, capsys, monkeypatch, method):
    # The README witness (P24, so a 25-token prompt, and T64) at budget 48:
    # 25 prefill steps, 64 reference steps, and the cell's steps from
    # t = 48 - 25 + 1 = 24 on, since stage 1 trims nothing there.
    path = gen_witness(tmp_path, seed=3, prefix=24, decode=64)
    steps = []
    forward_step = model.forward_step
    monkeypatch.setattr(model, "forward_step",
                        lambda *a, **k: steps.append(1) or forward_step(*a, **k))
    out = tmp_path / "sweep"
    assert main(["sweep", "--witness", str(path), "--method", method,
                 "--budget-grid", "48", "--out", str(out)]) == 0
    assert len(steps) == 25 + 64 + (64 - 24)
    replay, bridge = load_rows(out / "rows.jsonl")
    assert replay["first_mismatch"] is None  # so the bridge run adds none
    capsys.readouterr()
    for kind, row in (("replay", replay), ("bridge", bridge)):
        steps.clear()
        assert main([kind, "--witness", str(path), "--method", method,
                     "--budget", "48"]) == 0
        assert len(steps) == 25 + 64 + (64 - 24)
        assert json.loads(capsys.readouterr().out) == row


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


@pytest.mark.parametrize("repeat, message", [
    (["--witness", "{w}"],
     "witness ('prompt-heavy-decode-active', 1) listed twice"),
    (["--method", "cask"], "method 'cask' listed twice"),
    (["--witness", "{longer}"],
     "witness ('prompt-heavy-decode-active', 1) listed twice"),
    (["--method", "none", "--method", "evict", "--method", "none"],
     "method 'none' listed twice"),
])
def test_sweep_rejects_a_repeated_witness_or_method_before_writing(
        tmp_path, capsys, repeat, message):
    # SweepSpec's refusal used to escape as a traceback (exit 1).  The
    # third case is one (kind, seed) at another geometry, in its own file.
    path = gen_witness(tmp_path)
    longer = gen_witness(tmp_path, name="longer.json", decode=20)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--witness", str(path), "--method", "cask",
              "--budget-grid", "16", "--out", str(out)]
             + [arg.format(w=path, longer=longer) for arg in repeat])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: cask sweep" in err and message in err
    assert sorted(tmp_path.iterdir()) == sorted([path, longer])


def test_cli_rejects_bad_method(tmp_path):
    path = gen_witness(tmp_path)
    with pytest.raises(SystemExit):
        main(["replay", "--witness", str(path), "--method", "zap",
              "--budget", "16"])


def test_method_choices_are_the_methods_table():
    (commands,) = [a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    for name in ("replay", "bridge", "sweep"):
        (method,) = [a for a in commands.choices[name]._actions
                     if "--method" in a.option_strings]
        assert tuple(method.choices) == tuple(METHODS) \
            == ("cask", "evict", "none")


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


@pytest.mark.parametrize("command, flag, value, detail", [
    ("replay", "--model-dim", "3", "model_dim must be even"),
    ("bridge", "--num-layers", "0", "num_layers must be >= 1"),
    ("sweep", "--vocab-size", "1", "vocab_size must be >= 2"),
    ("sweep", "--model-dim", "2", "model_dim must be >= 4"),
    ("gen-witness", "--decode-len", "0", "decode_len must be >= 1"),
    ("gen-witness", "--prefix-len", "-1", "prefix_len must be >= 0"),
    ("gen-witness", "--redundancy", "2", "redundancy must be in [0, 1]"),
    ("gen-witness", "--vocab-size", "1", "vocab_size must be >= 2"),
])
def test_bad_model_and_witness_flags_are_usage_errors(tmp_path, capsys,
                                                      command, flag, value,
                                                      detail):
    # These used to end in the constructor's ValueError traceback (exit 1).
    # The flags are checked before the (here missing) manifest is read.
    out = tmp_path / "out"
    argv = {
        "gen-witness": ["--kind", "short-prompt-reasoning", "--seed", "0",
                        "--prefix-len", "8", "--decode-len", "4"],
        "replay": ["--method", "cask", "--budget", "8"],
        "bridge": ["--method", "cask", "--budget", "8"],
        "sweep": ["--method", "cask", "--budget-grid", "8"],
    }[command]
    if command != "gen-witness":
        argv += ["--witness", str(tmp_path / "missing.json")]
    if command in ("gen-witness", "sweep"):
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, value])
    assert exc.value.code == 2
    assert detail in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


# sha256 of scripts/regime_probe.py's stdout, taken while each probe cell
# was a teacher_forced_replay from the reference run's prefill snapshot.
REGIME_PROBE_DIGESTS = {
    (): "86a1cf7c036f0dc3a8ea456a28484132721127a7bdfbc04e1260050e7035344b",
    ("--prefix-fraction", "1.0"):
        "17acf42a99f76db79dd444f91addd87d79a582f7ee1062a5734e30cad911df15",
}


@pytest.mark.parametrize("args", list(REGIME_PROBE_DIGESTS), ids=repr)
def test_regime_probe_table_matches_golden_digest(tmp_path, args):
    repo = Path(__file__).resolve().parents[1]
    src = str(Path(cask.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(repo / "scripts" / "regime_probe.py"), *args],
        cwd=tmp_path, env=env, capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(proc.stdout).hexdigest() \
        == REGIME_PROBE_DIGESTS[args]
