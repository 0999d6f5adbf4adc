#!/usr/bin/env python3
"""Benchmark the cask frontier sweep end to end and, traced, layer by layer.

One pass of a workload does what ``scripts/frontier_sweep.py`` does:
``run_sweep`` over the workload's witnesses x methods x budgets, then
``emit_tables`` (csv and markdown) and ``detect_crossings``.  Everything runs
in this one process, single-threaded; set-up is timed in fresh interpreters.

    python3 perfbench/run.py --workload frontier --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats passes for about ``--seconds`` (at least two) and
reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1`` runs one
untraced pass and two traced passes and reports its per-layer metrics.
Every pass is checked: at seed 0 against the rows pinned in ``pins/``
(on the keys the pinned rows carry), at other seeds against the first pass.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins"
OUT = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
# sha256 of the canonical frontier sweep's rows.jsonl (ROADMAP golden digest).
FRONTIER_DIGEST = "163530bdc1ed3e281f730c64f63a4d34c34f7255a5151ea6b54911194b2d0927"
MIN_PASSES = 2
TRACED_PASSES = 2
SETUPS_PER_PASS = 2
SETUP_TIMEOUT_S = 60
# BLAS/OpenMP pools pinned to one thread (<= nproc) before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or BENCHMARK.json)."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cask():
    if not (SRC / "cask" / "__init__.py").is_file():
        raise SetupError(f"no cask sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import cask
    import cask.cli  # noqa: F401  (binds every cask module for the tracer)
    if Path(cask.__file__).resolve().parent != SRC / "cask":
        raise SetupError(f"imported cask from {cask.__file__}, not {SRC}")
    return cask


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


def environment() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "processes": 1,
    }


def time_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    t0 = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline().strip()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        try:
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise SetupError("set-up probe did not exit") from None
    if line != "ready" or code != 0:
        raise SetupError(f"set-up probe failed (exit {code})")
    return elapsed


def run_pass(report, workload, seed: int, out_dir: Path,
             clock_type=None) -> tuple[object, bytes]:
    """One timed sweep plus its tables and crossings; returns (clock, rows)."""
    from speedclock import SpeedClock
    from workloads import sweep_spec
    spec = sweep_spec(report, workload, seed, str(out_dir))
    with (clock_type or SpeedClock)() as clock:
        rows = report.run_sweep(spec)
        report.emit_tables(rows, "csv", out_dir)
        report.emit_tables(rows, "markdown", out_dir)
        report.detect_crossings(rows, metric="top1")
    return clock, (out_dir / "rows.jsonl").read_bytes()


def rows_by_cell(data: bytes) -> dict[tuple, list[dict]]:
    cells: dict[tuple, list[dict]] = {}
    for line in data.splitlines():
        if line.strip():
            row = json.loads(line)
            key = (row.get("witness"), row.get("method"), row.get("budget"))
            cells.setdefault(key, []).append(row)
    return cells


def failed_cells(got: dict, expected: dict) -> int:
    """Expected cells whose rows are missing or differ on an expected key."""
    missing = object()
    failed = 0
    for key, want in expected.items():
        have = got.get(key, [])
        if len(have) != len(want) or any(
                h.get(k, missing) != v
                for h, w in zip(have, want) for k, v in w.items()):
            failed += 1
    return failed


def cask_quality(data: bytes) -> tuple[float, float]:
    """Token-weighted top-1 agreement and mean NLL of the cask replay rows."""
    rows = [r for cell in rows_by_cell(data).values() for r in cell
            if r.get("kind") == "replay" and r.get("method") == "cask"]
    tokens = sum(r["T"] for r in rows)
    if not tokens:
        return 0.0, 0.0
    top1 = sum(r["top1_matches"] for r in rows) / tokens
    nll = sum(r["mean_nll"] * r["T"] for r in rows) / tokens
    return top1, nll


class Checker:
    """Counts attempted and failed cells of every pass of one run."""

    def __init__(self, workload, seed: int):
        self.cells = workload.cells
        pin = (PINS / f"{workload.name}.jsonl").read_bytes()
        self.pin_sha = hashlib.sha256(pin).hexdigest()
        if workload.name == "frontier" and self.pin_sha != FRONTIER_DIGEST:
            raise SetupError(f"pins/frontier.jsonl hashes to {self.pin_sha}, "
                             f"not the golden digest {FRONTIER_DIGEST}")
        self.pinned = rows_by_cell(pin) if seed == DEFAULT_SEED else None
        self.first: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.sha_matches: list[bool] = []

    def check(self, data: bytes) -> None:
        self.attempted += self.cells
        if self.pinned is not None:
            self.failed += failed_cells(rows_by_cell(data), self.pinned)
            self.sha_matches.append(
                hashlib.sha256(data).hexdigest() == self.pin_sha)
        elif self.first is not None:
            self.failed += failed_cells(rows_by_cell(data),
                                        rows_by_cell(self.first))
        if self.first is None:
            self.first = data

    def crashed(self) -> None:
        self.attempted += self.cells
        self.failed += self.cells


def max_rss_mb() -> float:
    """Peak resident set of this process so far (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(cask, workload, seed: int, seconds: float, checker: Checker,
               out_dir: Path) -> tuple[dict, dict]:
    """Passes until the next one would end after ``seconds`` (at least two).

    Set-ups are timed between passes, so that their median spans the run
    rather than one moment of the machine's drifting speed.  The first
    set-up compiles bytecode and is dropped.
    """
    time_setup(workload.name, seed)
    setups = [time_setup(workload.name, seed) for _ in range(SETUPS_PER_PASS)]
    rss_before_mb = max_rss_mb()
    clocks = []
    start = perf_counter()
    while True:
        try:
            clock, data = run_pass(cask.report, workload, seed, out_dir)
        except Exception:
            traceback.print_exc()
            checker.crashed()
            break
        checker.check(data)
        clocks.append(clock)
        setups += [time_setup(workload.name, seed)
                   for _ in range(SETUPS_PER_PASS)]
        elapsed = perf_counter() - start
        if (len(clocks) >= MIN_PASSES and elapsed
                + statistics.median(c.raw_s for c in clocks) > seconds):
            break
    info = {"passes": len(clocks), "setup_s": setups,
            "rss_before_passes_mb": rss_before_mb,
            "wall_raw_s": [c.raw_s for c in clocks],
            "wall_s": [c.reference_s for c in clocks],
            "tokens_per_pass": workload.tokens}
    if not clocks:
        return {}, info
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(info["wall_s"]),
        "tokens_per_s": statistics.median(
            workload.tokens / w for w in info["wall_s"]),
        "peak_rss_mb": max_rss_mb(),
    }
    return metrics, info


def per_layer(cask, workload, seed: int, checker: Checker,
              out_dir: Path) -> tuple[dict, dict]:
    import tracer as tr
    from speedclock import PlainClock
    missing = tr.missing_functions(cask)
    if missing:
        raise SetupError(f"traced functions not found: {missing}")
    failed = {"traced_rows_identical": False, "counts_repeat": False}
    try:
        plain_clock, plain = run_pass(cask.report, workload, seed, out_dir,
                                      PlainClock)
    except Exception:
        traceback.print_exc()
        checker.crashed()
        return {}, failed
    checker.check(plain)
    traced_walls, counts = [], []
    identical = True
    for i in range(TRACED_PASSES):
        with tr.Tracer(cask) as tracer:
            try:
                clock, data = run_pass(cask.report, workload, seed, out_dir,
                                       PlainClock)
            except Exception:
                traceback.print_exc()
                checker.crashed()
                return {}, failed
        checker.check(data)
        identical = identical and data == plain
        traced_walls.append(clock.raw_s)
        counts.append(tr.count_metrics(tracer))
        if i == 0:
            timings = tr.timing_metrics(tracer)
            spans = tracer.write_spans(out_dir / "spans.tsv")
    top1, nll = cask_quality(plain)
    metrics = {**counts[0], **timings,
               "trace.overhead_ratio":
                   statistics.median(traced_walls) / plain_clock.raw_s - 1.0,
               "replay.cask_top1": top1, "replay.cask_mean_nll": nll}
    info = {"untraced_wall_raw_s": plain_clock.raw_s,
            "traced_wall_raw_s": traced_walls,
            "traced_rows_identical": identical,
            "counts_repeat": all(c == counts[0] for c in counts[1:]),
            "spans": spans, "spans_file": str(out_dir / "spans.tsv")}
    return metrics, info


def select(metrics: dict, declared: list[dict]) -> dict:
    """The declared metrics, in order, with their units."""
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SetupError(f"metrics not computed: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared}


def main() -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="first witness seed of the workload")
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measuring time of a --trace 0 run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]
    pin_threads()
    try:
        spec = load_spec()
        cask = import_cask()
        out_dir = OUT / workload.name
        out_dir.mkdir(parents=True, exist_ok=True)
        checker = Checker(workload, args.seed)
        if args.trace:
            metrics, info = per_layer(cask, workload, args.seed, checker,
                                      out_dir)
            declared = spec["per_layer"]
            correct = (checker.failed == 0 and bool(metrics)
                       and info["traced_rows_identical"]
                       and info["counts_repeat"])
        else:
            metrics, info = end_to_end(cask, workload, args.seed,
                                       args.seconds, checker, out_dir)
            declared = spec["end_to_end"]
            correct = checker.failed == 0 and bool(metrics)
        if not metrics:
            metrics = dict.fromkeys((m["name"] for m in declared), 0.0)
        result = {"correct": correct, "attempted": checker.attempted,
                  "failed": checker.failed,
                  "metrics": select(metrics, declared)}
    except (SetupError, OSError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "environment": environment(),
              "cells_per_pass": workload.cells,
              "failed_ratio": checker.failed / checker.attempted,
              "sha256_match": checker.sha_matches or None,
              **info, "result": result}
    (out_dir / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
