#!/usr/bin/env python3
"""Print the sha256 of one benchmark workload's ``rows.jsonl``.

Builds the sweep of ``--workload`` at witness seed ``--seed`` exactly as
``perfbench/workloads.py`` declares it (that file is only read), runs it
into a temporary directory, and prints the digest of the rows it wrote.
Two source trees that print the same digest for a workload and seed wrote
byte-identical rows for it.

Usage: python3 scripts/rows_digest.py --workload consolidate --seed 7
(with ``src`` on ``PYTHONPATH`` or the package installed)
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import sys
import tempfile
from pathlib import Path

from cask import report

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # The dataclasses there look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def rows_digest(workload: str, seed: int) -> str:
    """sha256 of the rows one pass of ``workload`` at ``seed`` writes."""
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as out_dir:
        report.run_sweep(workloads.sweep_spec(
            report, workloads.WORKLOADS[workload], seed, out_dir))
        rows = (Path(out_dir) / "rows.jsonl").read_bytes()
    return hashlib.sha256(rows).hexdigest()


def main() -> int:
    names = sorted(load_workloads().WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True,
                    help="first witness seed")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"seed must be >= 0, got {args.seed}")
    print(rows_digest(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
