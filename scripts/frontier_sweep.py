#!/usr/bin/env python3
"""Run the seeded frontier experiment and print the same-budget summary.

Sweeps consolidation vs eviction over a grid of budgets on redundant
decode-active witnesses, emits the report tables, and lists every budget
crossing found on top-1 agreement.

Usage:
    python3 scripts/frontier_sweep.py --out out/frontier
    python3 scripts/frontier_sweep.py --seeds 10 --budget-grid 24,32,48
"""

import argparse
from pathlib import Path

from cask.cache import at_least
from cask.cli import budget_grid
from cask.model import init_model
from cask.report import SweepSpec, WitnessSpec, detect_crossings, emit_tables, run_sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/frontier")
    ap.add_argument("--seeds", type=int, default=10,
                    help="number of seeded witnesses")
    ap.add_argument("--budget-grid", type=budget_grid, default="24,32,48")
    ap.add_argument("--seed", type=int, default=0, help="model seed")
    ap.add_argument("--prefix-len", type=int, default=24)
    ap.add_argument("--decode-len", type=int, default=64)
    ap.add_argument("--redundancy", type=float, default=0.7)
    args = ap.parse_args()

    try:  # what SweepSpec, init_model or make_witness refuse is a usage error
        at_least("seeds", args.seeds, 1)
        spec = SweepSpec(
            witnesses=[WitnessSpec("prompt-heavy-decode-active", s,
                                   args.prefix_len, args.decode_len,
                                   args.redundancy)
                       for s in range(args.seeds)],
            methods=["cask", "evict", "none"],
            budgets=args.budget_grid,
            out_dir=args.out,
            seed=args.seed,
        )
        init_model(spec.seed, spec.vocab_size, spec.model_dim,
                   spec.num_layers)
        for w in spec.witnesses:
            w.materialize(spec.vocab_size)
    except ValueError as e:
        ap.error(str(e))
    rows = run_sweep(spec)
    emit_tables(rows, "csv", args.out)
    emit_tables(rows, "markdown", args.out)

    print((Path(args.out) / "same_budget.md").read_text())
    crossings = detect_crossings(rows, metric="top1")
    if crossings:
        print("budget crossings on top1:")
        for c in crossings:
            print(f"  {c.witness}: {c.lower_method}@{c.lower_budget} beats "
                  f"{c.higher_method}@{c.higher_budget} by {c.margin:.3f}")
    else:
        print("no budget crossings found")
    print(f"\nrows and tables written under {args.out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
