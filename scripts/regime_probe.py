#!/usr/bin/env python3
"""Probe the regime guard across budgets on contrasting witnesses.

Shows how the same policy lands in decode-active, prefix-dominant, or
boundary regimes as the budget and prompt geometry change.

Usage:
    python3 scripts/regime_probe.py
    python3 scripts/regime_probe.py --budgets 24,40,64,96
"""

import argparse

from cask.cli import budget_grid
from cask.model import generate_reference, init_model, make_witness
from cask.policies import CaskConfig
from cask.replay import CaskPolicy, summarize, teacher_forced_replay
from cask.twostage import StageConfig, finalize_flags

PROBES = (
    ("prompt-heavy-prefix-dominant", dict(prefix_len=96, decode_len=12,
                                          redundancy=0.2)),
    ("prompt-heavy-decode-active", dict(prefix_len=16, decode_len=64,
                                        redundancy=0.8)),
    ("short-prompt-reasoning", dict(prefix_len=12, decode_len=24,
                                    redundancy=0.4)),
)


def prefix_fraction(text: str) -> float:
    """argparse type of ``--prefix-fraction``: a fraction in (0, 1]."""
    try:
        fraction = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"prefix fraction {text!r} is not a number") from None
    if not 0.0 < fraction <= 1.0:
        raise argparse.ArgumentTypeError(
            f"prefix fraction {fraction} must be in (0, 1]")
    return fraction


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budgets", type=budget_grid, default="24,40,64,96")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--prefix-fraction", type=prefix_fraction, default=0.75)
    args = ap.parse_args()

    params = init_model(args.seed, 32, 16, 1)
    header = (f"{'witness':<34} {'budget':>6} {'top1':>6} {'events':>6} "
              f"{'exhausted':>9} {'regime':>16}")
    print(header)
    print("-" * len(header))
    for kind, geometry in PROBES:
        witness = make_witness(kind, args.seed, **geometry)
        ref = generate_reference(params, list(witness.prompt),
                                 witness.decode_len)
        for budget in args.budgets:
            stage = StageConfig(budget=budget,
                                prefix_fraction=args.prefix_fraction)
            policy = CaskPolicy(budget, CaskConfig(), stage)
            record = teacher_forced_replay(params, list(witness.prompt),
                                           ref.tokens, policy,
                                           snapshot=ref.snapshot)
            flags = finalize_flags(record.cache, stage)
            s = summarize(record)
            print(f"{witness.name:<34} {budget:>6} {s.top1:>6.3f} "
                  f"{flags.decode_events:>6} "
                  f"{str(flags.prefix_budget_exhausted):>9} "
                  f"{flags.regime_label:>16}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
