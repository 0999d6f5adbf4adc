"""One set-up of the benchmark, in a fresh interpreter.

Imports ``cask`` (``cask.cli`` included), builds the model and the sweep spec
of one workload, prints ``ready`` and exits.  ``run.py`` times it from spawn
to that line, which gives the set-up time from process start.

Usage: python3 perfbench/setup_probe.py --workload frontier --seed 0
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import cask.cli  # noqa: F401  (the CLI layer is part of set-up)
    from cask import model, report
    from workloads import MODEL_DIM, MODEL_SEED, VOCAB_SIZE, WORKLOADS, sweep_spec

    workload = WORKLOADS[args.workload]
    model.init_model(MODEL_SEED, VOCAB_SIZE, MODEL_DIM, workload.num_layers)
    sweep_spec(report, workload, args.seed, str(ROOT / ".perfbench_out"))
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
