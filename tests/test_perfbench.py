import sys
from pathlib import Path

import cask
import cask.cli  # noqa: F401  (binds every cask module, as perfbench does)
from cask.report import SweepSpec, WitnessSpec, run_sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_every_traced_function_exists():
    # A renamed or removed function would make a traced benchmark run exit 2.
    assert tracer.missing_functions(cask) == []


def test_traced_fires_equal_row_decode_events(tmp_path):
    # Every fired consolidation the tracer sees is recorded on its run's
    # cache, and every recorded one was returned: the rows' decode_events
    # (replay and bridge runs alike) add up to the traced fire count.
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
                   for s in range(2)],
        methods=["cask", "evict", "none"], budgets=[24, 48],
        out_dir=str(tmp_path), seed=0)
    with tracer.Tracer(cask) as traced:
        rows = run_sweep(spec)
    fired = traced.counters["compress_fired"]
    assert fired > 0
    assert fired == sum(r["decode_events"] for r in rows)
