import sys
from pathlib import Path

import cask
import cask.cli  # noqa: F401  (binds every cask module, as perfbench does)
from cask.model import decode, generate_reference, init_model
from cask.replay import make_policy
from cask.report import SweepSpec, WitnessSpec, run_sweep

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402


def test_every_traced_function_exists():
    # A renamed or removed function would make a traced benchmark run exit 2.
    assert tracer.missing_functions(cask) == []


def test_traced_fires_equal_row_decode_events(tmp_path):
    # Every fired consolidation the tracer sees is recorded on its run's
    # cache, and every recorded one was returned.  A cell's bridge run
    # shares its replay's steps up to the first mismatch, and the fires of
    # those steps happen once: the rows' decode_events add up to the traced
    # fire count less each bridge row's fires from before its fork.
    spec = SweepSpec(
        witnesses=[WitnessSpec("prompt-heavy-decode-active", s, 24, 64, 0.7)
                   for s in range(2)],
        methods=["cask", "evict", "none"], budgets=[24, 48],
        out_dir=str(tmp_path), seed=0)
    with tracer.Tracer(cask) as traced:
        rows = run_sweep(spec)
    fired = traced.counters["compress_fired"]
    assert fired > 0

    params = init_model(spec.seed, spec.vocab_size, spec.model_dim,
                        spec.num_layers)
    shared = 0
    for wspec in spec.witnesses:
        witness = wspec.materialize(spec.vocab_size)
        ref = generate_reference(params, list(witness.prompt),
                                 witness.decode_len)
        for r in rows:
            if r["witness"] != witness.name or r["kind"] != "replay":
                continue
            steps = (witness.decode_len if r["first_mismatch"] is None
                     else r["first_mismatch"] - 1)
            before_fork = decode(params, ref.snapshot, steps,
                                 make_policy(r["method"], r["budget"]),
                                 forced=ref.tokens)
            shared += len(before_fork.cache.compression_events)
    assert shared > 0
    assert fired == sum(r["decode_events"] for r in rows) - shared


def test_every_fed_token_takes_one_step_one_mass_add_and_one_append(
        tmp_path):
    # A step path that bypassed the timed functions would read as a
    # speedup.  Fed tokens, counted from the spec and the rows: each
    # reference prefills its prompt and decodes T steps, each cell but
    # `none` (the reference itself) replays T steps, and its bridge run
    # decodes the T - t steps after its fork at step t.
    spec = SweepSpec(
        witnesses=[WitnessSpec(kind, 1, 16, 24, 0.7) for kind in
                   ("prompt-heavy-decode-active", "short-prompt-reasoning")],
        methods=["cask", "evict", "none"], budgets=[12, 24],
        out_dir=str(tmp_path), seed=0)
    with tracer.Tracer(cask) as traced:
        rows = run_sweep(spec)
    calls = dict(zip(traced.names, traced.calls))

    fed = 0
    for wspec in spec.witnesses:
        witness = wspec.materialize(spec.vocab_size)
        T = witness.decode_len
        fed += len(witness.prompt) + T
        for r in rows:
            if (r["witness"] == witness.name and r["kind"] == "replay"
                    and r["method"] != "none"):
                mismatch = r["first_mismatch"]
                fed += T + (0 if mismatch is None else T - (mismatch - 1))
    assert fed > 0
    assert calls["model.forward_step"] == fed
    assert calls["model.accumulate_mass"] == fed
    assert calls["cache.append"] == fed
