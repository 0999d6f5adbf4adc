"""Command-line surface: gen-witness, replay, bridge, sweep, report.

All inputs come from explicit flags (no environment variables) so every
report can be reproduced from its manifest alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .model import (
    WITNESS_KINDS,
    ModelParams,
    Witness,
    generate_reference,
    init_model,
    make_witness,
    read_witness_manifest,
    write_witness_manifest,
)
from .replay import METHODS, make_policy
from .report import (
    CROSSING_METRICS,
    FORMATS,
    SweepSpec,
    WitnessSpec,
    _run_cell,
    detect_crossings,
    emit_tables,
    load_rows,
    run_sweep,
)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="global model seed")
    p.add_argument("--vocab-size", type=int, default=32)
    p.add_argument("--model-dim", type=int, default=16)
    p.add_argument("--num-layers", type=int, default=1)


def _model_params(args) -> ModelParams:
    return init_model(args.seed, args.vocab_size, args.model_dim,
                      args.num_layers)


def _cell_model(args) -> ModelParams:
    make_policy(args.method, args.budget)  # refuses a bad --budget
    return _model_params(args)


def _witness(args) -> Witness:
    return make_witness(args.kind, args.seed, args.prefix_len,
                        args.decode_len, args.redundancy, args.vocab_size)


def _read_witness(path, vocab_size: int) -> Witness:
    """Read a manifest made at ``vocab_size`` whose prompt is the one its
    recorded parameters rebuild there; sweeps rebuild prompts, so any other
    prompt would silently be replaced.  A manifest that records no vocab
    size gets the prompt check alone."""
    w = read_witness_manifest(path)
    if w.vocab_size is not None and w.vocab_size != vocab_size:
        raise ValueError(
            f"witness manifest {path}: made at vocab size {w.vocab_size}, "
            f"not at --vocab-size {vocab_size}")
    try:
        rebuilt = make_witness(w.kind, w.seed, w.prefix_len, w.decode_len,
                               w.redundancy, vocab_size)
    except ValueError as e:
        raise ValueError(f"witness manifest {path}: {e}") from None
    if rebuilt.prompt != w.prompt:
        raise ValueError(
            f"witness manifest {path}: prompt differs from the {w.kind} "
            f"seed-{w.seed} prompt rebuilt at vocab size {vocab_size}")
    return w


def budget_grid(text: str) -> list[int]:
    """argparse type of a comma-separated budget grid; a part that is not
    an integer is a usage error (exit 2), and the object the grid
    configures checks the budgets."""
    return [int(b) for b in text.split(",")]


def _cmd_gen_witness(args, witness: Witness) -> int:
    path = write_witness_manifest(witness, args.out)
    print(f"wrote witness manifest {path}")
    return 0


def _cmd_cell(args, params: ModelParams) -> int:
    witness = _read_witness(args.witness, args.vocab_size)
    ref = generate_reference(params, list(witness.prompt),
                             witness.decode_len, [args.budget])
    row = _run_cell(args.seed, params, witness, ref, args.method,
                    args.budget)[args.row]
    print(json.dumps(row, indent=2))
    return 0


def _cmd_sweep(args, _params: ModelParams) -> int:
    # main built the model to check the flags; run_sweep builds its own.
    witnesses = [_read_witness(path, args.vocab_size) for path in args.witness]
    try:
        spec = SweepSpec(
            witnesses=[WitnessSpec(w.kind, w.seed, w.prefix_len,
                                   w.decode_len, w.redundancy)
                       for w in witnesses],
            methods=args.methods, budgets=args.budget_grid, out_dir=args.out,
            seed=args.seed, vocab_size=args.vocab_size,
            model_dim=args.model_dim, num_layers=args.num_layers)
    except ValueError as e:  # SweepSpec refuses only what the flags say
        args.usage_error(str(e))
    rows = run_sweep(spec)
    print(f"wrote {len(rows)} rows to {Path(args.out) / 'rows.jsonl'}")
    return 0


def _cmd_report(args, _built: None) -> int:
    rows = load_rows(args.rows)
    written = emit_tables(rows, args.format, args.out)
    crossings = detect_crossings(rows, metric=args.metric)
    crossings_path = Path(args.out) / "crossings.json"
    crossings_path.write_text(
        json.dumps([dataclasses.asdict(c) for c in crossings], indent=2)
        + "\n")
    written.append(crossings_path)
    for path in written:
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cask",
        description="KV-cache consolidation experiments on a toy attention model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-witness", help="write a witness manifest")
    p.add_argument("--kind", choices=WITNESS_KINDS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--prefix-len", type=int, required=True)
    p.add_argument("--decode-len", type=int, required=True)
    p.add_argument("--redundancy", type=float, default=0.0)
    p.add_argument("--vocab-size", type=int, default=32)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_witness, build=_witness)

    for row, name in enumerate(("replay", "bridge")):
        p = sub.add_parser(name, help=f"print the {name} row of one cell")
        p.add_argument("--witness", required=True, help="witness manifest path")
        p.add_argument("--method", choices=METHODS, required=True)
        p.add_argument("--budget", type=int, required=True)
        _add_model_flags(p)
        p.set_defaults(fn=_cmd_cell, build=_cell_model, row=row)

    p = sub.add_parser("sweep", help="run a witness x method x budget grid")
    p.add_argument("--witness", action="append", required=True,
                   help="witness manifest path (repeatable)")
    p.add_argument("--method", action="append", required=True,
                   choices=METHODS, dest="methods")
    p.add_argument("--budget-grid", type=budget_grid, required=True,
                   help="comma-separated increasing budgets, e.g. 32,48,64")
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(fn=_cmd_sweep, build=_model_params, usage_error=p.error)

    p = sub.add_parser("report", help="derive tables from a rows.jsonl stream")
    p.add_argument("--rows", required=True)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--metric", choices=CROSSING_METRICS, default="top1")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_report, build=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's model, policy or witness is built from its flags before
    # any manifest is read or file written, so a flag its constructor
    # rejects is a usage error (exit 2) with the constructor's message.
    built = None
    if args.build is not None:
        try:
            built = args.build(args)
        except ValueError as e:
            parser.error(str(e))
    return args.fn(args, built)


if __name__ == "__main__":
    sys.exit(main())
