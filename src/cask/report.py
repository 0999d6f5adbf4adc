"""Budget-grid sweeps, frontier crossing detection, and report tables.

The canonical record is a single JSON-lines stream of replay and bridge
rows; CSV/markdown tables (fidelity, weighted aggregate, same-budget
summary, measured-count audits) are derived views of it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import get_type_hints

from .bridge import sem_sim, seq_ratio, task_metric
from .cache import at_least, terminal_saved_ratio
from .model import (
    Witness,
    check_json_types,
    decode,
    generate_reference,
    greedy_branch,
    init_model,
    json_object,
    make_witness,
)
from .policies import CaskConfig, MassDiagnostics, mass_diagnostics
from .replay import (
    METHOD_CASK,
    METHOD_EVICT,
    METHODS,
    FidelitySummary,
    ReplayRecord,
    make_policy,
    replay_record,
    summarize,
)
from .twostage import StageConfig, finalize_flags

ROW_FIELDS = ("kind", "witness", "regime_label", "method", "budget", "top1",
              "top5", "mean_nll", "first_mismatch", "saved_ratio",
              "decode_events", "prefix_budget_exhausted", "merge_inactive",
              "rho_core", "rho_rep", "seq_ratio", "sem_sim", "task_metric",
              "T", "top1_matches", "top5_matches", "seed")
# The annotation of each field a row of each kind writes (the cell's, then
# FidelitySummary and MassDiagnostics or the bridge scores); others are null.
_CELL_TYPES = dict(kind=str, witness=str, regime_label=str, method=str,
                   budget=int, seed=int, decode_events=int,
                   prefix_budget_exhausted=bool, merge_inactive=bool)
_ROW_TYPES = {"replay": {**_CELL_TYPES, **get_type_hints(FidelitySummary),
                         **get_type_hints(MassDiagnostics)},
              "bridge": dict(_CELL_TYPES, saved_ratio=float, seq_ratio=float,
                             sem_sim=float, task_metric=float, T=int)}


@dataclass
class WitnessSpec:
    kind: str
    seed: int
    prefix_len: int
    decode_len: int
    redundancy: float

    def materialize(self, vocab_size: int) -> Witness:
        return make_witness(self.kind, self.seed, self.prefix_len,
                            self.decode_len, self.redundancy, vocab_size)


@dataclass
class SweepSpec:
    witnesses: list[WitnessSpec]
    methods: list[str]
    budgets: list[int]
    out_dir: str
    seed: int = 0
    vocab_size: int = 32
    model_dim: int = 16
    num_layers: int = 1

    def __post_init__(self):
        if not self.witnesses or not self.methods or not self.budgets:
            raise ValueError("witnesses, methods, budgets must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        # Rows key on Witness.name, which is made of the kind and seed alone.
        keys = [(w.kind, w.seed) for w in self.witnesses]
        for what, items in (("witness", keys), ("method", self.methods)):
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"{what} {item!r} listed twice")
        for b in self.budgets:
            at_least("budgets", b, 1)
        if any(b2 <= b1 for b1, b2 in zip(self.budgets, self.budgets[1:])):
            raise ValueError("budget grid must be strictly increasing")

    def to_manifest(self) -> dict:
        """The spec plus the policy defaults every cell runs with."""
        stage = dataclasses.asdict(StageConfig(budget=1))
        del stage["budget"]
        return {**dataclasses.asdict(self),
                "cask": dataclasses.asdict(CaskConfig()), **stage}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Run every (witness, method, budget) cell and stream rows to disk.

    Each witness is prefilled once, by its reference run; every cell forks that
    prefill (or the reference where its budget is first exceeded), and its
    bridge run forks its replay at the first mismatch.  Emits one replay row
    and one bridge row per cell into ``<out_dir>/rows.jsonl`` plus a provenance
    manifest; fully reproducible from the sweep spec and its seed.  The model
    and the witnesses are built first, so a spec they reject writes nothing.
    """
    params = init_model(spec.seed, spec.vocab_size, spec.model_dim,
                        spec.num_layers)
    witnesses = [w.materialize(spec.vocab_size) for w in spec.witnesses]
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(spec.to_manifest(), indent=2, sort_keys=True) + "\n")
    rows: list[dict] = []
    with open(out_dir / "rows.jsonl", "w") as stream:
        for witness in witnesses:
            ref = generate_reference(params, list(witness.prompt),
                                     witness.decode_len, spec.budgets)
            for method in spec.methods:
                for budget in spec.budgets:
                    for row in _run_cell(spec.seed, params, witness, ref,
                                         method, budget):
                        rows.append(row)
                        stream.write(json.dumps(row) + "\n")
    return rows


def _run_cell(seed: int, params, witness: Witness, ref, method: str,
              budget: int) -> list[dict]:
    """One sweep cell of model ``seed``: its replay row, then its bridge row,
    both from one decode tree.  The teacher-forced replay of ``ref`` forks
    ``ref``'s prefill or later cache (``model.decode``'s ``trunk``); the
    free greedy run forks the replay at its first mismatch
    (``model.greedy_branch``).  A cell whose policy has no budget (``none``)
    starts on a fork of ``ref``'s terminal cache and runs no step.
    perfbench's tracer labels cells by binding these parameter names."""
    cell = {"witness": witness.name, "method": method, "budget": budget,
            "seed": seed}
    policy = make_policy(method, budget)
    run = decode(params, ref.snapshot, witness.decode_len, policy,
                 forced=ref.tokens, trunk=ref)
    return [replay_row(cell, ref, replay_record(run)),
            bridge_row(cell, ref, *greedy_branch(params, run, policy))]


def _cell_row(kind: str, cell: dict, cache) -> dict:
    """A ``ROW_FIELDS`` row of kind ``kind`` holding what both kinds read:
    the ``cell`` (its witness name, method, budget and model seed), and the
    regime of the run's terminal ``cache``."""
    flags = finalize_flags(cache)
    row = dict.fromkeys(ROW_FIELDS)
    row.update(cell, kind=kind, regime_label=flags.regime_label,
               decode_events=flags.decode_events,
               prefix_budget_exhausted=flags.prefix_budget_exhausted,
               merge_inactive=flags.merge_inactive)
    return row


def replay_row(cell: dict, ref, record: ReplayRecord) -> dict:
    """The teacher-forced replay ``record`` of ``ref`` in one sweep
    ``cell``, as one ``ROW_FIELDS`` row of kind ``replay``: the fields of
    its ``FidelitySummary`` and ``MassDiagnostics``."""
    row = _cell_row("replay", cell, record.cache)
    row.update(vars(summarize(record)))
    row.update(vars(mass_diagnostics(record.cache, ref.cache,
                                     k=cell["budget"])))
    return row


def bridge_row(cell: dict, ref, candidate: list[int], cache) -> dict:
    """The free greedy run of one sweep ``cell``, its emitted ``candidate``
    tokens and terminal ``cache``, scored against ``ref`` (the witness's
    ``decode_len``-token reference), as one ``ROW_FIELDS`` row of kind
    ``bridge``."""
    row = _cell_row("bridge", cell, cache)
    row.update({
        "saved_ratio": terminal_saved_ratio(cache),
        "seq_ratio": seq_ratio(candidate, ref.tokens),
        "sem_sim": sem_sim(candidate, ref.tokens),
        "task_metric": task_metric(candidate, ref.tokens),
        "T": len(candidate),
    })
    return row


@dataclass
class CrossingFinding:
    """A lower-budget consolidation point beating a higher-budget eviction
    point on a fidelity metric."""

    witness: str
    lower_method: str
    lower_budget: int
    higher_method: str
    higher_budget: int
    metric: str
    margin: float

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.lower_budget >= self.higher_budget:
            raise ValueError("lower budget must be below higher budget")


CROSSING_METRICS = ("top1", "top5", "mean_nll")


def _compared(rows: list[dict]) -> dict[str, dict[str, dict[int, dict]]]:
    """The cask and evict replay rows by witness, method and budget, the
    same-budget tables' and the crossings' one index.  Witnesses and budgets
    run in ascending order; a repeated cell keeps its last row."""
    index: dict[str, dict[str, dict[int, dict]]] = {}
    for r in sorted(_replay_rows(rows), key=itemgetter("witness", "budget")):
        if r["method"] in (METHOD_CASK, METHOD_EVICT):
            runs = index.setdefault(r["witness"],
                                    {METHOD_CASK: {}, METHOD_EVICT: {}})
            runs[r["method"]][r["budget"]] = r
    return index


def detect_crossings(rows: list[dict], metric: str = "top1") -> list[CrossingFinding]:
    """Find every (witness, b_low < b_high) pair where the consolidation
    policy at the lower budget strictly beats eviction at the higher one."""
    if metric not in CROSSING_METRICS:
        raise ValueError(f"unsupported crossing metric {metric!r}")
    lower_is_better = metric == "mean_nll"
    findings: list[CrossingFinding] = []
    for witness, runs in _compared(rows).items():
        for b_low, ck in runs[METHOD_CASK].items():
            for b_high, ev in runs[METHOD_EVICT].items():
                if b_low >= b_high:
                    continue
                margin = (ev[metric] - ck[metric]) if lower_is_better \
                    else (ck[metric] - ev[metric])
                if margin > 0:
                    findings.append(CrossingFinding(
                        witness=witness, lower_method=METHOD_CASK,
                        lower_budget=b_low, higher_method=METHOD_EVICT,
                        higher_budget=b_high, metric=metric, margin=margin))
    return findings


def _pct(x: float | None) -> str:
    return "" if x is None else f"{100.0 * x:.1f}"


def _nll(x: float | None) -> str:
    return "" if x is None else f"{x:.3f}"


def _fm(x) -> str:
    return "-" if x is None else str(x)


def _replay_rows(rows: list[dict]) -> list[dict]:
    return [r for r in rows if r.get("kind") == "replay"]


def _build_fidelity(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["witness", "regime_label", "method", "budget", "top1_pct",
              "top5_pct", "mean_nll", "first_mismatch", "saved_ratio_pct"]
    body = [[r["witness"], r["regime_label"], r["method"], str(r["budget"]),
             _pct(r["top1"]), _pct(r["top5"]), _nll(r["mean_nll"]),
             _fm(r["first_mismatch"]), _pct(r["saved_ratio"])]
            for r in _replay_rows(rows)]
    return header, body


def _aggregate_cells(rows: list[dict]) -> dict[tuple[str, int], dict]:
    cells: dict[tuple[str, int], dict] = {}
    for r in _replay_rows(rows):
        cell = cells.setdefault((r["method"], r["budget"]), {
            "top1_matches": 0, "top5_matches": 0, "tokens": 0,
            "nll_weighted": 0.0, "first_mismatches": [],
        })
        cell["top1_matches"] += r["top1_matches"]
        cell["top5_matches"] += r["top5_matches"]
        cell["tokens"] += r["T"]
        cell["nll_weighted"] += r["mean_nll"] * r["T"]
        if r["first_mismatch"] is not None:
            cell["first_mismatches"].append(r["first_mismatch"])
    return cells


def _build_aggregate(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["method", "budget", "weighted_top1_pct", "weighted_top5_pct",
              "weighted_mean_nll", "mean_first_mismatch"]
    body = []
    for (method, budget), c in sorted(_aggregate_cells(rows).items()):
        t = c["tokens"]
        fms = c["first_mismatches"]
        mean_fm = f"{sum(fms) / len(fms):.1f}" if fms else "-"
        body.append([method, str(budget), _pct(c["top1_matches"] / t),
                     _pct(c["top5_matches"] / t),
                     _nll(c["nll_weighted"] / t), mean_fm])
    return header, body


def _build_same_budget(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["witness", "budget", "evict_top1_pct", "cask_top1_pct",
              "delta_top1_pp", "evict_mean_nll", "cask_mean_nll",
              "delta_nll", "decode_events"]
    body = [[witness, str(budget), _pct(ev["top1"]), _pct(ck["top1"]),
             f"{100.0 * (ck['top1'] - ev['top1']):+.1f}",
             _nll(ev["mean_nll"]), _nll(ck["mean_nll"]),
             f"{ck['mean_nll'] - ev['mean_nll']:+.3f}",
             str(ck["decode_events"])]
            for witness, runs in _compared(rows).items()
            for budget, ck in runs[METHOD_CASK].items()
            if (ev := runs[METHOD_EVICT].get(budget)) is not None]
    return header, body


def _build_audit_weighted(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["method", "budget", "top1_matches", "top5_matches",
              "total_replay_tokens", "weighted_mean_nll"]
    body = []
    for (method, budget), c in sorted(_aggregate_cells(rows).items()):
        body.append([method, str(budget), str(c["top1_matches"]),
                     str(c["top5_matches"]), str(c["tokens"]),
                     _nll(c["nll_weighted"] / c["tokens"])])
    return header, body


def _build_audit_same_budget(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["witness", "budget", "output_tokens", "evict_top1_matches",
              "cask_top1_matches", "evict_top5_matches", "cask_top5_matches",
              "evict_first_mismatch", "cask_first_mismatch"]
    body = [[witness, str(budget), str(ev["T"]),
             str(ev["top1_matches"]), str(ck["top1_matches"]),
             str(ev["top5_matches"]), str(ck["top5_matches"]),
             _fm(ev["first_mismatch"]), _fm(ck["first_mismatch"])]
            for witness, runs in _compared(rows).items()
            for budget, ck in runs[METHOD_CASK].items()
            if (ev := runs[METHOD_EVICT].get(budget)) is not None]
    return header, body


_TABLES = {
    "fidelity": _build_fidelity,
    "weighted_aggregate": _build_aggregate,
    "same_budget": _build_same_budget,
    "audit_weighted_counts": _build_audit_weighted,
    "audit_same_budget_counts": _build_audit_same_budget,
}


def _render_csv(header: list[str], body: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in body)
    return "\n".join(lines) + "\n"


def _render_markdown(header: list[str], body: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    lines.extend("| " + " | ".join(row) + " |" for row in body)
    return "\n".join(lines) + "\n"


def _render_json(header: list[str], body: list[list[str]]) -> str:
    return json.dumps([dict(zip(header, row)) for row in body], indent=2) + "\n"


_RENDERERS = {"csv": (_render_csv, "csv"),
              "markdown": (_render_markdown, "md"),
              "json": (_render_json, "json")}
FORMATS = tuple(_RENDERERS)


def emit_tables(rows: list[dict], fmt: str, out_dir: str | Path) -> list[Path]:
    """Write the fidelity, aggregate, same-budget, and audit tables."""
    if not rows:
        raise ValueError("no rows to report")
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown format {fmt!r}")
    render, ext = _RENDERERS[fmt]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for name, build in _TABLES.items():
        header, body = build(rows)
        path = out_dir / f"{name}.{ext}"
        path.write_text(render(header, body))
        written.append(path)
    return written


def load_rows(path: str | Path) -> list[dict]:
    """Read the rows of a ``rows.jsonl`` stream, skipping blank lines.  A
    line that is not a JSON object carrying every ``ROW_FIELDS`` key with a
    value of its type, null where its kind writes null and ``T`` and
    ``budget`` at least 1, or that repeats an earlier row's (kind, witness,
    method, budget) cell, raises ``ValueError`` naming the file and its
    1-based line."""
    rows = []
    cells = set()
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"rows file {path}, line {number}"
            row = json_object(where, line, ROW_FIELDS)
            check_json_types(where, row, {"kind": str})
            written = _ROW_TYPES.get(row["kind"])
            if written is None:
                raise ValueError(f"{where}: 'kind' is {row['kind']!r}, "
                                 "expected 'replay' or 'bridge'")
            check_json_types(where, row, {key: written.get(key, type(None))
                                          for key in ROW_FIELDS})
            for key in ("budget", "T"):
                if row[key] < 1:
                    raise ValueError(f"{where}: {key!r} is {row[key]}, "
                                     "expected an integer >= 1")
            cell = (row["kind"], row["witness"], row["method"], row["budget"])
            if cell in cells:
                raise ValueError(f"{where}: repeats the cell {cell}")
            cells.add(cell)
            rows.append(row)
    return rows
