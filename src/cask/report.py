"""Budget-grid sweeps, frontier crossing detection, and report tables.

The canonical record is a single JSON-lines stream of replay and bridge
rows; CSV/markdown tables (fidelity, weighted aggregate, same-budget
summary, measured-count audits) are derived views of it.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .bridge import sem_sim, seq_ratio, task_metric
from .cache import at_least, covered_positions, terminal_saved_ratio
from .model import (
    Witness,
    decode,
    generate_reference,
    greedy_branch,
    init_model,
    make_witness,
)
from .policies import CaskConfig, mass_diagnostics
from .replay import (
    METHOD_CASK,
    METHOD_EVICT,
    METHODS,
    ReplayRecord,
    make_policy,
    replay_record,
    summarize,
)
from .twostage import StageConfig, finalize_flags

ROW_FIELDS = (
    "kind", "witness", "regime_label", "method", "budget", "top1", "top5",
    "mean_nll", "first_mismatch", "saved_ratio", "decode_events",
    "prefix_budget_exhausted", "merge_inactive", "rho_core", "rho_rep",
    "seq_ratio", "sem_sim", "task_metric", "T", "top1_matches",
    "top5_matches", "seed",
)


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
    is the reference itself (bit for bit, acceptance c01), so it is not
    rerun.  perfbench's tracer labels cells by binding these parameter
    names."""
    policy = make_policy(method, budget)
    if policy.budget is None:
        run = ref
    else:
        run = decode(params, ref.snapshot, witness.decode_len, policy,
                     forced=ref.tokens, trunk=ref)
    return [replay_row(seed, witness, ref, method, budget,
                       replay_record(run)),
            bridge_row(seed, witness, ref, method, budget,
                       *greedy_branch(params, run, policy))]


def _cell_row(kind: str, seed: int, witness: Witness, method: str,
              budget: int, cache) -> dict:
    """A ``ROW_FIELDS`` row of kind ``kind`` holding what both kinds read:
    the cell, and the regime of the run's terminal ``cache``."""
    flags = finalize_flags(cache)
    row = dict.fromkeys(ROW_FIELDS)
    row.update({
        "kind": kind,
        "witness": witness.name,
        "regime_label": flags.regime_label,
        "method": method,
        "budget": budget,
        "decode_events": flags.decode_events,
        "prefix_budget_exhausted": flags.prefix_budget_exhausted,
        "merge_inactive": flags.merge_inactive,
        "seed": seed,
    })
    return row


def replay_row(seed: int, witness: Witness, ref, method: str,
               budget: int, record: ReplayRecord) -> dict:
    """Model ``seed``'s teacher-forced replay ``record`` of ``ref`` in one
    (method, budget) cell, as one ``ROW_FIELDS`` row of kind ``replay``:
    the fields of its ``FidelitySummary`` and ``MassDiagnostics``."""
    cache = record.cache
    core = set(cache.position[cache.protected].tolist())
    row = _cell_row("replay", seed, witness, method, budget, cache)
    row.update(vars(summarize(record)))
    row.update(vars(mass_diagnostics(core, covered_positions(cache),
                                     ref.oracle_scores, k=budget)))
    return row


def bridge_row(seed: int, witness: Witness, ref, method: str,
               budget: int, candidate: list[int], cache) -> dict:
    """The free greedy run of one (method, budget) cell, its emitted
    ``candidate`` tokens and terminal ``cache``, scored against ``ref``
    (the witness's ``decode_len``-token reference), as one ``ROW_FIELDS``
    row of kind ``bridge``."""
    row = _cell_row("bridge", seed, witness, method, budget, cache)
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


def detect_crossings(rows: list[dict], metric: str = "top1") -> list[CrossingFinding]:
    """Find every (witness, b_low < b_high) pair where the consolidation
    policy at the lower budget strictly beats eviction at the higher one."""
    if metric not in ("top1", "top5", "mean_nll"):
        raise ValueError(f"unsupported crossing metric {metric!r}")
    lower_is_better = metric == "mean_nll"
    by_witness: dict[str, dict[tuple[str, int], float]] = {}
    for row in rows:
        if row.get("kind") != "replay" or row.get(metric) is None:
            continue
        if row["method"] not in (METHOD_CASK, METHOD_EVICT):
            continue
        by_witness.setdefault(row["witness"], {})[
            (row["method"], row["budget"])] = row[metric]
    findings: list[CrossingFinding] = []
    for witness in sorted(by_witness):
        cells = by_witness[witness]
        cask_budgets = sorted(b for m, b in cells if m == METHOD_CASK)
        evict_budgets = sorted(b for m, b in cells if m == METHOD_EVICT)
        for b_low in cask_budgets:
            for b_high in evict_budgets:
                if b_low >= b_high:
                    continue
                cask_val = cells[(METHOD_CASK, b_low)]
                evict_val = cells[(METHOD_EVICT, b_high)]
                margin = (evict_val - cask_val) if lower_is_better \
                    else (cask_val - evict_val)
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


def _paired(rows: list[dict]) -> dict[tuple[str, int], dict[str, dict]]:
    pairs: dict[tuple[str, int], dict[str, dict]] = {}
    for r in _replay_rows(rows):
        if r["method"] in (METHOD_CASK, METHOD_EVICT):
            pairs.setdefault((r["witness"], r["budget"]), {})[r["method"]] = r
    return {k: v for k, v in pairs.items()
            if METHOD_CASK in v and METHOD_EVICT in v}


def _build_same_budget(rows: list[dict]) -> tuple[list[str], list[list[str]]]:
    header = ["witness", "budget", "evict_top1_pct", "cask_top1_pct",
              "delta_top1_pp", "evict_mean_nll", "cask_mean_nll",
              "delta_nll", "decode_events"]
    body = []
    for (witness, budget), pair in sorted(_paired(rows).items()):
        ev, ck = pair[METHOD_EVICT], pair[METHOD_CASK]
        body.append([
            witness, str(budget), _pct(ev["top1"]), _pct(ck["top1"]),
            f"{100.0 * (ck['top1'] - ev['top1']):+.1f}",
            _nll(ev["mean_nll"]), _nll(ck["mean_nll"]),
            f"{ck['mean_nll'] - ev['mean_nll']:+.3f}",
            str(ck["decode_events"]),
        ])
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
    body = []
    for (witness, budget), pair in sorted(_paired(rows).items()):
        ev, ck = pair[METHOD_EVICT], pair[METHOD_CASK]
        body.append([witness, str(budget), str(ev["T"]),
                     str(ev["top1_matches"]), str(ck["top1_matches"]),
                     str(ev["top5_matches"]), str(ck["top5_matches"]),
                     _fm(ev["first_mismatch"]), _fm(ck["first_mismatch"])])
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
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows
