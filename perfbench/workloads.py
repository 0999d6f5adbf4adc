"""The four benchmark workloads: sweep specs built from a witness seed.

Every workload uses model seed 0, V=32, d=16 and the methods/budgets below.
Witness seeds start at the benchmark's ``--seed`` and count up, so the same
seed always gives the same prompts.  Imports only the standard library: the
sweep spec is built by :func:`sweep_spec` once ``cask.report`` is loaded.
"""

from __future__ import annotations

from dataclasses import dataclass

MODEL_SEED = 0
VOCAB_SIZE = 32
MODEL_DIM = 16


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    witnesses: int
    prefix_len: int
    decode_len: int
    redundancy: float
    num_layers: int
    methods: tuple[str, ...]
    budgets: tuple[int, ...]

    @property
    def cells(self) -> int:
        """Sweep cells per pass (each yields one replay and one bridge row)."""
        return self.witnesses * len(self.methods) * len(self.budgets)

    @property
    def tokens(self) -> int:
        """Tokens pushed through ``forward_step`` in one pass.

        The reference feeds the prompt (start token + P) and T decode tokens
        once per witness; every cell does the same twice (replay and bridge).
        """
        per_run = self.prefix_len + 1 + self.decode_len
        return self.witnesses * per_run + 2 * per_run * self.cells


WORKLOADS = {w.name: w for w in (
    Workload(
        name="frontier",
        kind="prompt-heavy-decode-active", witnesses=10,
        prefix_len=24, decode_len=64, redundancy=0.7, num_layers=1,
        methods=("cask", "evict", "none"), budgets=(24, 32, 48)),
    Workload(
        name="long-decode",
        kind="prompt-heavy-decode-active", witnesses=1,
        prefix_len=128, decode_len=512, redundancy=0.7, num_layers=4,
        methods=("cask", "evict", "none"), budgets=(64,)),
    Workload(
        name="prefix-heavy",
        kind="prompt-heavy-prefix-dominant", witnesses=2,
        prefix_len=512, decode_len=16, redundancy=0.2, num_layers=1,
        methods=("cask", "evict", "none"), budgets=(64, 128)),
    Workload(
        name="consolidate",
        kind="prompt-heavy-decode-active", witnesses=12,
        prefix_len=32, decode_len=256, redundancy=0.8, num_layers=1,
        methods=("cask",), budgets=(32, 64)),
)}


def sweep_spec(report, workload: Workload, seed: int, out_dir: str):
    """The ``SweepSpec`` of one pass; ``report`` is the ``cask.report`` module."""
    return report.SweepSpec(
        witnesses=[report.WitnessSpec(workload.kind, seed + i,
                                      workload.prefix_len,
                                      workload.decode_len,
                                      workload.redundancy)
                   for i in range(workload.witnesses)],
        methods=list(workload.methods),
        budgets=list(workload.budgets),
        out_dir=out_dir,
        seed=MODEL_SEED,
        vocab_size=VOCAB_SIZE,
        model_dim=MODEL_DIM,
        num_layers=workload.num_layers,
    )
