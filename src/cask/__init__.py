"""Core-aware selective KV-cache consolidation on a deterministic toy model."""

from .cache import (
    CacheState,
    KVEntry,
    append,
    check_invariants,
    covered_positions,
    evict,
    merge_replace,
    terminal_saved_ratio,
)
from .kernels import (
    BandSpectrum,
    HorizonDistribution,
    QPInstance,
    QPSolution,
    band_decompose,
    band_recompose,
    d_kappa,
    kappa,
    rms2_decomposition,
    solve_horizon_qp,
    truncated_geometric,
)
from .model import (
    ModelParams,
    ReferenceRun,
    StepOutput,
    Witness,
    forward_step,
    generate_reference,
    init_model,
    make_witness,
)
from .policies import (
    CaskConfig,
    MassDiagnostics,
    MergeGroup,
    cask_compress,
    detect_core,
    evict_baseline,
    fold_group,
    form_merge_groups,
    mass_diagnostics,
    perturbation_check,
)
from .replay import (
    FidelitySummary,
    ReplayRecord,
    first_mismatch,
    make_policy,
    mean_nll,
    summarize,
    teacher_forced_replay,
    top1_agreement,
    top5_coverage,
)
from .bridge import bridge_run, lcs_length, sem_sim, seq_ratio, task_metric
from .report import (
    CrossingFinding,
    SweepSpec,
    WitnessSpec,
    detect_crossings,
    emit_tables,
    run_sweep,
)
from .twostage import (
    RegimeFlags,
    StageConfig,
    finalize_flags,
    stage1_prefix_evict,
    stage2_step,
)

__version__ = "0.1.0"
