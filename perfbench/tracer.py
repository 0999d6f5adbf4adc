"""Span tracer installed from outside the ``cask`` package.

Callers inside ``cask`` import functions by name (``from .model import
forward_step``), so patching the defining module alone would miss most
calls.  :class:`Tracer` instead replaces *every* ``cask.*`` module attribute
bound to a timed function object with a recording wrapper, and puts the
originals back on exit.  Nothing under ``src/`` changes.

Spans (name, start, end, parent, cell) are kept in compact in-memory arrays
and written out only by :meth:`Tracer.write_spans`.  A span's self time is
its duration minus the time its child spans cover.  Observers read counts
off the arguments and results at the same boundaries (rows attended, fire
and fold counts), so ratios are measured where the work happens.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# Layer (module of src/cask) -> public functions timed in that layer.
TIMED = {
    "model": ("forward_step", "accumulate_mass", "generate_reference"),
    "cache": ("append", "evict", "merge_replace"),
    "kernels": ("band_decompose", "d_kappa"),
    "policies": ("cask_compress", "detect_core", "form_merge_groups",
                 "evict_baseline", "fold_group", "mass_diagnostics"),
    "twostage": ("stage1_prefix_evict", "stage2_step"),
    "replay": ("teacher_forced_replay", "run_prefill", "summarize"),
    "bridge": ("bridge_run", "seq_ratio", "sem_sim"),
    "report": ("run_sweep", "emit_tables", "detect_crossings"),
}
LAYERS = tuple(TIMED)

# Spans whose every duration is kept for percentiles.
PERCENTILE_SPANS = ("model.forward_step", "policies.cask_compress")

# The sweep's per-cell function; wrapped only to label spans with a cell id.
CELL_FUNCTION = ("report", "_run_cell")


def missing_functions(cask_package) -> list[str]:
    """Timed functions (and the cell function) the package does not define.

    A missing function would otherwise read as 0 calls and 0 s, which looks
    like a gain, so the caller refuses to trace instead.
    """
    wanted = [(layer, fn) for layer, fns in TIMED.items() for fn in fns]
    return [f"{layer}.{fn}" for layer, fn in wanted + [CELL_FUNCTION]
            if not callable(getattr(getattr(cask_package, layer, None), fn,
                                    None))]


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Context manager: wraps the timed functions while active."""

    def __init__(self, cask_package):
        self._cask = cask_package
        self.names: list[str] = [f"{layer}.{fn}"
                                 for layer, fns in TIMED.items() for fn in fns]
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.durations = {name: array("q") for name in PERCENTILE_SPANS}
        self.counters = {
            "rows_attended": 0, "bytes_computed": 0,
            "appends": 0, "live_after_append": 0,
            "compress_fired": 0, "members_folded": 0, "members_evicted": 0,
            "members_admitted": 0, "rows_bytes": 0,
        }
        self.cells: list[str] = []
        self._cell = -1
        # One slot per span, in start order.
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.span_cell = array("l")
        self._stack: list[list[int]] = []   # [span index, child ns]
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "cask"
                                         or name.startswith("cask."))]
        for idx, name in enumerate(self.names):
            layer, fn = name.split(".")
            original = getattr(getattr(self._cask, layer), fn)
            observe = getattr(self, "_observe_" + fn, None)
            self._patch(modules, original, self._timed(idx, original, observe))
        layer, fn = CELL_FUNCTION
        original = getattr(getattr(self._cask, layer), fn)
        self._patch(modules, original, self._cell_marker(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _timed(self, idx: int, fn, observe):
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        durations = self.durations.get(self.names[idx])
        name_arr, start_arr = self.span_name, self.span_start
        end_arr, parent_arr, cell_arr = (self.span_end, self.span_parent,
                                         self.span_cell)

        def wrapper(*args, **kwargs):
            span = len(start_arr)
            name_arr.append(idx)
            parent_arr.append(stack[-1][0] if stack else -1)
            cell_arr.append(self._cell)
            end_arr.append(0)
            frame = [span, 0]
            stack.append(frame)
            start = perf_counter_ns()
            start_arr.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                end_arr[span] = end
                dur = end - start
                calls[idx] += 1
                self_ns[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if durations is not None:
                    durations.append(dur)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _cell_marker(self, fn):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            self.cells.append(f"{bound['witness'].name}/{bound['method']}"
                              f"/{bound['budget']}")
            self._cell = len(self.cells) - 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._cell = -1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers: counts read at the timed boundaries -----------------
    def _observe_forward_step(self, args, kwargs, result) -> None:
        params = _arg(args, kwargs, 0, "params")
        n = len(_arg(args, kwargs, 1, "cache"))
        c = self.counters
        c["rows_attended"] += n
        c["bytes_computed"] += forward_step_bytes(
            n, params.num_layers, params.model_dim, params.vocab_size)

    def _observe_append(self, args, kwargs, result) -> None:
        c = self.counters
        c["appends"] += 1
        c["live_after_append"] += len(_arg(args, kwargs, 0, "cache"))

    def _observe_cask_compress(self, args, kwargs, result) -> None:
        c = self.counters
        c["compress_fired"] += int(result.fired)
        c["members_folded"] += result.members_folded
        c["members_evicted"] += result.evicted

    def _observe_form_merge_groups(self, args, kwargs, result) -> None:
        self.counters["members_admitted"] += sum(len(g) - 1 for g in result)

    def _observe_run_sweep(self, args, kwargs, result) -> None:
        self.counters["rows_bytes"] += sum(
            len(json.dumps(row).encode()) + 1 for row in result)

    # -- results ----------------------------------------------------------
    def write_spans(self, path) -> int:
        """Write every span as one tab-separated line; returns the count."""
        t0 = self.span_start[0] if self.span_start else 0
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcell\n")
            for i in range(len(self.span_start)):
                cell = self.span_cell[i]
                fh.write(f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0}\t{self.span_end[i] - t0}\t"
                         f"{self.span_parent[i]}\t"
                         f"{self.cells[cell] if cell >= 0 else ''}\n")
        return len(self.span_start)


def forward_step_bytes(n: int, layers: int, dim: int, vocab: int) -> int:
    """Float64 bytes one ``forward_step`` computes over, from array sizes.

    Per layer: the four d x d projections, the stacked keys and values of
    the n live entries plus the new token, and their mass row; then the
    d x V unembedding.  Computed, not measured: cache misses are ignored.
    """
    rows = n + 1
    per_layer = 4 * dim * dim + 2 * rows * dim + rows
    return 8 * (layers * per_layer + dim * vocab)


def _percentile(sorted_values, q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def count_metrics(tracer: Tracer) -> dict[str, float]:
    """Metrics that must repeat exactly across two traced passes."""
    c = tracer.counters
    calls = dict(zip(tracer.names, tracer.calls))
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({
        "model.forward_step.rows_attended": c["rows_attended"],
        "model.forward_step.bytes_computed": c["bytes_computed"],
        "cache.live_entries.mean": _ratio(c["live_after_append"],
                                          c["appends"]),
        "policies.cask_compress.fire_ratio": _ratio(
            c["compress_fired"], calls["twostage.stage2_step"]),
        "policies.fold_share": _ratio(
            c["members_folded"], c["members_folded"] + c["members_evicted"]),
        "policies.form_merge_groups.admit_ratio": _ratio(
            c["members_admitted"], calls["kernels.d_kappa"]),
        "report.rows_bytes": c["rows_bytes"],
    })
    return out


def timing_metrics(tracer: Tracer) -> dict[str, float]:
    """Self times, per-layer self-time shares and call-time percentiles."""
    out: dict[str, float] = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    for name, ns in zip(tracer.names, tracer.self_ns):
        out[f"{name}.self_s"] = ns / 1e9
        layer_ns[name.split(".")[0]] += ns
    total = sum(layer_ns.values())
    for layer, ns in layer_ns.items():
        out[f"{layer}.self_share"] = _ratio(ns, total)
    for name, durations in tracer.durations.items():
        values = sorted(durations)
        out[f"{name}.p50_us"] = _percentile(values, 0.50) / 1e3
        out[f"{name}.p99_us"] = _percentile(values, 0.99) / 1e3
    return out
