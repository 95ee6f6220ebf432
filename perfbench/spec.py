"""What the benchmark measures: workloads, metrics, units and bounds.

This module is the single source of truth for ``BENCHMARK.json`` at the
repository root (``python3 perfbench/run.py --write-manifest`` regenerates
it) and for the metric names every run must emit.

Every workload reports every end-to-end metric, so each one is defined for
all four workloads (``README.md`` in this directory gives the per-workload
reading). Metrics that only one workload can produce -- the online rate
ladder, artifact load time, ``fail_frac`` -- and the ``UNGATED_UNITS``
figures are printed in the run's table but are not gated metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

#: seconds one run measures (``--seconds``)
RUN_SECONDS = 20

#: workload name -> why it is in the benchmark (one line each)
WORKLOADS: dict[str, str] = {
    "online": (
        "open-loop 1-row requests at fixed rates into a micro-batched higgs "
        "model: batching queueing/coalescing and the kernel at tiny batches"
    ),
    "bulk": (
        "closed-loop 2048-row unbatched predicts on leaf-biased abalone: the "
        "kernel does the work, batching none (a batching change predicts no change)"
    ),
    "cold-start": (
        "compile, AOT export and artifact load of higgs, abalone and covtype "
        "plus one checked predict: compiler passes and artifact loading"
    ),
    "sharded-2w": (
        "the bulk model and batch on 2 worker processes: the only workload "
        "using serve.workers and backend.shm; its ratio to bulk is measured scaling"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("model_mb", "MB", "lower", 0.05),
    Metric("rows_per_s", "rows/s", "higher", 0.25),
    Metric("p50_ms", "ms", "lower", 0.25),
)

#: end-to-end figures every workload measures and prints, but which are not
#: gated: on a 2-core host that runs ~1.5x slower in phases of 5-30 s, their
#: spread over ten seeds reached 0.20 (compile_s) and 0.35 (sharded-2w
#: p90_ms), past the largest bound a gated metric may have. setup_s, which
#: is mostly compile time, gates compile cost.
UNGATED_UNITS: dict[str, str] = {"compile_s": "s", "p90_ms": "ms"}

PER_LAYER: tuple[Metric, ...] = (
    # hir / mir / lir / backend compile passes, read from CompilationTrace
    Metric("hir.tiling_s", "s", "lower"),
    Metric("hir.shape_registry_s", "s", "lower"),
    Metric("hir.padding_s", "s", "lower"),
    Metric("hir.reorder_s", "s", "lower"),
    Metric("mir.passes_s", "s", "lower"),
    Metric("lir.layout_s", "s", "lower"),
    Metric("lir.lut_s", "s", "lower"),
    Metric("backend.codegen_s", "s", "lower"),
    Metric("backend.jit_s", "s", "lower"),
    Metric("hir.tiles", "count", "lower"),
    Metric("hir.dummy_tile_frac", "fraction", "lower"),
    Metric("lir.model_bytes", "bytes", "lower"),
    Metric("lir.lut_bytes", "bytes", "lower"),
    Metric("backend.source_lines", "lines", "lower"),
    # request path, timed by wrapping the layers' public entry points
    Metric("backend.kernel_ms", "ms", "lower"),
    Metric("backend.rows_per_kernel_call", "rows", "higher"),
    Metric("backend.aot_load_s", "s", "lower"),
    Metric("serve.session.overhead_ms", "ms", "lower"),
    Metric("serve.batching.queue_wait_p50_ms", "ms", "lower"),
    Metric("serve.batching.queue_wait_p99_ms", "ms", "lower"),
    Metric("serve.batching.batch_rows_mean", "rows", "higher"),
    Metric("serve.batching.requests_per_batch", "count", "higher"),
    Metric("serve.batching.rejects", "count", "lower"),
    Metric("serve.cache.compiles", "count", "lower"),
    Metric("serve.cache.hits", "count", "higher"),
    Metric("serve.workers.local_ms", "ms", "lower"),
    Metric("serve.workers.speedup_vs_local", "x", "higher"),
    Metric("serve.workers.dispatched", "count", "higher"),
    Metric("serve.workers.respawns", "count", "lower"),
    # validity of the run itself, not of the program
    Metric("load.late_p99_ms", "ms", "lower"),
    Metric("trace.overhead_frac", "fraction", "lower"),
)


def metric_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run emits in its result line."""
    return {m.name: m.unit for m in (PER_LAYER if traced else END_TO_END)}


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [m.to_json() for m in END_TO_END],
        "per_layer": [m.to_json() for m in PER_LAYER],
    }
