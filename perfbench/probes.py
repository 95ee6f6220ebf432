"""Layer probes: compile-pass figures from compilation traces, and request-path
timings taken by wrapping the layers' public entry points from outside.

Compiler passes are not re-timed: ``compile_model`` already records a
``CompilationTrace`` per compile in the process-wide observability
registry, and :func:`compile_layers` folds those traces into per-layer
figures. The request path has no such trace for every layer, so
:class:`Recorder` patches the public methods of the kernel
(``Predictor.raw_predict``, defined on ``KernelExecutor``), the sharded
predictor and the session with timing wrappers while it is active, and
restores them afterwards. Nothing in the program changes; untraced phases
run the original methods.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

import numpy as np

from repro.backend.predictor import KernelExecutor
from repro.observe.registry import registry
from repro.serve.session import InferenceSession
from repro.serve.workers import ShardedPredictor


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of a sequence of seconds, in milliseconds
    (0.0 for an empty sequence)."""
    if len(seconds) == 0:
        return 0.0
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q) * 1e3)


# ----------------------------------------------------------------------
# Compile passes
# ----------------------------------------------------------------------

def trace_mark() -> int:
    """How many compilation traces the registry has recorded so far."""
    return registry.snapshot()["traces"]["recorded"]


def traces_since(mark: int) -> list[dict]:
    """The compilation traces recorded after ``mark`` (oldest first)."""
    traces = registry.snapshot()["traces"]
    fresh = traces["recorded"] - mark
    if fresh > traces["kept"]:
        raise RuntimeError(
            f"{fresh} compiles since the mark overflow the registry's ring "
            f"of {traces['kept']}"
        )
    return traces["recent"][len(traces["recent"]) - fresh:] if fresh else []


def _span(node: dict, *path: str) -> dict | None:
    for name in path:
        node = next((c for c in node["children"] if c["name"] == name), None)
        if node is None:
            return None
    return node


def _seconds(trace: dict, *path: str) -> float:
    span = _span(trace, *path)
    return span["duration_ms"] / 1e3 if span is not None else 0.0


def _stat(trace: dict, path: tuple[str, ...], key: str) -> float:
    span = _span(trace, *path)
    return float(span["stats"].get(key, 0)) if span is not None else 0.0


def compile_seconds(traces: list[dict]) -> float:
    """Total wall time of the compiles in ``traces``."""
    return sum(t["duration_ms"] for t in traces) / 1e3


def compile_layers(traces: list[dict]) -> dict[str, float]:
    """Per-pass seconds and IR sizes summed over ``traces`` (one set-up)."""
    total_tiles = sum(_stat(t, ("hir", "padding"), "total_tiles") for t in traces)
    dummy_tiles = sum(_stat(t, ("hir", "padding"), "dummy_tiles") for t in traces)
    return {
        "hir.tiling_s": sum(_seconds(t, "hir", "tiling") for t in traces),
        "hir.shape_registry_s": sum(_seconds(t, "hir", "shape-registry") for t in traces),
        "hir.padding_s": sum(_seconds(t, "hir", "padding") for t in traces),
        "hir.reorder_s": sum(_seconds(t, "hir", "reorder") for t in traces),
        "mir.passes_s": sum(
            _seconds(t, "mir-lower") + _seconds(t, "mir-passes") for t in traces
        ),
        "lir.layout_s": sum(_seconds(t, "lir-lower", "layout") for t in traces),
        "lir.lut_s": sum(_seconds(t, "lir-lower", "lut") for t in traces),
        "backend.codegen_s": sum(
            _seconds(t, "backend", "codegen-emit")
            + _seconds(t, "backend", "codegen-namespace")
            for t in traces
        ),
        "backend.jit_s": sum(_seconds(t, "backend", "jit-compile") for t in traces),
        "hir.tiles": total_tiles,
        "hir.dummy_tile_frac": dummy_tiles / total_tiles if total_tiles else 0.0,
        "lir.model_bytes": sum(
            _stat(t, ("lir-lower", "layout"), "model_bytes") for t in traces
        ),
        "lir.lut_bytes": sum(_stat(t, ("lir-lower", "layout"), "lut_bytes") for t in traces),
        "backend.source_lines": sum(
            _stat(t, ("backend", "codegen-emit"), "source_lines") for t in traces
        ),
    }


def median_layers(per_setup: list[dict[str, float]]) -> dict[str, float]:
    """Element-wise median of several :func:`compile_layers` results."""
    return {
        key: float(np.median([layers[key] for layers in per_setup]))
        for key in per_setup[0]
    }


# ----------------------------------------------------------------------
# Request path
# ----------------------------------------------------------------------

class Recorder:
    """Timing wrappers around the request path's public entry points.

    While :meth:`active`, every call appends ``(start, end, rows)`` to
    ``kernel`` (compiled kernels: ``KernelExecutor.raw_predict``, which
    ``Predictor`` and loaded artifacts inherit), ``sharded``
    (``ShardedPredictor.raw_predict``), ``local`` (the serial shard
    reference, ``ShardedPredictor.local_raw_predict``) or ``session``
    (``InferenceSession.raw_predict``). Lists only grow; callers slice
    them by length marks. ``list.append`` is atomic, so the micro-batch
    worker thread can record alongside the caller's thread.
    """

    _TARGETS = (
        ("kernel", KernelExecutor, "raw_predict"),
        ("sharded", ShardedPredictor, "raw_predict"),
        ("local", ShardedPredictor, "local_raw_predict"),
        ("session", InferenceSession, "raw_predict"),
    )

    def __init__(self) -> None:
        self.calls: dict[str, list[tuple[float, float, int]]] = {
            key: [] for key, _, _ in self._TARGETS
        }

    def _wrap(self, key: str, fn):
        sink = self.calls[key]
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(obj, rows, *args, **kwargs):
            start = clock()
            out = fn(obj, rows, *args, **kwargs)
            sink.append((start, clock(), len(rows)))
            return out

        return timed

    @contextmanager
    def active(self):
        originals = [(cls, attr, cls.__dict__[attr]) for _, cls, attr in self._TARGETS]
        for (key, cls, attr), (_, _, fn) in zip(self._TARGETS, originals):
            setattr(cls, attr, self._wrap(key, fn))
        try:
            yield self
        finally:
            for cls, attr, fn in originals:
                setattr(cls, attr, fn)

    def mark(self) -> dict[str, int]:
        return {key: len(calls) for key, calls in self.calls.items()}

    def since(self, mark: dict[str, int], key: str) -> list[tuple[float, float, int]]:
        return self.calls[key][mark[key]:]
