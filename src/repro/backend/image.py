"""The model image: one compiled model as a value.

Treebeard compiles one (forest, schedule) pair into one module. Here that
module is a :class:`ModelImage`: the kernel source, the schedule, the
scalar model facts, the scratch arena spec and the named NumPy buffers the
kernel reads. An AOT artifact (:mod:`repro.backend.aot`) stores an image as
a directory, the sharded tier (:mod:`repro.backend.shm`) as shared-memory
segments. The stored buffers are the arrays the exporting kernel ran
against, so a stored image executes bit-identically.

:func:`bind` is the one place an image becomes a running kernel; the
in-process compile, the artifact load and the shared-memory attach all
call it.
"""

from __future__ import annotations

import weakref
from dataclasses import asdict
from typing import Callable

import numpy as np

from repro.backend.codegen import build_namespace, emit_module_source
from repro.backend.jit import compile_source
from repro.lir.ir import LIRModule
from repro.lir.memory import ArenaSpec, ScratchArena, arena_spec
from repro.observe.profile import ProfileRecorder
from repro.observe.trace import CompilationTrace


class ModelImage:
    """Everything needed to run one compiled model.

    ``schedule`` is ``Schedule.to_dict()``; ``model`` holds
    ``num_features``, ``num_classes``, ``num_trees``, ``base_score`` and
    ``objective``; ``arena`` is the ``asdict`` of the kernel's
    :class:`~repro.lir.memory.ArenaSpec` (None in alloc mode);
    ``quantization`` summarizes int precisions (None for float ones).
    """

    def __init__(self, *, fingerprint: str | Callable[[], str], source: str,
                 schedule: dict, model: dict, arena: dict | None,
                 buffers: dict[str, np.ndarray], quantization: dict | None = None):
        self._fingerprint = fingerprint
        self.source = source
        self.schedule = schedule
        self.model = model
        self.arena = arena
        self.buffers = buffers
        self.quantization = quantization

    @property
    def fingerprint(self) -> str:
        """The :func:`~repro.backend.jit.model_fingerprint` of the model.

        An in-process compile passes a function: hashing JSON-encodes the
        whole forest, so it runs only when something asks.
        """
        if callable(self._fingerprint):
            self._fingerprint = self._fingerprint()
        return self._fingerprint

    def nbytes(self) -> int:
        return sum(int(array.nbytes) for array in self.buffers.values())

    def header(self) -> dict:
        """The manifest fields every stored copy of the image carries.

        Each medium adds where a buffer lives to its ``buffers`` entry.
        """
        buffers = {name: {"dtype": str(array.dtype), "shape": list(array.shape)}
                   for name, array in self.buffers.items()}
        return {"fingerprint": self.fingerprint, "model": self.model,
                "arena": self.arena, "quantization": self.quantization,
                "buffers": buffers}


def bind(
    image: ModelImage, profile_recorder: ProfileRecorder | None = None
) -> tuple[Callable, ArenaSpec | None, bool]:
    """Byte-compile ``image``; returns ``(predict_block, arena_spec, code_cache_hit)``.

    The buffers get the runtime globals: ``_np``, the ``_new_arena``
    scratch factory (for direct kernel calls) and, for profiled kernels,
    ``_P``. An owned recorder is bound as a weak proxy: exec() closes a
    namespace<->function cycle only gc breaks, and a strong ``_P`` would
    keep an evicted executor's counters in ``aggregate_all()`` until that
    collection ran. Without an owner the namespace owns a recorder.
    """
    namespace: dict = {"_np": np, **image.buffers}
    arena = None
    if image.arena is not None:
        spec = dict(image.arena)
        spec["pack_widths"] = tuple(spec.get("pack_widths") or ())
        arena = ArenaSpec(**spec)
        namespace["_new_arena"] = lambda spec=arena: ScratchArena(spec)
    if image.schedule.get("profile"):
        namespace["_P"] = (
            weakref.proxy(profile_recorder)
            if profile_recorder is not None
            else ProfileRecorder()
        )
    kernel, hit = compile_source(image.source, namespace)
    return kernel, arena, hit


def compile_image(
    lir: LIRModule,
    *,
    model: dict,
    fingerprint: str | Callable[[], str],
    trace: CompilationTrace | None = None,
    profile_recorder: ProfileRecorder | None = None,
) -> tuple[ModelImage, Callable, ArenaSpec | None]:
    """Emit, materialize and bind ``lir``; returns ``(image, kernel, arena)``.

    ``trace`` gets one span per stage: source emission, buffer
    materialization and bytecode compile.
    """
    trace = trace or CompilationTrace()
    with trace.span("codegen-emit") as span:
        source = emit_module_source(lir)
        span.stats["source_lines"] = source.count("\n")
        span.stats["source_bytes"] = len(source)
    with trace.span("codegen-namespace") as span:
        buffers = build_namespace(lir)
        span.stats["num_globals"] = len(buffers)
    image = ModelImage(
        fingerprint=fingerprint,
        source=source,
        schedule=lir.schedule.to_dict(),
        model=model,
        arena=asdict(arena_spec(lir)) if lir.schedule.scratch == "arena" else None,
        buffers=buffers,
        quantization=lir.quant.describe() if lir.quant is not None else None,
    )
    with trace.span("jit-compile") as span:
        kernel, arena, hit = bind(image, profile_recorder)
        span.stats["code_cache_hit"] = hit
    return image, kernel, arena
