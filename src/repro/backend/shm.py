"""Shared-memory model-buffer export: one copy of the model per machine.

The multi-process serving tier (:mod:`repro.serve.workers`) forks workers
that all execute the same compiled kernels. Pickling the model buffers to
every child would multiply resident memory by the worker count — exactly
the footprint the quantized int8/int16 buffers (PR7) worked to shrink. So
the parent exports the compiled model once into named
``multiprocessing.shared_memory`` segments and ships children only a tiny
picklable *manifest* (kernel source + buffer names/dtypes/shapes + model
facts); each child attaches the segments and maps zero-copy, read-only
NumPy views over them.

The segments hold one :class:`~repro.backend.image.ModelImage`, as an AOT
artifact directory (:mod:`repro.backend.aot`) does with the filesystem in
place of POSIX shared memory: the stored buffers are exactly what the
exporting kernel executed, so an attached executor is bit-identical to
the exporting predictor. Lifecycle is explicit and parent-owned: the
:class:`SharedModelHandle` unlinks the segments; children merely close
their attachments.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.backend.predictor import KernelExecutor, Predictor, load_image
from repro.errors import BackendError


def _close(segments: list[shared_memory.SharedMemory], *, unlink: bool) -> None:
    for segment in segments:
        try:
            segment.close()
            if unlink:
                segment.unlink()
        except OSError:  # pragma: no cover - already removed externally
            pass


class SharedModelHandle:
    """Parent-side owner of one exported model's shared-memory segments.

    ``manifest`` is a plain picklable dict a child passes to
    :func:`attach_shared`; the handle itself stays in the parent and is
    the single place the segments get unlinked.
    """

    def __init__(self, manifest: dict, segments: list[shared_memory.SharedMemory]) -> None:
        self.manifest = manifest
        self._segments = segments
        self._unlinked = False

    @property
    def fingerprint(self) -> str:
        return self.manifest["fingerprint"]

    def nbytes(self) -> int:
        return sum(meta["nbytes"] for meta in self.manifest["buffers"].values())

    def unlink(self) -> None:
        """Close and remove every segment (idempotent).

        After this, new attaches fail; already-attached children keep
        their mappings alive until they close (POSIX unlink semantics).
        """
        if self._unlinked:
            return
        self._unlinked = True
        _close(self._segments, unlink=True)
        self._segments = []

    def __enter__(self) -> "SharedModelHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.unlink()

    def __repr__(self) -> str:
        return (
            f"SharedModelHandle(buffers={len(self.manifest['buffers'])}, "
            f"nbytes={self.nbytes()}, fingerprint={self.fingerprint[:12]})"
        )


def export_shared(predictor: Predictor, *, name_prefix: str = "repro") -> SharedModelHandle:
    """Copy a compiled predictor's model buffers into shared memory.

    Returns a :class:`SharedModelHandle` whose ``manifest`` is picklable
    and self-contained: kernel source, schedule, model facts, arena spec
    and per-buffer segment names. Only in-process :class:`Predictor`
    instances can be exported; a failed export unlinks what it made.
    """
    if not isinstance(predictor, Predictor):
        raise BackendError(
            f"only in-process compiled predictors can be shared, "
            f"got {type(predictor).__name__}"
        )
    image = predictor.image
    manifest = {**image.header(), "source": image.source, "schedule": image.schedule}
    segments: list[shared_memory.SharedMemory] = []
    try:
        for buf_name, value in image.buffers.items():
            value = np.ascontiguousarray(value)
            # SharedMemory rejects zero-byte segments; degenerate empty
            # buffers still get a 1-byte segment so attach stays uniform.
            segment = shared_memory.SharedMemory(create=True, size=max(1, value.nbytes))
            segments.append(segment)
            view = np.ndarray(value.shape, dtype=value.dtype, buffer=segment.buf)
            view[...] = value
            manifest["buffers"][buf_name].update(
                segment=segment.name, nbytes=value.nbytes
            )
    except BaseException:
        _close(segments, unlink=True)
        raise
    return SharedModelHandle(manifest, segments)


def attach_shared(
    manifest: dict, *, validate_inputs: bool = True, untrack: bool = False
) -> KernelExecutor:
    """Attach an exported model in this process (typically a forked worker).

    Rebuilds the model image from zero-copy, read-only views over the
    named segments and binds it into an executor whose ``close()`` drops
    the attachments (it never unlinks: that is the exporting parent's job).
    Raises :class:`~repro.errors.BackendError` if a segment is gone or a
    buffer does not match its manifest entry.

    ``untrack`` matters only for processes with their *own* resource
    tracker (spawn-started workers, unrelated processes): there, Python's
    attach registers the segment as if this process owned it, and the
    tracker would unlink it at exit — tearing the mapping out from under
    every sibling — so such callers must pass ``untrack=True``. Forked
    workers and same-process attaches share the exporter's tracker and
    must leave ``untrack=False``, or they would cancel the registration
    that lets the tracker reap the segments if the exporter crashes.
    """
    segments: list[shared_memory.SharedMemory] = []
    buffers: dict[str, np.ndarray] = {}
    try:
        for buf_name, meta in manifest["buffers"].items():
            try:
                segment = shared_memory.SharedMemory(name=meta["segment"])
            except FileNotFoundError as exc:
                raise BackendError(
                    f"shared buffer {buf_name!r} (segment {meta['segment']}) "
                    f"is gone — did the exporting process unlink it?"
                ) from exc
            segments.append(segment)
            if untrack:
                try:  # pragma: no cover - internal API, best effort
                    resource_tracker.unregister(segment._name, "shared_memory")
                except Exception:
                    pass
            shape = tuple(meta["shape"])
            dtype = np.dtype(meta["dtype"])
            if int(np.prod(shape, dtype=np.int64)) * dtype.itemsize > segment.size:
                raise BackendError(
                    f"shared buffer {buf_name!r} is smaller than its "
                    f"manifest entry {dtype}{shape}"
                )
            array = np.ndarray(shape, dtype=dtype, buffer=segment.buf)
            array.flags.writeable = False
            buffers[buf_name] = array
        executor, _ = load_image(
            manifest,
            buffers,
            source=manifest["source"],
            schedule=manifest["schedule"],
            backend_name="shm",
            validate_inputs=validate_inputs,
            on_close=lambda: _close(segments, unlink=False),
        )
    except BaseException:
        _close(segments, unlink=False)
        raise
    return executor
