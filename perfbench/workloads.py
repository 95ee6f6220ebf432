"""The four workloads. Each returns a :class:`Result` holding every
end-to-end metric, every per-layer metric, the checked-output counts and
the workload-specific figures printed beside them.

Set-up (building servable models from finished forests) is repeated
``SETUP_REPEATS`` times per run, each with a cold JIT code cache and a
fresh server that then serves its share of the run's ``seconds`` of
traffic; ``setup_s`` is the median. With ``traced=True`` the traffic
alternates untraced and traced work (:class:`probes.Recorder`); per-layer
request figures come from the traced part and the latency gap between the
two parts is ``trace.overhead_frac``.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api import compile_model
from repro.backend.aot import export_artifact, load_artifact
from repro.backend.jit import clear_cache
from repro.errors import ReproError
from repro.serve import BatchingPolicy, ModelServer, ServerConfig

from inputs import Inputs, matches
from probes import (
    Recorder,
    compile_layers,
    compile_seconds,
    median_layers,
    percentile_ms,
    trace_mark,
    traces_since,
)
from spec import END_TO_END, PER_LAYER

SETUP_REPEATS = 3

#: no persistent tuning cache, no slow-request log: the server touches no
#: file outside the run's own directory
SERVER_CONFIG = ServerConfig(tune_cache_path=None, slow_request_s=None)

# online
ONLINE_MODEL = "higgs"
ONLINE_POOL_ROWS = 4096
#: fixed offered rates (requests/s), as served after each of the
#: SETUP_REPEATS set-ups; every rate up to RATE_FIXED always runs, higher
#: rates stop at the first that misses the latency limit
LADDER_SEGMENTS = ((250, 500), (1000,), (2000, 4000))
RATE_FIXED = 1000
#: share of the run spent at RATE_FIXED, whose latencies are the
#: workload's p50_ms/p90_ms; the other rates split the rest evenly
FIXED_SHARE = 0.6
SLO_P99_MS = 25.0
#: deep enough that overload shows as latency and backlog, never as rejects
ONLINE_POLICY = BatchingPolicy(queue_depth=1 << 16)
WARMUP_REQUESTS = 64
#: a run is flagged when the generator's p99 lateness exceeds this
LATE_FLAG_MS = 5.0

# bulk / sharded-2w
BULK_MODEL = "abalone"
BULK_ROWS = 2048
BULK_BATCHES = 8
SHARDED_WORKERS = 2
#: the modeled (not measured) 2-worker saturated-throughput scaling that
#: BENCH_PR10.json records
MODELED_2W_SCALING = 1.57

# cold-start
COLD_MODELS = ("higgs", "abalone", "covtype")
COLD_ROWS = 256
#: each export is loaded (and its first predict checked) this many times,
#: so the load latencies have enough samples for a p90
LOADS_PER_EXPORT = 10

WORK_DIR = Path(__file__).resolve().parent / ".work"


@dataclass
class Result:
    e2e: dict[str, float]
    layers: dict[str, float]
    attempted: int
    failed: int
    #: workload-specific figures: name -> (value, unit)
    extra: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        for metrics, spec in ((self.e2e, END_TO_END), (self.layers, PER_LAYER)):
            missing = {m.name for m in spec} - set(metrics)
            if missing:
                raise RuntimeError(f"workload did not measure {sorted(missing)}")


def _no_layers() -> dict[str, float]:
    """Request-path layer figures for a workload that bypasses a layer:
    zero work in it."""
    return {m.name: 0.0 for m in PER_LAYER}


def _cold() -> None:
    """What a fresh process pays: no compiled code cached, no garbage."""
    clear_cache()
    gc.collect()


def _model_mb(predictor) -> float:
    return (predictor.memory_bytes() + predictor.scratch_nbytes()) / 1e6


def _overhead(untraced, traced) -> float:
    if len(untraced) == 0 or len(traced) == 0:
        return 0.0
    return float(np.median(traced) / np.median(untraced) - 1.0)


def _cache_counts(server: ModelServer) -> dict[str, float]:
    snap = server.metrics_snapshot()
    return {
        "serve.cache.compiles": float(snap["compiles"]),
        "serve.cache.hits": float(snap["cache_hits"]),
    }


def _segments(register, segment) -> tuple[dict, dict]:
    """Set up ``SETUP_REPEATS`` times and run one traffic segment after each.

    Each set-up registers the model on a fresh server with a cold code
    cache (``register(server)`` returns the session, warm-up included), and
    ``segment(k, server, session)`` then serves the k-th share of the
    traffic from it before the server closes. Interleaving spreads the
    set-up samples over the run, so one slow phase of the host does not
    decide all of them. Returns the set-up end-to-end metrics and the
    compile-pass layers, each the median over set-ups.
    """
    times, traces = [], []
    for k in range(SETUP_REPEATS):
        _cold()
        mark = trace_mark()
        start = time.perf_counter()
        server = ModelServer(SERVER_CONFIG)
        try:
            session = register(server)
            times.append(time.perf_counter() - start)
            traces.append(traces_since(mark))
            segment(k, server, session)
        finally:
            server.close()
    e2e = {
        "setup_s": float(np.median(times)),
        "compile_s": float(np.median([compile_seconds(t) for t in traces])),
    }
    return e2e, median_layers([compile_layers(t) for t in traces])


# ----------------------------------------------------------------------
# online: open loop into a micro-batched session
# ----------------------------------------------------------------------

@dataclass
class _Step:
    rate: int
    latency: np.ndarray  # seconds from due time to completion, per answered request
    late: np.ndarray  # seconds the generator sent after the due time
    sent: np.ndarray  # send instants
    done: np.ndarray  # completion instants
    attempted: int
    failed: int
    rejects: int
    backlog: int  # requests still unanswered when the last one was sent
    elapsed: float

    @property
    def p99_ms(self) -> float:
        return percentile_ms(self.latency, 99)

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.p99_ms <= SLO_P99_MS
            and self.backlog <= max(1, self.rate * SLO_P99_MS / 1e3)
        )


def _open_loop(session, pool, ref, rate: int, seconds: float, offset: int) -> _Step:
    """Send ``rate`` 1-row requests per second for ``seconds`` from this
    thread, each timed from when it was due."""
    count = max(1, int(rate * seconds))
    period = 1.0 / rate
    done = np.zeros(count)
    due = np.zeros(count)
    sent = np.zeros(count)
    futures: list = [None] * count
    clock = time.perf_counter
    rejects = 0

    def finisher(i):
        def cb(_future):
            done[i] = clock()
        return cb

    t0 = clock() + 0.005
    for i in range(count):
        due[i] = t0 + i * period
        wait = due[i] - clock()
        if wait > 0:
            time.sleep(wait)
        j = (offset + i) % len(pool)
        sent[i] = clock()
        try:
            future = session.submit(pool[j:j + 1])
        except ReproError:
            rejects += 1
            continue
        future.add_done_callback(finisher(i))
        futures[i] = future
    backlog = int(np.count_nonzero(done == 0)) - rejects

    failed = rejects
    for i, future in enumerate(futures):
        if future is None:
            continue
        try:
            out = future.result(timeout=30)
        except Exception:
            failed += 1
            continue
        j = (offset + i) % len(pool)
        if not matches(out, ref[j:j + 1]):
            failed += 1
    answered = np.array([f is not None for f in futures])
    return _Step(
        rate=rate,
        latency=(done - due)[answered],
        late=sent - due,
        sent=sent,
        done=done,
        attempted=count,
        failed=failed,
        rejects=rejects,
        backlog=backlog,
        elapsed=float(done[answered].max() - t0) if answered.any() else seconds,
    )


def _batching_layers(traced: list[tuple[_Step, list]]) -> dict[str, float]:
    """Queue wait, coalescing and per-request overhead of the traced steps.

    Requests are 1-row and the batcher is FIFO over a single generator
    thread, so within one step request ``i`` rode the kernel call whose
    cumulative row count first exceeds ``i``.
    """
    queue_wait, overhead, kernel_s, rows = [], [], [], []
    for step, calls in traced:
        if step.rejects or not calls:
            continue
        starts, ends, n = (np.array(c) for c in zip(*calls))
        batch_of = np.searchsorted(np.cumsum(n), np.arange(step.attempted), side="right")
        batch_of = np.minimum(batch_of, len(n) - 1)
        queue_wait.append(starts[batch_of] - step.sent)
        overhead.append(step.done - ends[batch_of])
        kernel_s.append(ends - starts)
        rows.append(n)
    if not rows:
        return {}
    rows = np.concatenate(rows)
    return {
        "serve.batching.queue_wait_p50_ms": percentile_ms(np.concatenate(queue_wait), 50),
        "serve.batching.queue_wait_p99_ms": percentile_ms(np.concatenate(queue_wait), 99),
        "serve.batching.batch_rows_mean": float(rows.mean()),
        "serve.session.overhead_ms": percentile_ms(np.concatenate(overhead), 50),
        "backend.kernel_ms": percentile_ms(np.concatenate(kernel_s), 50),
        "backend.rows_per_kernel_call": float(rows.mean()),
    }


def online(inputs: Inputs, seconds: float, traced: bool) -> Result:
    forest = inputs.forest(ONLINE_MODEL)
    pool = inputs.rows(ONLINE_MODEL, ONLINE_POOL_ROWS)
    ref = forest.raw_predict(pool)
    steps: list[_Step] = []
    plain: list[_Step] = []
    on: list[tuple[_Step, list]] = []  # traced steps with their kernel calls
    recorder = Recorder()
    state = {"warm_failed": 0, "batches": 0}
    other_s = seconds * (1 - FIXED_SHARE) / (sum(map(len, LADDER_SEGMENTS)) - 1)

    def register(server):
        session = server.register(ONLINE_MODEL, forest, batching=ONLINE_POLICY)
        warm = [session.submit(pool[i:i + 1]) for i in range(WARMUP_REQUESTS)]
        state["warm_failed"] += sum(
            not matches(f.result(), ref[i:i + 1]) for i, f in enumerate(warm)
        )
        return session

    def send(session, rate, step_s):
        step = _open_loop(session, pool, ref, rate, step_s, sum(s.attempted for s in steps))
        steps.append(step)
        return step

    def segment(k, server, session):
        state["model_mb"] = _model_mb(session.predictor)
        state["cache"] = _cache_counts(server)
        if traced:
            # the fixed rate untraced, then traced, after every set-up, so
            # drift over the run does not read as tracing overhead
            plain.append(send(session, RATE_FIXED, seconds / (2 * SETUP_REPEATS)))
            mark = recorder.mark()
            before = server.metrics_snapshot()["batches"]
            with recorder.active():
                step = send(session, RATE_FIXED, seconds / (2 * SETUP_REPEATS))
            state["batches"] += server.metrics_snapshot()["batches"] - before
            on.append((step, recorder.since(mark, "kernel")))
            return
        for rate in LADDER_SEGMENTS[k]:
            step = send(session, rate, seconds * FIXED_SHARE if rate == RATE_FIXED else other_s)
            if rate > RATE_FIXED and not step.passed:
                break

    e2e, layers = _segments(register, segment)
    e2e["model_mb"] = state["model_mb"]
    layers = {**_no_layers(), **layers, **state["cache"]}
    extra: dict[str, tuple[float, str]] = {}
    if traced:
        measured = [step for step, _ in on]
        layers.update(_batching_layers(on))
        answered = sum(len(s.latency) for s in measured)
        layers["serve.batching.requests_per_batch"] = (
            answered / state["batches"] if state["batches"] else 0.0
        )
        layers["serve.batching.rejects"] = float(sum(s.rejects for s in measured))
        late = np.concatenate([s.late for s in measured])
        layers["load.late_p99_ms"] = percentile_ms(late, 99)
        layers["trace.overhead_frac"] = _overhead(
            np.concatenate([s.latency for s in plain]),
            np.concatenate([s.latency for s in measured]),
        )
    else:
        for step in steps:
            if step.rate in (250, RATE_FIXED):
                extra[f"p50_ms.r{step.rate}"] = (percentile_ms(step.latency, 50), "ms")
                extra[f"p99_ms.r{step.rate}"] = (step.p99_ms, "ms")
        passing = [s.rate for s in steps if s.passed]
        extra["max_rate_rps"] = (float(max(passing, default=0)), "req/s")
        measured = [s for s in steps if s.rate == RATE_FIXED]
        late = measured[0].late
        extra["load.late_p99_ms"] = (percentile_ms(late, 99), "ms")
    latency = np.concatenate([s.latency for s in measured])
    e2e["rows_per_s"] = len(latency) / sum(s.elapsed for s in measured)
    e2e["p50_ms"] = percentile_ms(latency, 50)
    e2e["p90_ms"] = percentile_ms(latency, 90)
    attempted = WARMUP_REQUESTS * SETUP_REPEATS + sum(s.attempted for s in steps)
    failed = state["warm_failed"] + sum(s.failed for s in steps)
    notes = []
    if percentile_ms(late, 99) > LATE_FLAG_MS:
        notes.append(
            f"generator fell behind: p99 lateness {percentile_ms(late, 99):.2f} ms "
            f"at {RATE_FIXED} req/s exceeds {LATE_FLAG_MS} ms"
        )
    return Result(e2e, layers, attempted, failed, extra, notes)


# ----------------------------------------------------------------------
# bulk and sharded-2w: closed loop, one client
# ----------------------------------------------------------------------

def _closed_loop(inputs: Inputs, seconds: float, traced: bool, workers: int | None) -> Result:
    forest = inputs.forest(BULK_MODEL)
    batches = inputs.batches(BULK_MODEL, BULK_BATCHES, BULK_ROWS)
    recorder = Recorder()
    latency, gaps, outputs, traced_flags = [], [], [], []
    local: list[np.ndarray] = []  # sharded: the bitwise reference per batch
    state = {"warm_failed": 0, "elapsed": 0.0, "dispatched": 0, "respawns": 0}

    def register(server):
        session = server.register(BULK_MODEL, forest, workers=workers)
        for rows, ref in batches[:2]:
            state["warm_failed"] += not matches(server.predict(BULK_MODEL, rows), ref)
        return session

    def segment(k, server, session):
        state["model_mb"] = _model_mb(session.predictor)
        state["cache"] = _cache_counts(server)
        if workers:
            if not local:
                # the same shards, serially, in-process; timed as local_ms
                with recorder.active():
                    local.extend(
                        session.predictor.local_raw_predict(rows) for rows, _ in batches
                    )
            dispatched = _dispatched(session.predictor)
        clock = time.perf_counter
        start = last = clock()
        deadline = start + seconds / SETUP_REPEATS
        while last < deadline:
            i = len(outputs)
            rows, _ = batches[i % BULK_BATCHES]
            tracing = traced and i % 2 == 1
            t0 = clock()
            with recorder.active() if tracing else nullcontext():
                out = server.predict(BULK_MODEL, rows)
            t1 = clock()
            gaps.append(t0 - last)
            last = t1
            latency.append(t1 - t0)
            outputs.append(out)
            traced_flags.append(tracing)
        state["elapsed"] += last - start
        if workers:
            stats = session.predictor.worker_stats()["workers"].values()
            state["dispatched"] += _dispatched(session.predictor) - dispatched
            state["respawns"] += sum(w["respawns"] for w in stats)

    e2e, layers = _segments(register, segment)
    e2e["model_mb"] = state["model_mb"]
    layers = {**_no_layers(), **layers, **state["cache"]}

    failed = state["warm_failed"]
    for k, out in enumerate(outputs):
        _, ref = batches[k % BULK_BATCHES]
        ok = matches(out, ref)
        if workers:
            ok = ok and np.array_equal(out, local[k % BULK_BATCHES])
        failed += not ok

    e2e["rows_per_s"] = BULK_ROWS * len(outputs) / state["elapsed"]
    e2e["p50_ms"] = percentile_ms(latency, 50)
    e2e["p90_ms"] = percentile_ms(latency, 90)
    extra: dict[str, tuple[float, str]] = {}
    calls = recorder.calls
    if traced:
        flags = np.array(traced_flags)
        lat = np.array(latency)
        layers["trace.overhead_frac"] = _overhead(lat[~flags], lat[flags])
        layers["load.late_p99_ms"] = percentile_ms(gaps, 99)
        # one predictor call per traced session call; on sharded-2w the
        # "kernel" calls are the shard kernels of the local reference
        inner = calls["sharded" if workers else "kernel"]
        layers["serve.session.overhead_ms"] = percentile_ms(
            [(s1 - s0) - (k1 - k0) for (s0, s1, _), (k0, k1, _) in zip(calls["session"], inner)],
            50,
        )
        layers["backend.kernel_ms"] = percentile_ms([e - s for s, e, _ in calls["kernel"]], 50)
        layers["backend.rows_per_kernel_call"] = float(np.mean([r for _, _, r in calls["kernel"]]))
        if workers:
            local_ms = percentile_ms([e - s for s, e, _ in calls["local"]], 50)
            layers["serve.workers.local_ms"] = local_ms
            layers["serve.workers.speedup_vs_local"] = local_ms / percentile_ms(
                [e - s for s, e, _ in inner], 50
            )
            layers["serve.workers.dispatched"] = float(state["dispatched"])
            layers["serve.workers.respawns"] = float(state["respawns"])
    else:
        extra["load.late_p99_ms"] = (percentile_ms(gaps, 99), "ms")
    if workers and calls["local"]:
        speedup = percentile_ms([e - s for s, e, _ in calls["local"]], 50) / e2e["p50_ms"]
        extra["speedup_vs_local_shards (measured)"] = (speedup, "x")
        extra["modeled_2w_scaling (BENCH_PR10.json, modeled)"] = (MODELED_2W_SCALING, "x")
    attempted = 2 * SETUP_REPEATS + len(outputs)
    return Result(e2e, layers, attempted, failed, extra)


def _dispatched(predictor) -> int:
    return sum(w["dispatched"] for w in predictor.worker_stats()["workers"].values())


def bulk(inputs: Inputs, seconds: float, traced: bool) -> Result:
    return _closed_loop(inputs, seconds, traced, workers=None)


def sharded_2w(inputs: Inputs, seconds: float, traced: bool) -> Result:
    return _closed_loop(inputs, seconds, traced, workers=SHARDED_WORKERS)


# ----------------------------------------------------------------------
# cold-start: compile, export, load, first checked predict
# ----------------------------------------------------------------------

def cold_start(inputs: Inputs, seconds: float, traced: bool) -> Result:
    models = []
    for name in COLD_MODELS:
        forest = inputs.forest(name)
        rows = inputs.rows(name, COLD_ROWS)
        models.append((name, forest, rows, forest.raw_predict(rows)))
    work = WORK_DIR / f"cold-{os.getpid()}"
    clock = time.perf_counter
    iterations = []  # per iteration: dict of summed seconds + traces
    requests, attempted, failed = [], 0, 0
    model_mb = 0.0
    recorder = Recorder()
    try:
        start = clock()
        k = 0
        while not iterations or clock() - start < seconds:
            on = traced and k % 2 == 1
            it = {"setup": 0.0, "compile": 0.0, "load": 0.0, "traced": on, "traces": []}
            for name, forest, rows, ref in models:
                path = work / f"{name}-{k}"
                _cold()
                mark = trace_mark()
                t0 = clock()
                predictor = compile_model(forest)
                t1 = clock()
                export_artifact(predictor, path)
                t2 = clock()
                it["traces"] += traces_since(mark)
                for load in range(LOADS_PER_EXPORT):
                    clear_cache()
                    with recorder.active() if on else nullcontext():
                        t3 = clock()
                        loaded = load_artifact(path)
                        t4 = clock()
                        out = loaded.raw_predict(rows)
                        t5 = clock()
                    attempted += 1
                    failed += not matches(out, ref)
                    requests.append(t5 - t3)
                    if load == 0:
                        it["setup"] += (t2 - t0) + (t5 - t3)
                        it["compile"] += t1 - t0
                        it["load"] += t4 - t3
                if k == 0:
                    model_mb += _model_mb(loaded)
                shutil.rmtree(path)
            iterations.append(it)
            k += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setups = [it["setup"] for it in iterations]
    e2e = {
        "setup_s": float(np.median(setups)),
        "compile_s": float(np.median([it["compile"] for it in iterations])),
        "model_mb": model_mb,
        "rows_per_s": COLD_ROWS * len(requests) / sum(requests),
        "p50_ms": percentile_ms(requests, 50),
        "p90_ms": percentile_ms(requests, 90),
    }
    load_s = float(np.median([it["load"] for it in iterations]))
    layers = {
        **_no_layers(),
        **median_layers([compile_layers(it["traces"]) for it in iterations]),
        "backend.aot_load_s": load_s,
    }
    if traced:
        plain = [it["setup"] for it in iterations if not it["traced"]]
        on = [it["setup"] for it in iterations if it["traced"]]
        layers["trace.overhead_frac"] = _overhead(plain, on)
        kernels = recorder.calls["kernel"]
        layers["backend.kernel_ms"] = percentile_ms([e - s for s, e, _ in kernels], 50)
        layers["backend.rows_per_kernel_call"] = float(
            np.mean([r for _, _, r in kernels]) if kernels else 0.0
        )
    extra = {"artifact_load_s": (load_s, "s"), "iterations": (float(len(iterations)), "count")}
    return Result(e2e, layers, attempted, failed, extra)


RUNNERS = {
    "online": online,
    "bulk": bulk,
    "cold-start": cold_start,
    "sharded-2w": sharded_2w,
}
