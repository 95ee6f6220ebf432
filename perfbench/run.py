"""The repository's benchmark: one workload per run, or all four in a row.

Usage (from the repository root)::

    python3 perfbench/run.py --workload bulk --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 3            # every workload, one table
    python3 perfbench/run.py --write-manifest    # regenerate BENCHMARK.json

The library is imported from ``src/`` next to this directory; without it
the benchmark exits with status 1 and prints no result. A run prints a
table of every metric with its unit, then, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` whose metrics are
the end-to-end ones (``--trace 0``) or the per-layer ones (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
from multiprocessing import resource_tracker
from pathlib import Path

from spec import (
    END_TO_END, PER_LAYER, RUN_SECONDS, UNGATED_UNITS, WORKLOADS, manifest, metric_units,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _import_library() -> None:
    """Put ``src/`` first on the path and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library sources at {SRC} (expected src/repro)")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {SRC}")


def _table(workload: str, result, traced: bool) -> str:
    units = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)} | UNGATED_UNITS
    rows = [(name, value, units[name]) for name, value in result.e2e.items()]
    rows.append(("fail_frac", result.failed / result.attempted, "fraction"))
    rows += [(name, value, unit) for name, (value, unit) in result.extra.items()]
    if traced:
        rows += [(name, value, units[name]) for name, value in result.layers.items()]
    width = max(len(name) for name, _, _ in rows)
    lines = [f"== {workload} ({'traced' if traced else 'untraced'}) =="]
    lines += [f"  {name:<{width}}  {value:>14.6g}  {unit}" for name, value, unit in rows]
    lines += [f"  checked outputs: {result.attempted}, failed: {result.failed}"]
    lines += [f"  NOTE: {note}" for note in result.notes]
    return "\n".join(lines)


def result_line(result, traced: bool) -> dict:
    """The contract's result object for one run."""
    values = result.layers if traced else result.e2e
    return {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in metric_units(traced).items()
        },
    }


def stop_processes(timeout: float = 10.0) -> None:
    """End every process this run started, and wait for each.

    Shard workers are joined (a server's ``close()`` normally has already
    ended them), then the multiprocessing resource tracker that shared
    memory starts is stopped: it would otherwise outlive the run, since it
    exits only once every holder of its pipe has exited.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv: list[str] | None = None, small: bool = False) -> int:
    """Run the benchmark; ``small`` swaps in tiny forests (self-check only)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0

    _import_library()
    from inputs import Inputs
    from workloads import RUNNERS

    inputs = Inputs(args.seed, small=small)
    traced = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = RUNNERS[name](inputs, args.seconds, traced)
            print(_table(name, results[name], traced), flush=True)
    finally:
        stop_processes()
    if args.workload:
        print(json.dumps(result_line(results[args.workload], traced)))
        return 0
    if {"bulk", "sharded-2w"} <= set(results):
        ratio = results["sharded-2w"].e2e["rows_per_s"] / results["bulk"].e2e["rows_per_s"]
        print(
            f"sharded-2w / bulk rows_per_s: {ratio:.3f}x (measured, this run); "
            "BENCH_PR10.json records 1.57x (modeled)"
        )
    print(json.dumps({name: result_line(r, traced) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
