"""Self-check of the benchmark itself (not of the library).

Run from the repository root::

    python3 -m pytest perfbench -q

It runs every workload on tiny forests for one second, untraced and traced,
and checks that each run's result line names every metric of
``BENCHMARK.json`` with its unit; that a corrupted output is counted as a
failure; that a run leaves no process behind; and that the benchmark
refuses to run without the library sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import multiprocessing
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import run  # noqa: E402  (perfbench/ is on sys.path: this file's directory)
import spec  # noqa: E402

run._import_library()

from multiprocessing import resource_tracker  # noqa: E402

from repro.backend.predictor import KernelExecutor  # noqa: E402
from repro.serve.workers import ShardedPredictor  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(workload: str, trace: int = 0) -> tuple[str, dict]:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv, small=True) == 0
    text = out.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def test_manifest_matches_spec():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == spec.manifest()


def test_manifest_within_contract_limits():
    doc = spec.manifest()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16 and 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_metric_emitted_with_unit(workload, trace):
    text, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == spec.metric_units(bool(trace))
    for name, metric in result["metrics"].items():
        assert np.isfinite(metric["value"]), name
        assert re.search(rf"^\s+{re.escape(name)}\s", text, re.M), f"{name} not printed"
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.search(r"^\s+fail_frac\s+0\s", text, re.M)


@pytest.mark.parametrize("workload", ["online", "bulk", "cold-start"])
def test_corrupted_output_raises_fail_frac(workload, monkeypatch):
    raw_predict = KernelExecutor.raw_predict

    def corrupted(self, rows, *args, **kwargs):
        return raw_predict(self, rows, *args, **kwargs) + 1e-3

    monkeypatch.setattr(KernelExecutor, "raw_predict", corrupted)
    text, result = _run(workload)
    assert result["correct"] is False
    assert result["failed"] > 0
    fail_frac = float(re.search(r"^\s+fail_frac\s+(\S+)", text, re.M).group(1))
    assert fail_frac > 0


def test_sharded_output_checked_bitwise(monkeypatch):
    """One ulp off is within the tolerance but not bitwise equal to the
    serial shard reference, so it must still count as a failure."""
    raw_predict = ShardedPredictor.raw_predict

    def one_ulp_off(self, rows, *args, **kwargs):
        out = raw_predict(self, rows, *args, **kwargs)
        return np.nextafter(out, np.inf)

    monkeypatch.setattr(ShardedPredictor, "raw_predict", one_ulp_off)
    _, result = _run("sharded-2w")
    assert result["failed"] > 0


def test_run_leaves_no_process_behind():
    """The shard workers and the resource tracker that shared memory
    starts are both ended, and waited for, before a run returns."""
    _run("sharded-2w")
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
