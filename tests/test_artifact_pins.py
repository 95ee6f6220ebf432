"""Byte-identity pins for the AOT artifact format.

An artifact directory is a stable on-disk format: a loader built from one
commit must read what any other commit of the same
``ARTIFACT_FORMAT_VERSION`` wrote. These pins hash every file an export
writes for a seeded forest under three schedules (the default, int8 and
profiled), so a change to how a model image is assembled or written
shows up here first. Moving a pin means the format changed, and that
change needs a version bump, not a re-pin.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.backend.aot import ARTIFACT_FORMAT_VERSION, export_artifact
from repro.config import Schedule
from repro.verify.fuzz import random_fuzz_forest

SCHEDULES = {
    "default": Schedule(),
    "int8": Schedule(precision="int8"),
    "profile": Schedule(profile=True),
}

#: schedule -> {file: sha256}; "buffers/*.npy" is one digest over the
#: sorted "<name> <sha256>" lines of every buffer file
PINS = {
    "default": {
        "MANIFEST.json": "55500389f4739f0da984d22a91b2aa76dc962d1fbe86972d0f10466fa5c83091",
        "kernel.py": "5bf8c32262ad30365a20582fba412543fc5b4f3dcd664aad888d2843356f54c0",
        "schedule.json": "320ac161e082dcc307b5794d28ad869201615534b2891dacc3b96a42e5c122b4",
        "buffers/*.npy": "0e7f4f0c73b5d477eb16cd5cb66fb490a51fa162c61f32b96e0e6b7989b11769",
    },
    "int8": {
        "MANIFEST.json": "b3f27f5ce2b46f1c24933cbe4403adca151299c7a557d8654d40ef41a5d71081",
        "kernel.py": "ae2e9b4a1470424f169e1a86af1e4ea543a8303b44bb8a8024ffde0738b93e99",
        "schedule.json": "7bfd1503cd6408a50ca767bd0bc21a3cf8c1478beca6421c75f63a635a25c22c",
        "buffers/*.npy": "f24f9b40c58657921faa3a3808519e8449bdbfdf1d82bedffc57f07c1dd2a5b1",
    },
    "profile": {
        "MANIFEST.json": "a40c42d8fe5dedc2309e8a19b9407666074a242040d0423384bab400cb56c2d0",
        "kernel.py": "aedc1362a5508885665d43211941fe55ddfcefe0ce2b6b7c854f318bfb5b3a5b",
        "schedule.json": "04609b7679516a975906fed9e70d9fb8981b5e78fc6871f5cfc357a1f64831b3",
        "buffers/*.npy": "0e7f4f0c73b5d477eb16cd5cb66fb490a51fa162c61f32b96e0e6b7989b11769",
    },
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def artifact_digests(out: Path) -> dict[str, str]:
    buffers = sorted((out / "buffers").glob("*.npy"))
    lines = "".join(f"{p.name} {_sha(p)}\n" for p in buffers)
    return {
        "MANIFEST.json": _sha(out / "MANIFEST.json"),
        "kernel.py": _sha(out / "kernel.py"),
        "schedule.json": _sha(out / "schedule.json"),
        "buffers/*.npy": hashlib.sha256(lines.encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def forest():
    return random_fuzz_forest(np.random.default_rng(13), num_trees=8, max_depth=5)


def test_format_version_is_two():
    assert ARTIFACT_FORMAT_VERSION == 2


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_artifact_bytes_are_pinned(tmp_path, forest, name):
    out = export_artifact(forest, tmp_path / name, SCHEDULES[name])
    files = sorted(
        str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()
    )
    assert [f for f in files if not f.startswith("buffers/")] == [
        "MANIFEST.json", "kernel.py", "schedule.json",
    ]
    assert artifact_digests(out) == PINS[name]
