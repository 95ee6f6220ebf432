"""Byte-identity pins for the compiler's output.

Each corner compiles a seeded random forest and hashes everything the
compiler hands to the backend: the traversal LUT, every group's layout
buffers (plus its hot-split plan), the class ids, the quantization tables
and the generated kernel source. The digests were recorded before the
compile-time optimisations of the HIR/LIR passes; any change to what is
compiled — a reordered shape id, one moved tile — shows up as a changed
digest, so compile-speed work must leave every pin untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import random_forest_model
from repro.api import compile_model
from repro.config import Schedule
from repro.forest.statistics import is_leaf_biased, populate_node_probabilities

#: leaf-bias thresholds under which the pin forest mixes biased and
#: unbiased trees, so hybrid tiling takes both of its paths
HYBRID = {"alpha": 0.3, "beta": 0.6}

CORNERS = {
    "t1-basic-array": Schedule(tile_size=1, tiling="basic", layout="array"),
    "t3-probability-sparse": Schedule(tile_size=3, tiling="probability"),
    "t4-hybrid-array-nopad": Schedule(
        tile_size=4, layout="array", pad_and_unroll=False, **HYBRID
    ),
    "t5-optimal-sparse": Schedule(tile_size=5, tiling="optimal"),
    "t8-hybrid-sparse": Schedule(**HYBRID),
    "t8-basic-sparse-pgo2": Schedule(tiling="basic", pgo=2),
    "t4-probability-sparse-int8": Schedule(
        tile_size=4, tiling="probability", precision="int8"
    ),
    "t8-basic-array-nopad": Schedule(tiling="basic", layout="array", pad_and_unroll=False),
}

#: corner -> (buffers digest, kernel source digest)
PINS = {
    "t1-basic-array": (
        "b2514b3a40d688e21d796737d0beee4b090888938a52d81a69b71b4143b94637",
        "3cbdacc2534346a844c3ea7346b105985bf74d64b3b580ccb5dcca65e57fbcd2",
    ),
    "t3-probability-sparse": (
        "80cd43134ef12a63174616e265518a20ffe740e665d23dde04a18b33df62ff71",
        "33fe821b432aed4979fb0f889706ba5e162a3497bd89891d7d99a74c248c527c",
    ),
    "t4-hybrid-array-nopad": (
        "9feb882efd7101abe690795c5898a2ff442ef1c17384a239f4e06ef0c1448daa",
        "d7f29ff79bf40b635bb9b69c8293d71f1db9f4c46dbd4f72466210bd1021433a",
    ),
    "t5-optimal-sparse": (
        "d4908ef78de0f2dae1d7cbdce733f413438e6fa572333b9cb0d40223d8a6e4ac",
        "daaf6588954c34cfac6130a0387645edd842f4c95bcd06e198767f35f9088bba",
    ),
    "t8-hybrid-sparse": (
        "93c6f1367b0d201c2a91a5846ef33a2c9f2cd925c9c7305b17e3cf08e0544f0e",
        "b05492c3b158579668e2d6e027176a6d77b2b1d44a8c0205e75de5dcdea6cc5a",
    ),
    "t8-basic-sparse-pgo2": (
        "66f17414a328f730b2d67ae1a4de3d627b96cabb69dfa68fdd4202bbe5589fd0",
        "fb085c7bf30767e24681665c16b8df2642b6ebbc71994d17f9827fd238809a72",
    ),
    "t4-probability-sparse-int8": (
        "8c2a49df4a9323bbd1fdabb3c4883963fc0e7dee5fa87d06cd547f923c227312",
        "47efaaa466ebb8dac061b08db3ea28b5680cab341095246a1bef7d85028ba5b1",
    ),
    "t8-basic-array-nopad": (
        "4fdb0f9c458542d6f294f5666df74a79ea7cf82e99f825d435836dcec86b6d5f",
        "8c0ae6edd2a41d8e0698b045324fc35b1345b3ea3e607d2dabadb8d8f4a6e691",
    ),
}


@pytest.fixture(scope="module")
def pin_forest():
    rng = np.random.default_rng(2022)
    forest = random_forest_model(rng, num_trees=24, max_depth=7, num_features=6)
    # Skewed rows make the visit probabilities (and so the probability
    # and hybrid tilings) far from uniform.
    rows = rng.normal(size=(600, 6)) * np.array([0.3, 1.0, 2.0, 0.5, 1.5, 1.0])
    populate_node_probabilities(forest, rows)
    return forest


def _feed(digest, name: str, value) -> None:
    digest.update(name.encode())
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    else:
        digest.update(repr(value).encode())


def lir_digest(lir) -> str:
    """sha256 over every buffer of ``lir``, in a fixed order."""
    digest = hashlib.sha256()
    _feed(digest, "lut", lir.lut)
    _feed(digest, "dummy", lir.dummy_shape_id)
    for group in lir.groups:
        _feed(digest, "group", (group.group_id, group.trivial, group.hot))
        _feed(digest, "class_ids", group.class_ids)
        layout = group.layout
        for field in dataclasses.fields(layout):
            _feed(digest, field.name, getattr(layout, field.name))
    if lir.quant is not None:
        for field in dataclasses.fields(lir.quant):
            _feed(digest, field.name, getattr(lir.quant, field.name))
    return digest.hexdigest()


def test_pin_forest_mixes_leaf_biased_and_unbiased_trees(pin_forest):
    biased = [is_leaf_biased(t, **HYBRID) for t in pin_forest.trees]
    assert any(biased) and not all(biased)


@pytest.mark.parametrize("corner", sorted(CORNERS))
def test_compiled_bytes_pinned(pin_forest, corner):
    predictor = compile_model(pin_forest, CORNERS[corner])
    got = (
        lir_digest(predictor.lir),
        hashlib.sha256(predictor.source.encode()).hexdigest(),
    )
    assert got == PINS[corner]
