"""The vectorised traversal-LUT builder against the per-pattern oracle.

``lut_rows`` builds every LUT row in a few numpy steps; the reference is
``shape_child_for_bits``, which walks one tile for one predicate pattern.
They must agree on every shape of sizes 1-8 at every width from the shape
size up to 8, and the LIR's widened table must equal a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TilingError
from repro.hir.tiling.shapes import (
    DUMMY_SHAPE,
    ShapeRegistry,
    all_shapes_of_size,
    left_chain_shape,
    lut_rows,
    shape_child_for_bits,
    storage_width,
)

MAX_WIDTH = 8


@pytest.mark.parametrize("size", range(1, MAX_WIDTH + 1))
def test_lut_rows_match_oracle_on_every_shape_and_width(size):
    shapes = list(all_shapes_of_size(size))
    oracle = np.array(
        [[shape_child_for_bits(s, bits) for bits in range(1 << MAX_WIDTH)] for s in shapes]
    )
    for width in range(size, MAX_WIDTH + 1):
        rows = lut_rows(shapes, width)
        assert rows.shape == (len(shapes), 1 << width)
        assert rows.dtype == np.int8
        np.testing.assert_array_equal(rows, oracle[:, : 1 << width])


def test_mixed_sizes_in_one_build():
    shapes = [s for size in (3, 1, 2) for s in all_shapes_of_size(size)]
    rows = lut_rows(shapes, 4)
    for row, shape in zip(rows, shapes):
        assert row.tolist() == [shape_child_for_bits(shape, bits) for bits in range(16)]


def test_dummy_row_is_all_zeros():
    shapes = [left_chain_shape(3), DUMMY_SHAPE, ((1, 2), (-1, -1), (-1, -1))]
    rows = lut_rows(shapes, 3)
    assert not rows[1].any()
    assert rows[0].any() and rows[2].any()
    assert not lut_rows([DUMMY_SHAPE], 8).any()

    reg = ShapeRegistry(3)
    for shape in shapes:
        reg.register(shape)
    lut = reg.build_lut()
    assert not lut[reg.dummy_id].any()


@pytest.mark.parametrize("tile_size", [1, 3, 4, 5, 6, 7, 8])
def test_registry_grown_after_build_widens_like_a_fresh_build(tile_size):
    reg = ShapeRegistry(tile_size)
    for size in range(1, tile_size + 1):
        for shape in all_shapes_of_size(size)[:3]:
            reg.register(shape)
    hir_lut = reg.build_lut()
    # Layouts register the reserved dummy shape after the HIR build.
    reg.register(DUMMY_SHAPE)
    width = storage_width(tile_size)
    grown = reg.widen_lut(hir_lut, width)
    np.testing.assert_array_equal(grown, reg.build_lut(width))
    # No growth: widening alone.
    widened = reg.widen_lut(reg.build_lut(), width)
    np.testing.assert_array_equal(widened, reg.build_lut(width))
    # Row-major like a fresh build, so row-wise readers see the same layout.
    assert grown.flags.c_contiguous and widened.flags.c_contiguous


def test_empty_registry_placeholder_row():
    reg = ShapeRegistry(4)
    hir_lut = reg.build_lut()
    assert hir_lut.shape == (1, 16) and not hir_lut.any()
    np.testing.assert_array_equal(reg.widen_lut(hir_lut, 8), reg.build_lut(8))
    # A real shape registered after an empty build replaces the placeholder.
    reg.register(all_shapes_of_size(2)[0])
    np.testing.assert_array_equal(reg.widen_lut(hir_lut, 8), reg.build_lut(8))


def test_widen_lut_width_guard():
    reg = ShapeRegistry(4)
    reg.register(left_chain_shape(4))
    with pytest.raises(TilingError):
        reg.widen_lut(reg.build_lut(), 2)


def test_invalid_shape_rejected_on_every_registration():
    reg = ShapeRegistry(4)
    bad = ((1, 1),)
    for _ in range(2):
        with pytest.raises(TilingError):
            reg.register(bad)
    assert reg.num_shapes == 0
