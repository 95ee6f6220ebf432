"""Array-based representation of tiled trees (Section V-B1).

Each tree is an array of tiles with implicit positional child indexing: the
root tile is at slot 0 and the ``i``-th child of the tile at slot ``n`` is
at slot ``(n_t + 1)·n + (i + 1)``. The representation is simple and fast for
small models but bloats for larger ones — leaves occupy full tile slots and
incomplete trees leave empty slots — which is exactly the behaviour the
paper measures (≈8x the scalar footprint on average) and the motivation for
the sparse representation.

Layouts are built per *tree group* with all member trees stacked along the
leading axis, so a single vectorized walk can advance many trees at once
(the LIR realization of tree-walk interleaving).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LayoutError
from repro.hir.tiling.shapes import DUMMY_SHAPE, ShapeRegistry, storage_width
from repro.hir.tiling.tile import TiledTree
from repro.lir.layout.sparse_layout import tile_node_index

#: shape-id sentinel for leaf slots
LEAF_SLOT = -1
#: shape-id sentinel for unused (empty) slots
EMPTY_SLOT = -2

#: Default cap on slots per tree; positional indexing grows as (n_t+1)^depth,
#: so runaway configurations are rejected instead of exhausting memory.
MAX_SLOTS_PER_TREE = 2_000_000


@dataclass
class ArrayGroupLayout:
    """Stacked array-layout buffers for one tree group.

    Attributes
    ----------
    thresholds, features:
        ``(k, S, n_t)`` per-slot node parameters; padding positions hold
        ``+inf`` / feature 0 so speculative evaluation is harmless.
    shape_ids:
        ``(k, S)`` LUT row per slot, :data:`LEAF_SLOT` for leaves,
        :data:`EMPTY_SLOT` for holes.
    leaf_values:
        ``(k, S)`` prediction value at leaf slots (0 elsewhere).
    class_ids:
        ``(k,)`` output class per member tree.
    """

    kind = "array"
    tile_size: int
    tree_indices: list[int]
    class_ids: np.ndarray
    thresholds: np.ndarray
    features: np.ndarray
    shape_ids: np.ndarray
    leaf_values: np.ndarray

    @property
    def num_trees(self) -> int:
        return len(self.tree_indices)

    @property
    def num_slots(self) -> int:
        return self.shape_ids.shape[1]

    def nbytes(self) -> int:
        """Total buffer footprint in bytes."""
        return (
            self.thresholds.nbytes
            + self.features.nbytes
            + self.shape_ids.nbytes
            + self.leaf_values.nbytes
        )


def _slot_assignment(tiled: TiledTree) -> list[int]:
    """Positional slot of every tile id: child i of slot n -> (n_t+1)n + i + 1."""
    arity = tiled.tile_size + 1
    tiles = tiled.tiles
    slots = [0] * len(tiles)
    stack = [0]
    while stack:
        tid = stack.pop()
        base = slots[tid] * arity + 1
        for i, child in enumerate(tiles[tid].children):
            slots[child] = base + i
            stack.append(child)
    return slots


def build_array_layout(
    tiled_trees: list[TiledTree],
    tree_indices: list[int],
    class_ids: np.ndarray,
    registry: ShapeRegistry,
    max_slots: int = MAX_SLOTS_PER_TREE,
) -> ArrayGroupLayout:
    """Materialize stacked array-layout buffers for the given trees.

    Raises :class:`LayoutError` when positional indexing would need more
    than ``max_slots`` slots for some tree (deep, skinny tiled trees).
    """
    if not tree_indices:
        raise LayoutError("cannot build a layout for an empty group")
    nt = tiled_trees[tree_indices[0]].tile_size
    assignments = []
    num_slots = 0
    for idx in tree_indices:
        tiled = tiled_trees[idx]
        if tiled.tile_size != nt:
            raise LayoutError("mixed tile sizes within one group")
        slots = _slot_assignment(tiled)
        top = max(slots) + 1
        if top > max_slots:
            raise LayoutError(
                f"array layout for tree {tiled.tree.tree_id} needs {top} slots "
                f"(> {max_slots}); use the sparse layout"
            )
        assignments.append(slots)
        num_slots = max(num_slots, top)

    k = len(tree_indices)
    width = storage_width(nt)
    thresholds = np.full((k, num_slots, width), np.inf, dtype=np.float64)
    features = np.zeros((k, num_slots, width), dtype=np.int32)
    shape_ids = np.full((k, num_slots), EMPTY_SLOT, dtype=np.int16)
    leaf_values = np.zeros((k, num_slots), dtype=np.float64)

    for lane, (idx, slots) in enumerate(zip(tree_indices, assignments)):
        tiled = tiled_trees[idx]
        tree = tiled.tree
        leaf_tiles = [t for t in tiled.tiles if t.is_leaf]
        leaf_slots = [slots[t.tile_id] for t in leaf_tiles]
        shape_ids[lane, leaf_slots] = LEAF_SLOT
        leaf_values[lane, leaf_slots] = tree.value[[t.nodes[0] for t in leaf_tiles]]
        # Dummy tiles route to child 0 through the reserved all-zeros
        # LUT row, independent of the +inf / feature-0 fill.
        walk_tiles = [t for t in tiled.tiles if not t.is_leaf]
        walk_slots = np.array([slots[t.tile_id] for t in walk_tiles], dtype=np.int64)
        shape_ids[lane, walk_slots] = [
            registry.register(DUMMY_SHAPE if t.is_dummy else t.shape) for t in walk_tiles
        ]
        tile, position, node = tile_node_index([t.nodes for t in walk_tiles])
        thresholds[lane, walk_slots[tile], position] = tree.threshold[node]
        features[lane, walk_slots[tile], position] = tree.feature[node]
    return ArrayGroupLayout(
        tile_size=nt,
        tree_indices=list(tree_indices),
        class_ids=np.asarray(class_ids, dtype=np.int32),
        thresholds=thresholds,
        features=features,
        shape_ids=shape_ids,
        leaf_values=leaf_values,
    )
