"""Sparse representation of tiled trees (Section V-B2).

Each tile carries an explicit child pointer; all children of a tile are
stored contiguously, so the LUT-selected child index is just an offset from
the pointer. Leaf values live in a separate scalar array:

* when *all* children of a tile are leaves, the tile's child pointer refers
  into the leaves array (encoded as ``-(leaf_base) - 1``) and the selected
  leaf is ``leaf_base + child_index``;
* a leaf whose siblings are not all leaves gets an extra "hop": the leaf
  tile becomes a dummy tile (its all-zeros LUT row routes every predicate
  pattern to child 0) whose single child is the value in the leaves array.

This eliminates both sources of array-layout bloat — leaf tiles stored as
full tiles and the empty slots of positional indexing — at the cost of one
pointer per tile and the occasional extra hop, matching the paper's
accounting (≈6.8x smaller than the array layout at tile size 8, within
~16% of the scalar representation).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import LayoutError
from repro.hir.tiling.shapes import DUMMY_SHAPE, ShapeRegistry, storage_width
from repro.hir.tiling.tile import TiledTree


@dataclass
class SparseGroupLayout:
    """Stacked sparse-layout buffers for one tree group.

    Attributes
    ----------
    thresholds, features:
        ``(k, T, n_t)`` node parameters per tile (padding positions hold
        ``+inf`` / feature 0).
    shape_ids:
        ``(k, T)`` LUT row per tile.
    child_base:
        ``(k, T)`` child pointers. Non-negative: index of the first child
        tile. Negative: the children are leaves; the first leaf index is
        ``-(child_base) - 1``.
    leaves:
        ``(k, L)`` leaf value array.
    num_tiles, num_leaves:
        ``(k,)`` true sizes per tree (buffers are padded to group maxima).
    root_leaf:
        ``(k,)`` bool; True for degenerate single-leaf trees, whose value is
        ``leaves[lane, 0]``.
    """

    kind = "sparse"
    tile_size: int
    tree_indices: list[int]
    class_ids: np.ndarray
    thresholds: np.ndarray
    features: np.ndarray
    shape_ids: np.ndarray
    child_base: np.ndarray
    leaves: np.ndarray
    num_tiles: np.ndarray
    num_leaves: np.ndarray
    root_leaf: np.ndarray
    #: number of hop tiles inserted, for memory-overhead reporting
    hops_added: int = 0

    @property
    def num_trees(self) -> int:
        return len(self.tree_indices)

    def nbytes(self) -> int:
        """Total buffer footprint in bytes."""
        return (
            self.thresholds.nbytes
            + self.features.nbytes
            + self.shape_ids.nbytes
            + self.child_base.nbytes
            + self.leaves.nbytes
        )


def _flatten_tree(tiled: TiledTree) -> tuple[list, list, list, list, int]:
    """Flatten one tiled tree into sparse records.

    Returns ``(shapes, nodes, bases, leaf_values, hops)``: per record its
    shape key (:data:`DUMMY_SHAPE` for dummy and hop tiles), node ids and
    child base, then the leaf value array and the number of hops added.
    Records are laid out breadth-first, which keeps every tile's children
    contiguous.
    """
    tiles = tiled.tiles
    value = tiled.tree.value.tolist()
    shapes: list = []
    nodes: list[tuple[int, ...]] = []
    bases: list[int] = []
    leaf_values: list[float] = []
    hops = 0
    # (tile id, is a hop) per record, in record order: a record is queued
    # when its parent is processed, so the list doubles as the BFS queue.
    entries = [(0, False)]
    for tid, hop in entries:
        tile = tiles[tid]
        if hop or tile.is_dummy:
            shapes.append(DUMMY_SHAPE)
            nodes.append(())
        else:
            shapes.append(tile.shape)
            nodes.append(tile.nodes)
        if hop:
            # A hop tile's single child is the original leaf's value.
            bases.append(-len(leaf_values) - 1)
            leaf_values.append(value[tile.nodes[0]])
            continue
        children = [tiles[c] for c in tile.children]
        if all(c.is_leaf for c in children):
            bases.append(-len(leaf_values) - 1)
            leaf_values.extend(value[c.nodes[0]] for c in children)
            continue
        # Mixed or all-tile children: every child must be a tile; leaf
        # children are promoted to hop tiles.
        bases.append(len(entries))
        for child in children:
            entries.append((child.tile_id, child.is_leaf))
            hops += child.is_leaf
    return shapes, nodes, bases, leaf_values, hops


def tile_node_index(nodes: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(tile, position, node)`` index arrays over every node of ``nodes``.

    ``nodes[t]`` holds the node ids of tile ``t`` in lane order; the three
    arrays address ``buffer[t, position] = tree_array[node]`` in one
    fancy-indexed assignment.
    """
    sizes = np.fromiter(map(len, nodes), dtype=np.int64, count=len(nodes))
    tile = np.repeat(np.arange(len(nodes)), sizes)
    starts = np.cumsum(sizes) - sizes
    position = np.arange(tile.size) - np.repeat(starts, sizes)
    node = np.fromiter(chain.from_iterable(nodes), dtype=np.int64, count=tile.size)
    return tile, position, node


def build_sparse_layout(
    tiled_trees: list[TiledTree],
    tree_indices: list[int],
    class_ids: np.ndarray,
    registry: ShapeRegistry,
) -> SparseGroupLayout:
    """Materialize stacked sparse-layout buffers for the given trees."""
    if not tree_indices:
        raise LayoutError("cannot build a layout for an empty group")
    nt = tiled_trees[tree_indices[0]].tile_size

    per_tree = []
    total_hops = 0
    for idx in tree_indices:
        tiled = tiled_trees[idx]
        if tiled.tile_size != nt:
            raise LayoutError("mixed tile sizes within one group")
        if tiled.root.is_leaf:
            value = float(tiled.tree.value[tiled.root.nodes[0]])
            per_tree.append(([], [], [], [value], True))
            continue
        shapes, nodes, bases, leaf_values, hops = _flatten_tree(tiled)
        total_hops += hops
        per_tree.append((shapes, nodes, bases, leaf_values, False))

    k = len(tree_indices)
    width = storage_width(nt)
    max_tiles = max(max(len(rec[0]) for rec in per_tree), 1)
    max_leaves = max(len(rec[3]) for rec in per_tree)
    thresholds = np.full((k, max_tiles, width), np.inf, dtype=np.float64)
    features = np.zeros((k, max_tiles, width), dtype=np.int32)
    shape_ids = np.zeros((k, max_tiles), dtype=np.int16)
    child_base = np.full((k, max_tiles), -1, dtype=np.int32)
    leaves = np.zeros((k, max_leaves), dtype=np.float64)
    num_tiles = np.zeros(k, dtype=np.int32)
    num_leaves = np.zeros(k, dtype=np.int32)
    root_leaf = np.zeros(k, dtype=bool)

    for lane, (idx, (shapes, nodes, bases, leaf_values, is_root_leaf)) in enumerate(
        zip(tree_indices, per_tree)
    ):
        tree = tiled_trees[idx].tree
        root_leaf[lane] = is_root_leaf
        num_tiles[lane] = len(shapes)
        num_leaves[lane] = len(leaf_values)
        leaves[lane, : len(leaf_values)] = leaf_values
        if not shapes:
            continue
        shape_ids[lane, : len(shapes)] = [registry.register(shape) for shape in shapes]
        child_base[lane, : len(bases)] = bases
        tile, position, node = tile_node_index(nodes)
        thresholds[lane, tile, position] = tree.threshold[node]
        features[lane, tile, position] = tree.feature[node]
    return SparseGroupLayout(
        tile_size=nt,
        tree_indices=list(tree_indices),
        class_ids=np.asarray(class_ids, dtype=np.int32),
        thresholds=thresholds,
        features=features,
        shape_ids=shape_ids,
        child_base=child_base,
        leaves=leaves,
        num_tiles=num_tiles,
        num_leaves=num_leaves,
        root_leaf=root_leaf,
        hops_added=total_hops,
    )
