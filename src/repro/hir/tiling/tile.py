"""Tiled trees: the n-ary trees produced by tree tiling.

A :class:`TiledTree` wraps a binary :class:`~repro.forest.tree.DecisionTree`
together with a valid tiling of its nodes. Internal tiles hold up to
``tile_size`` original internal nodes (canonically ordered, with a shape key
from :mod:`repro.hir.tiling.shapes`); every original leaf becomes its own
leaf tile (the *leaf separation* constraint). Tree padding may additionally
insert *dummy* tiles — tiles with no original nodes whose predicates are
always true, so the walk deterministically falls through to child 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import TilingError
from repro.forest.tree import NO_NODE, DecisionTree
from repro.hir.tiling.shapes import (
    ShapeKey,
    canonical_tile,
    left_chain_shape,
    out_edge_order,
    shape_child_for_bits,
)
from repro.hir.tiling.validity import check_valid_tiling


@dataclass(slots=True)
class Tile:
    """One tile of a tiled tree.

    Attributes
    ----------
    tile_id:
        Index of this tile within its :class:`TiledTree`.
    nodes:
        Original node ids in intra-tile level order; a single leaf id for
        leaf tiles; empty for dummy tiles.
    shape:
        Canonical shape key (``None`` for leaf tiles).
    children:
        Child tile ids in left-to-right out-edge order. Internal tiles with
        ``k`` nodes have exactly ``k + 1`` children; dummy tiles have one;
        leaf tiles none.
    parent:
        Parent tile id, or -1 for the root tile.
    depth:
        Distance from the root tile.
    probability:
        Probability a walk visits this tile (from the tile root node's
        training statistics); 0 when statistics are unavailable.
    is_leaf / is_dummy:
        Tile kind flags.
    """

    tile_id: int
    nodes: tuple[int, ...]
    shape: ShapeKey | None
    children: list[int] = field(default_factory=list)
    parent: int = -1
    depth: int = 0
    probability: float = 0.0
    is_leaf: bool = False
    is_dummy: bool = False

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


class TiledTree:
    """A decision tree together with a valid tiling (possibly padded).

    Tile 0 is always the root tile. Use :meth:`from_tiling` to construct from
    the output of a tiling algorithm; the constructor itself takes an already
    materialized tile list (used by padding, which rewrites the list).
    """

    def __init__(self, tree: DecisionTree, tile_size: int, tiles: list[Tile]) -> None:
        self.tree = tree
        self.tile_size = int(tile_size)
        self.tiles = tiles

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_tiling(
        cls,
        tree: DecisionTree,
        internal_tiles: list[list[int]],
        tile_size: int,
        validate: bool = True,
        shape_memo: dict | None = None,
    ) -> "TiledTree":
        """Materialize a :class:`TiledTree` from internal-node tile groups.

        ``internal_tiles`` partitions the tree's internal nodes; leaf tiles
        are created implicitly. When ``validate`` is set the four validity
        constraints of Section III-B1 are checked first. ``shape_memo``
        maps each shape seen so far to ``(shape, out_edge_order(shape))``;
        sharing one across the trees of a compile computes each out-edge
        order once and lets every tile of a shape hold the same key object.
        """
        if validate:
            check_valid_tiling(tree, internal_tiles, tile_size)
        left = tree.left.tolist()
        right = tree.right.tolist()
        prob = None if tree.node_probability is None else tree.node_probability.tolist()

        if left[0] == NO_NODE:
            leaf = Tile(
                tile_id=0,
                nodes=(0,),
                shape=None,
                is_leaf=True,
                probability=1.0 if prob is None else prob[0],
            )
            return cls(tree, tile_size, [leaf])

        # Which tile group does each internal node belong to?
        group_of_node: dict[int, int] = {}
        for gid, nodes in enumerate(internal_tiles):
            for n in nodes:
                group_of_node[n] = gid

        # Canonicalize each group: shape + ordered nodes + child node ids.
        if shape_memo is None:
            shape_memo = {}
        shapes: list[ShapeKey] = []
        ordered_nodes: list[tuple[int, ...]] = []
        child_nodes: list[list[int]] = []
        for nodes in internal_tiles:
            shape, ordered = canonical_tile(left, right, set(nodes))
            known = shape_memo.get(shape)
            if known is None:
                known = shape_memo[shape] = (shape, out_edge_order(shape))
            shape, edges = known
            shapes.append(shape)
            ordered_nodes.append(tuple(ordered))
            child_nodes.append(
                [
                    left[ordered[intra]] if side == "L" else right[ordered[intra]]
                    for intra, side in edges
                ]
            )

        # BFS from the group containing the root node; assign tile ids.
        root_group = group_of_node[0]
        root = Tile(
            tile_id=0,
            nodes=ordered_nodes[root_group],
            shape=shapes[root_group],
            probability=1.0 if prob is None else prob[0],
        )
        tiles = [root]
        queue: deque[tuple[int, Tile]] = deque([(root_group, root)])
        while queue:
            gid, parent = queue.popleft()
            parent_id = parent.tile_id
            depth = parent.depth + 1
            kids = parent.children
            for child_node in child_nodes[gid]:
                # Once per tile, so fields go positionally (tile_id, nodes,
                # shape, children, parent, depth, probability, is_leaf):
                # keyword arguments cost twice as much here.
                p = 0.0 if prob is None else prob[child_node]
                child_id = len(tiles)
                if left[child_node] == NO_NODE:
                    tile = Tile(child_id, (child_node,), None, [], parent_id, depth, p, True)
                else:
                    cgid = group_of_node[child_node]
                    tile = Tile(
                        child_id, ordered_nodes[cgid], shapes[cgid], [], parent_id, depth, p
                    )
                    queue.append((cgid, tile))
                tiles.append(tile)
                kids.append(child_id)
        return cls(tree, tile_size, tiles)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        return len(self.tiles)

    @property
    def root(self) -> Tile:
        return self.tiles[0]

    def leaf_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if t.is_leaf]

    def internal_tiles(self) -> list[Tile]:
        return [t for t in self.tiles if not t.is_leaf]

    def leaf_depth_range(self) -> tuple[int, int]:
        """``(min_leaf_depth, max_leaf_depth)`` in one pass over the tiles."""
        depths = [t.depth for t in self.tiles if t.is_leaf]
        return min(depths), max(depths)

    @property
    def max_leaf_depth(self) -> int:
        """Depth of the deepest leaf tile (= number of tile evaluations)."""
        return self.leaf_depth_range()[1]

    @property
    def min_leaf_depth(self) -> int:
        return self.leaf_depth_range()[0]

    @property
    def is_uniform_depth(self) -> bool:
        """True when every leaf tile sits at the same depth (padded trees)."""
        low, high = self.leaf_depth_range()
        return low == high

    def expected_walk_length(self) -> float:
        """Expected number of tile evaluations per inference.

        This is the objective probability-based tiling minimizes
        (Section III-C): ``sum_l p_l * depth(l)`` over leaf tiles.
        """
        return float(sum(t.probability * t.depth for t in self.leaf_tiles()))

    def structure_signature(self) -> tuple:
        """Hashable key for tiled-structure isomorphism (tree reordering)."""
        sig: list = []
        stack = [0]
        while stack:
            tid = stack.pop()
            tile = self.tiles[tid]
            if tile.is_leaf:
                sig.append("L")
            elif tile.is_dummy:
                sig.append(("D", len(tile.children)))
            else:
                sig.append(tile.shape)
            for child in reversed(tile.children):
                stack.append(child)
        return tuple(sig)

    # ------------------------------------------------------------------
    # Reference traversal
    # ------------------------------------------------------------------
    def tile_bits(self, tile: Tile, row: np.ndarray) -> int:
        """Predicate outcomes of all nodes in ``tile`` packed into an int.

        This is the speculative evaluation of Section III-B: every node in
        the tile is evaluated regardless of which ones the binary walk would
        visit. Dummy tiles compare true on every (padding) node.
        """
        if tile.is_dummy:
            return (1 << self.tile_size) - 1
        bits = 0
        tree = self.tree
        for i, node in enumerate(tile.nodes):
            if row[tree.feature[node]] < tree.threshold[node]:
                bits |= 1 << i
        return bits

    def walk_row(self, row: np.ndarray) -> float:
        """Reference tiled walk for one row (mirrors the §III-B listing)."""
        tile = self.tiles[0]
        while not tile.is_leaf:
            if tile.is_dummy:
                tile = self.tiles[tile.children[0]]
                continue
            bits = self.tile_bits(tile, row)
            child_idx = shape_child_for_bits(tile.shape, bits)
            tile = self.tiles[tile.children[child_idx]]
        return float(self.tree.value[tile.nodes[0]])

    def walk_rows(self, rows: np.ndarray) -> np.ndarray:
        """Reference tiled walk over a batch (row loop in Python)."""
        return np.asarray([self.walk_row(row) for row in np.asarray(rows)])

    # ------------------------------------------------------------------
    # Padding support
    # ------------------------------------------------------------------
    def insert_dummy_chain(self, leaf_tile_id: int, length: int) -> None:
        """Insert ``length`` dummy tiles between a leaf tile and its parent.

        Used by :func:`repro.hir.padding.pad_to_uniform_depth`. Depths of the
        leaf tile are updated; other tiles are unaffected.
        """
        if length <= 0:
            return
        leaf = self.tiles[leaf_tile_id]
        if not leaf.is_leaf:
            raise TilingError("dummy chains may only be inserted above leaf tiles")
        parent_id = leaf.parent
        if parent_id < 0:
            raise TilingError("cannot pad the root tile")
        prev_id = parent_id
        slot = self.tiles[parent_id].children.index(leaf_tile_id)
        shape = left_chain_shape(self.tile_size)
        for i in range(length):
            dummy = Tile(
                tile_id=len(self.tiles),
                nodes=(),
                shape=shape,
                parent=prev_id,
                depth=leaf.depth + i,
                probability=leaf.probability,
                is_dummy=True,
            )
            self.tiles.append(dummy)
            if prev_id == parent_id:
                self.tiles[parent_id].children[slot] = dummy.tile_id
            else:
                self.tiles[prev_id].children.append(dummy.tile_id)
            prev_id = dummy.tile_id
        self.tiles[prev_id].children.append(leaf_tile_id)
        leaf.parent = prev_id
        leaf.depth += length

    def __repr__(self) -> str:
        return (
            f"TiledTree(tree_id={self.tree.tree_id}, tile_size={self.tile_size}, "
            f"tiles={self.num_tiles}, depth={self.max_leaf_depth})"
        )
