"""Basic (level-order) tree tiling — Algorithm 2 of the paper.

Starting at the subtree root, a tile is filled with the next ``n_t``
*non-leaf* nodes in level order; the procedure then recurses on every node a
tile out-edge points to. Minimizing each tile's depth this way naturally
rebalances imbalanced trees at larger tile sizes, and on a perfectly
balanced tree it reproduces the triangular tiling used by FAST.
"""

from __future__ import annotations

from collections import deque

from repro.forest.tree import NO_NODE, DecisionTree


def _level_order_tile(left: list[int], right: list[int], root: int, tile_size: int) -> list[int]:
    """Pick up to ``tile_size`` non-leaf nodes from ``root`` in level order."""
    tile: list[int] = []
    queue: deque[int] = deque([root])
    while queue and len(tile) < tile_size:
        node = queue.popleft()
        if left[node] == NO_NODE:
            continue
        tile.append(node)
        queue.append(left[node])
        queue.append(right[node])
    return tile


def basic_tiling(tree: DecisionTree, tile_size: int) -> list[list[int]]:
    """Tile ``tree`` with Algorithm 2; returns internal-node tile groups.

    Leaves are excluded (they implicitly form their own tiles). The returned
    tiling satisfies all four validity constraints of Section III-B1.
    """
    left = tree.left.tolist()
    right = tree.right.tolist()
    if left[0] == NO_NODE:
        return []
    tiles: list[list[int]] = []
    pending: deque[int] = deque([0])
    while pending:
        tile = _level_order_tile(left, right, pending.popleft(), tile_size)
        tiles.append(tile)
        pending.extend(out_tile_roots(left, right, tile))
    return tiles


def out_tile_roots(left: list[int], right: list[int], tile: list[int]) -> list[int]:
    """Internal nodes the out-edges of ``tile`` point to, in tile order.

    Those are the roots of the next tiles both tiling algorithms grow.
    """
    members = set(tile)
    return [
        child
        for node in tile
        for child in (left[node], right[node])
        if child not in members and left[child] != NO_NODE
    ]
