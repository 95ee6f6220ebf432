"""Probability-based tree tiling — Algorithm 1 of the paper.

For leaf-biased trees, minimizing the *expected* number of tile evaluations
``sum_l p_l * depth(l)`` beats minimizing tile depth uniformly: hot leaves
should surface early even at the cost of deepening cold ones. The greedy
algorithm grows each tile from its root by repeatedly absorbing the most
probable non-leaf node on the tile frontier, then recurses on the out-edges.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.errors import TilingError
from repro.forest.statistics import uniform_node_probabilities
from repro.forest.tree import NO_NODE, DecisionTree
from repro.hir.tiling.basic import out_tile_roots


def _grow_tile(
    left: list[int], right: list[int], root: int, tile_size: int, prob: list[float]
) -> list[int]:
    """Grow one tile greedily by max-probability frontier expansion."""
    tile = [root]
    members = {root}
    while len(tile) < tile_size:
        best = -1
        best_p = -1.0
        for node in tile:
            for child in (left[node], right[node]):
                if child in members or left[child] == NO_NODE:
                    continue
                # Deterministic tie-break on node id keeps tilings stable.
                p = prob[child]
                if p > best_p or (p == best_p and child < best):
                    best = child
                    best_p = p
        if best < 0:
            break
        tile.append(best)
        members.add(best)
    return tile


def probability_tiling(
    tree: DecisionTree, tile_size: int, probabilities: np.ndarray | None = None
) -> list[list[int]]:
    """Tile ``tree`` with Algorithm 1; returns internal-node tile groups.

    Parameters
    ----------
    probabilities:
        Per-node visit probabilities. Defaults to ``tree.node_probability``;
        if the tree carries none, uniform (2^-depth) probabilities are used
        so the algorithm stays well-defined (it then behaves close to a
        depth-minimizing greedy).
    """
    if tree.is_leaf(0):
        return []
    prob = probabilities if probabilities is not None else tree.node_probability
    if prob is None:
        prob = uniform_node_probabilities(tree)
    prob = np.asarray(prob, dtype=np.float64)
    if prob.shape != (tree.num_nodes,):
        raise TilingError("probability array shape does not match the tree")

    prob = prob.tolist()
    left = tree.left.tolist()
    right = tree.right.tolist()
    tiles: list[list[int]] = []
    pending: deque[int] = deque([0])
    while pending:
        tile = _grow_tile(left, right, pending.popleft(), tile_size, prob)
        tiles.append(tile)
        pending.extend(out_tile_roots(left, right, tile))
    return tiles
