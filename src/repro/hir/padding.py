"""Tree padding: making tiled trees uniform-depth with dummy tiles.

Section III-F: the compiler "pads trees with dummy tiles to make them
balanced", which lets the tree walk be fully unrolled without any leaf
checks (Section IV-B) and lets more trees share identical traversal code.
Dummy tiles carry always-true predicates, so they deterministically route to
their single (index 0) child; inserting a chain of ``d`` dummies above a leaf
tile raises that leaf's depth by ``d`` without changing predictions.

Padding is only worthwhile for *almost balanced* trees — the
``max_slack`` parameter bounds how much extra walking the padding may add.
"""

from __future__ import annotations

from repro.hir.tiling.tile import TiledTree


def padding_cost(tiled: TiledTree) -> float:
    """Expected number of extra tile evaluations padding would add."""
    target = tiled.max_leaf_depth
    return float(
        sum(t.probability * (target - t.depth) for t in tiled.leaf_tiles())
    )


def pad_to_uniform_depth(tiled: TiledTree, max_slack: int | None = None) -> bool:
    """Pad ``tiled`` in place so every leaf tile sits at the same depth.

    Parameters
    ----------
    max_slack:
        When given, padding is skipped (returning False) unless
        ``max_leaf_depth - min_leaf_depth <= max_slack`` — the "almost
        balanced" gate of Section III-F.

    Returns
    -------
    bool
        True when the tree is uniform-depth on return (padded now or
        already uniform), False when padding was declined.
    """
    if tiled.root.is_leaf:
        return True
    leaves = tiled.leaf_tiles()
    target = max(t.depth for t in leaves)
    slack = target - min(t.depth for t in leaves)
    if slack == 0:
        return True
    if max_slack is not None and slack > max_slack:
        return False
    for tile in leaves:
        if tile.depth < target:
            tiled.insert_dummy_chain(tile.tile_id, target - tile.depth)
    assert all(t.depth == target for t in leaves)
    return True
