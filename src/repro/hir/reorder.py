"""Tree reordering: grouping trees that can share traversal code.

Section III-F: generating distinct code per tree bloats the instruction
footprint, and cross-tree optimizations (walk interleaving) work best when
jammed walks share code. The compiler therefore groups trees by walk-depth
compatibility and sorts groups by depth; the loop nest then walks each group
with one piece of code. Because ensemble predictions are sums, reordering
trees never changes the result (up to float accumulation order, which the
backend keeps fixed per group).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hir.tiling.tile import TiledTree


@dataclass
class TreeGroup:
    """A set of trees that share one generated walk kernel.

    Attributes
    ----------
    group_id:
        Position of the group in emission order.
    tree_indices:
        Indices into the model's tree list (original ensemble order).
    depth:
        Maximum leaf-tile depth across members — the walk-step count for
        unrolled kernels, and the worst case for loop kernels.
    uniform:
        True when every member has all leaves at exactly ``depth`` (after
        padding); only then may the walk be fully unrolled with no leaf
        checks.
    min_leaf_depth:
        Smallest leaf depth across members; the peeling pass may skip leaf
        checks for the first ``min_leaf_depth - 1`` steps.
    hot_depth:
        Profile-guided hot/cold cutoff (``repro.pgo``): the first
        ``hot_depth`` tile levels are compiled as a check-free hot prefix
        over compact contiguous buffers. 0 (the default) disables the
        split; legal values are ``1 <= hot_depth < min_leaf_depth``.
    """

    group_id: int
    tree_indices: list[int] = field(default_factory=list)
    depth: int = 0
    uniform: bool = False
    min_leaf_depth: int = 0
    hot_depth: int = 0

    @property
    def num_trees(self) -> int:
        return len(self.tree_indices)


def _group_stats(
    depth_ranges: list[tuple[int, int]], indices: list[int], gid: int
) -> TreeGroup:
    ranges = [depth_ranges[i] for i in indices]
    depth = max(high for _, high in ranges)
    return TreeGroup(
        group_id=gid,
        tree_indices=list(indices),
        depth=depth,
        uniform=all(low == high == depth for low, high in ranges),
        min_leaf_depth=min(low for low, _ in ranges),
    )


def reorder_trees(
    tiled_trees: list[TiledTree], enabled: bool = True, merge: bool = False
) -> list[TreeGroup]:
    """Partition trees into code-sharing groups, sorted by walk depth.

    With reordering enabled, trees with equal maximum leaf-tile depth share
    a group (isomorphic padded trees necessarily land together, so unrolled
    kernels are shared exactly as in the paper). ``merge=True`` — used when
    walks stay guarded loops rather than unrolled straight-line code — puts
    *every* tree into one depth-sorted group: the guarded walk is the same
    code for any tree, and sorting by depth makes jammed lanes finish
    together. Disabled, every tree is its own group in original order — the
    configuration used by the scalar baseline.
    """
    ranges = [tiled.leaf_depth_range() for tiled in tiled_trees]
    if not enabled:
        return [_group_stats(ranges, [i], gid) for gid, i in enumerate(range(len(tiled_trees)))]
    order = sorted(range(len(tiled_trees)), key=lambda i: ranges[i][1])
    if merge:
        # Depth-0 (single-leaf) trees fold into compile-time constants and
        # must not share buffers with walking trees.
        trivial = [i for i in order if ranges[i][1] == 0]
        walking = [i for i in order if ranges[i][1] > 0]
        groups = []
        if trivial:
            groups.append(_group_stats(ranges, trivial, len(groups)))
        if walking:
            groups.append(_group_stats(ranges, walking, len(groups)))
        return groups
    by_depth: dict[int, list[int]] = {}
    for i in order:
        by_depth.setdefault(ranges[i][1], []).append(i)
    groups = []
    for gid, depth in enumerate(sorted(by_depth)):
        groups.append(_group_stats(ranges, by_depth[depth], gid))
    return groups
